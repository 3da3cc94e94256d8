// Package prefix is the incremental-simulation subsystem: it checkpoints
// the state QMDD reached after a circuit's first k gates under the
// circuit's prefix-hash chain link H_k (circuit.PrefixHasher), and resumes
// later runs of any circuit extending the same prefix from the longest
// cached checkpoint instead of from gate 0.
//
// Soundness rests on two properties established lower in the stack. The
// chain link H_k is a content address for the op sequence itself — shared
// by every textual variant and every extension — so a checkpoint keyed by
// H_k (plus representation, normalization and ε, via the same
// qcache.Identity the result cache uses) can only ever be resumed by a run
// that would have reached exactly that state. And canonical diagrams with
// interned weights make serialization faithful: a state decoded into a
// fresh manager reproduces the cold run byte for byte in both the exact
// algebraic and the float representation.
//
// Checkpoints use Output "state" in the identity, and Store is the only
// writer of that key family. Because Fingerprint(c) is definitionally the
// final chain link of c, the checkpoint of a whole circuit is also a valid
// prefix checkpoint for any extension of it.
//
// Only unitary prefixes are ever stored or probed: a state captured past a
// measure, reset or classically conditioned op depends on random outcomes,
// so it is not a function of its key. Callers clamp the chain at
// circuit.UnitaryPrefixLen; Plan does it for them.
package prefix

import (
	"bytes"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/ddio"
	"repro/internal/qcache"
	"repro/internal/sim"
)

// Plan is the checkpointable view of one circuit: its full prefix-hash
// chain plus the boundary past which no state may be stored or resumed.
type Plan struct {
	// Links holds H₀ … Hₙ; Links[k] keys the state after k gates.
	Links []circuit.Digest
	// Boundary is the unitary prefix length: only k ≤ Boundary are sound
	// checkpoint positions.
	Boundary int
}

// PlanOf computes the chain and the unitary boundary for c.
func PlanOf(c *circuit.Circuit) Plan {
	return Plan{Links: circuit.Chain(c), Boundary: c.UnitaryPrefixLen()}
}

// Store persists prefix-state checkpoints for one representation
// configuration in a two-tier qcache.Cache. The checkpoint payload is a
// ddio v2 state blob, so the blob a checkpoint writes is what
// /v1/cache/{key} peers serve. A nil *Store is a valid disabled store.
type Store[T any] struct {
	cache *qcache.Cache
	repr  string
	eps   float64
	norm  core.NormScheme
	codec ddio.Codec[T]
	meta  ddio.Meta
}

// NewStore binds cache to one (repr, ε, norm) configuration. repr follows
// the wire names: "alg" or "float". Returns nil when cache is disabled.
func NewStore[T any](cache *qcache.Cache, repr string, eps float64, norm core.NormScheme, codec ddio.Codec[T]) *Store[T] {
	if !cache.Enabled() {
		return nil
	}
	eps = checkpointEps(repr, eps)
	return &Store[T]{
		cache: cache,
		repr:  repr,
		eps:   eps,
		norm:  norm,
		codec: codec,
		meta:  ddio.Meta{Version: ddio.FormatV2, Repr: repr, Norm: norm.String(), Eps: eps},
	}
}

// checkpointEps is the ε a checkpoint is keyed and stamped under. The
// exact representation is ε-independent, so every alg checkpoint uses 0:
// one key and one blob header whatever ε a request names.
func checkpointEps(repr string, eps float64) float64 {
	if repr != "float" {
		return 0
	}
	return eps
}

// identity is the cache identity of the checkpoint under link: the chain
// link in the circuit slot, Output pinned to "state". repr and norm are
// the wire names ("alg"/"float", canonical normalization name).
func identity(link circuit.Digest, repr, norm string, eps float64) qcache.Identity {
	return qcache.Identity{
		Circuit: link,
		Repr:    repr,
		Norm:    norm,
		Eps:     checkpointEps(repr, eps),
		Output:  "state",
	}
}

// Key returns the cache key the checkpoint under link lands at for one
// representation configuration. It is the key a Store reads and writes,
// and the prefix_key a batch reports.
func Key(link circuit.Digest, repr, norm string, eps float64) qcache.Key {
	return identity(link, repr, norm, eps).Key()
}

func (s *Store[T]) identity(link circuit.Digest) qcache.Identity {
	return identity(link, s.repr, s.norm.String(), s.eps)
}

// Load decodes the checkpoint under link into m. Any failure — miss,
// stamp mismatch, malformed payload, wrong width, budget pressure during
// decode — reports a cold start, never an error: re-simulation is always
// a valid fallback.
func (s *Store[T]) Load(m *core.Manager[T], link circuit.Digest, qubits int) (core.Edge[T], bool) {
	var zero core.Edge[T]
	if s == nil {
		return zero, false
	}
	id := s.identity(link)
	payload, hit := s.cache.Get(id.Key(), id.Stamp())
	if !hit {
		return zero, false
	}
	e, qn, err := s.decode(m, payload)
	if err != nil || qn != qubits {
		return zero, false
	}
	return e, true
}

// decode runs the ddio reader with core panics (budget pressure while
// interning the checkpoint's nodes) converted to errors.
func (s *Store[T]) decode(m *core.Manager[T], payload []byte) (e core.Edge[T], qn int, err error) {
	defer core.RecoverTo(&err)
	e, qn, _, err = ddio.ReadMeta(bytes.NewReader(payload), m, s.codec, ddio.Limits{}, &s.meta)
	return e, qn, err
}

// Store serializes the state reached after some prefix and caches it under
// that prefix's chain link. When maxBytes is positive and the blob exceeds
// it, nothing is stored and (0, nil) is returned — a checkpoint that big
// costs more to move than to recompute. The returned size is the stored
// payload's bytes.
func (s *Store[T]) Store(m *core.Manager[T], e core.Edge[T], link circuit.Digest, qubits int, maxBytes int64) (int, error) {
	if s == nil {
		return 0, nil
	}
	var buf bytes.Buffer
	if err := ddio.WriteMeta(&buf, m, s.codec, e, qubits, s.meta); err != nil {
		return 0, err
	}
	if maxBytes > 0 && int64(buf.Len()) > maxBytes {
		return 0, nil
	}
	id := s.identity(link)
	s.cache.Put(id.Key(), buf.Bytes(), id.Stamp())
	return buf.Len(), nil
}

// Probe finds the longest cached prefix of the plan, never past the
// unitary boundary, and decodes its state into m. It returns the prefix
// length k and the restored state; k = 0 / ok = false means cold start.
// Position 0 (the basis state) is never probed — restoring it buys
// nothing.
func (s *Store[T]) Probe(m *core.Manager[T], p Plan, qubits int) (int, core.Edge[T], bool) {
	var zero core.Edge[T]
	if s == nil {
		return 0, zero, false
	}
	maxK := p.Boundary
	if maxK > len(p.Links)-1 {
		maxK = len(p.Links) - 1
	}
	for k := maxK; k >= 1; k-- {
		if e, ok := s.Load(m, p.Links[k], qubits); ok {
			return k, e, true
		}
	}
	return 0, zero, false
}

// Policy decides which prefixes of a run get checkpointed. The zero value
// checkpoints nothing.
type Policy struct {
	// EveryK checkpoints every K-th gate position (0 disables the cadence
	// rule).
	EveryK int
	// MaxBytes caps one checkpoint's serialized size (0 = unlimited);
	// oversized snapshots are skipped, not truncated.
	MaxBytes int64
}

// highWaterFloor is the minimum node count before the peak-node rule fires:
// tiny states are not worth a high-water snapshot — the cadence rule covers
// them.
const highWaterFloor = 256

// Tracker carries one run's checkpoint decisions: the cadence rule plus a
// geometric peak-node high-water rule (checkpoint when the node count has
// doubled since the last checkpoint), so fast-growing states get snapshots
// between cadence points — exactly where re-simulation is most expensive.
type Tracker struct {
	p         Policy
	lastNodes int
}

// NewTracker starts tracking a run whose state currently has startNodes
// nodes (the warm-start size, or 1 for |0…0⟩).
func (p Policy) NewTracker(startNodes int) *Tracker {
	if startNodes < 1 {
		startNodes = 1
	}
	return &Tracker{p: p, lastNodes: startNodes}
}

// Should reports whether the state after k of n gates (unitary boundary
// `boundary`, current node count `nodes`) deserves a checkpoint: at the
// boundary itself (the final-state snapshot every extension warm-starts
// from), every K gates, or at a peak-node high-water mark.
func (t *Tracker) Should(k, boundary, nodes int) bool {
	if k > boundary || k < 1 {
		return false
	}
	if k == boundary {
		return true
	}
	if t.p.EveryK > 0 && k%t.p.EveryK == 0 {
		return true
	}
	return nodes >= highWaterFloor && nodes >= 2*t.lastNodes
}

// Stored records a successful checkpoint at a state of `nodes` nodes,
// resetting the high-water baseline.
func (t *Tracker) Stored(nodes int) {
	if nodes > t.lastNodes {
		t.lastNodes = nodes
	}
}

// Resume is the warm-start and checkpoint loop of one run. It probes ps
// for the longest cached prefix of c and installs the restored state in s,
// and returns the gate index the run resumes from (0 = cold start) and the
// per-gate hook for sim.RunFromCtx that stores the prefixes pol selects.
// plan is c's plan when the caller already has it (a batch computes its
// variants' chains at submit); the zero Plan makes Resume compute
// PlanOf(c). stored is told each stored checkpoint's size. Checkpointing
// stops at the run's first approximation event: an approximate state is not
// the exact function of its prefix key. A nil ps returns (0, nil).
func Resume[T any](ps *Store[T], s *sim.Simulator[T], c *circuit.Circuit, plan Plan, pol Policy, stored func(bytes int)) (int, func(int, circuit.Gate) bool) {
	if ps == nil {
		return 0, nil
	}
	m := s.M
	if plan.Links == nil {
		plan = PlanOf(c)
	}
	from := 0
	if k, e, ok := ps.Probe(m, plan, c.N); ok {
		s.State = e
		from = k
	}
	// The unique-table occupancy stands in for the state's node count in
	// the high-water rule: it is O(1) to read where an exact count walks
	// the state, and within one run it over-approximates only by garbage —
	// at worst a few extra snapshots, never a missed boundary.
	tracker := pol.NewTracker(m.Stats().UniqueNodes)
	return from, func(i int, _ circuit.Gate) bool {
		k := i + 1 // the hook fires after gate i: the state is H_{i+1}'s
		nodes := m.Stats().UniqueNodes
		if !tracker.Should(k, plan.Boundary, nodes) || s.Approximation().Events > 0 {
			return true
		}
		if n, err := ps.Store(m, s.State, plan.Links[k], c.N, pol.MaxBytes); err == nil && n > 0 {
			tracker.Stored(nodes)
			stored(n)
		}
		return true
	}
}

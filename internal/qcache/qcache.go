// Package qcache is a two-tier, content-addressed cache for finished
// simulation results, plus the singleflight layer that collapses concurrent
// identical submissions.
//
// The paper's exactness argument is what makes this sound: Q[ω] edge
// weights make QMDDs canonical, so two runs of the same Clifford+T circuit
// produce bit-identical diagrams and bit-identical result envelopes. A
// result keyed by the *semantic content* of the job — canonical circuit
// fingerprint, representation, normalization scheme, and (for the float
// representation only) the interning tolerance ε — can therefore be served
// from cache forever. Algebraic entries are ε-independent because they are
// exact; float entries carry their ε in the key because a different
// tolerance is a different (approximate) semantics.
//
// Tier 1 (Memory) is an in-process LRU with byte accounting, generic over
// its value so the parse memo (internal/parsememo) reuses it. Tier 2 (Disk)
// persists entries across process restarts with atomic rename writes and a
// stamped header validated on load, so a rebooted daemon serves yesterday's
// hot circuits without re-simulating them. Cache combines the tiers:
// memory misses fall through to disk, and disk hits are promoted back into
// memory. Flight is the request-dedup layer: the second identical
// submission joins the first one's in-flight call instead of re-running.
package qcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
)

// Key is a content address: the SHA-256 digest of a canonicalized job
// identity.
type Key [sha256.Size]byte

// String renders the key as lower-case hex (also the disk-tier file stem).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey decodes the hex form String produces — the path segment of the
// cache-peering endpoint GET /v1/cache/{key}.
func ParseKey(s string) (Key, error) {
	var k Key
	b, err := hex.DecodeString(s)
	if err != nil {
		return k, fmt.Errorf("qcache: bad key %q: %w", s, err)
	}
	if len(b) != len(k) {
		return k, fmt.Errorf("qcache: bad key length %d (want %d)", len(b), len(k))
	}
	copy(k[:], b)
	return k, nil
}

// Stamp is the provenance metadata stored alongside a disk entry and
// validated on load: an entry written for one (repr, norm, ε)
// configuration must never be served to another, even if a key collision
// or a tampered file suggests otherwise.
type Stamp struct {
	Repr string
	Norm string
	Eps  float64
}

// Identity is the canonicalized description of a simulation job — every
// field that can change the bytes of a successful result envelope, and
// nothing else. Budgets and timeouts are deliberately absent: they govern
// whether a result gets computed, not what the result is, so a success
// computed under any budget serves all budgets.
type Identity struct {
	// Circuit is the canonical circuit fingerprint (circuit.Fingerprint /
	// qasm.Fingerprint): comment-, whitespace- and register-name
	// insensitive.
	Circuit [sha256.Size]byte
	// Repr is "alg" or "float".
	Repr string
	// Norm is the normalization scheme name ("left", "max", "gcd").
	Norm string
	// Eps is the float-representation interning tolerance. Ignored (treated
	// as 0) for the exact algebraic representation.
	Eps float64
	// Output and TopK select the shape of the result envelope
	// ("amplitudes"/"stats"/"ddio"/"histogram", amplitude list length).
	Output string
	TopK   int
	// Shots and Seed identify a histogram job: a seeded shots run is a
	// deterministic function of (circuit, repr, norm, ε, shots, seed), so
	// its envelope is cacheable like any other. Both are folded into the
	// key only when Shots > 0, which keeps every pre-shots key — and any
	// disk tier written by an older build — valid unchanged.
	Shots int
	Seed  int64
	// MinFidelity and the budget caps identify an *approximate* result:
	// which edges a fidelity-bounded run sheds depends on the floor and on
	// where the memory budget tripped, so all four shape the envelope. They
	// are folded into the key only when MinFidelity > 0; exact results —
	// including a min_fidelity run that never needed to approximate — are
	// keyed with MinFidelity 0 and stay valid unchanged. The timeout is
	// still excluded: a deadline trip fails a job, it never approximates it.
	MinFidelity float64
	MaxNodes    int
	MaxWeights  int
	MaxBytes    int64
}

// Stamp returns the provenance stamp for entries stored under this
// identity.
func (id Identity) Stamp() Stamp {
	eps := id.Eps
	if id.Repr != "float" {
		eps = 0
	}
	return Stamp{Repr: id.Repr, Norm: id.Norm, Eps: eps}
}

// Key derives the content address. Alg-repr identities are ε-independent:
// the exact representation computes the same bits for every ε, so folding ε
// in would only split the cache.
func (id Identity) Key() Key {
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeStr := func(s string) {
		writeInt(int64(len(s)))
		h.Write([]byte(s))
	}
	writeStr("qcache-identity-v1")
	h.Write(id.Circuit[:])
	writeStr(id.Repr)
	writeStr(id.Norm)
	if id.Repr == "float" {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(id.Eps))
		h.Write(buf[:])
	}
	writeStr(id.Output)
	writeInt(int64(id.TopK))
	if id.Shots > 0 {
		writeStr("shots")
		writeInt(int64(id.Shots))
		writeInt(id.Seed)
	}
	if id.MinFidelity > 0 {
		writeStr("approx")
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(id.MinFidelity))
		h.Write(buf[:])
		writeInt(int64(id.MaxNodes))
		writeInt(int64(id.MaxWeights))
		writeInt(id.MaxBytes)
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// FlightID extends Identity with the request fields that change the
// *outcome* of a run without changing a successful result: the budget and
// the timeout. Two submissions are collapsed by the singleflight layer only
// when they are identical in this wider sense — a follower with a larger
// budget must not inherit a leader's budget_exceeded failure.
type FlightID struct {
	Identity
	MaxNodes   int
	MaxWeights int
	MaxBytes   int64
	TimeoutMS  int64
	// MinFidelity separates fidelity-bounded submissions: an approximate
	// success is a different envelope than an exact one, so the two must
	// never collapse onto one flight.
	MinFidelity float64
}

// Key derives the singleflight grouping key.
func (f FlightID) Key() Key {
	h := sha256.New()
	base := f.Identity.Key()
	h.Write([]byte("qcache-flight-v1"))
	h.Write(base[:])
	var buf [8]byte
	for _, v := range []int64{int64(f.MaxNodes), int64(f.MaxWeights), f.MaxBytes, f.TimeoutMS} {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f.MinFidelity))
	h.Write(buf[:])
	var k Key
	h.Sum(k[:0])
	return k
}

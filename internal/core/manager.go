package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/coeff"
)

// NormScheme selects how node weights are normalized when a node is created.
// Normalization is what makes QMDDs canonical; the available schemes are the
// ones discussed in the paper.
type NormScheme int

const (
	// NormLeft divides all outgoing weights by the leftmost nonzero weight
	// (the classic QMDD rule; for the algebraic representation this is
	// Algorithm 2, "normalization with Q[ω] inverses").
	NormLeft NormScheme = iota
	// NormMax divides by the (leftmost) weight of largest magnitude, keeping
	// every weight at magnitude ≤ 1 for numerical stability [29].
	NormMax
	// NormGCD factors out a unit-adjusted greatest common divisor of the
	// weights (Algorithm 3, "normalization with GCDs from D[ω]"). Requires a
	// coefficient ring implementing coeff.GCDRing; falls back to NormLeft
	// when the weights leave the GCD subring.
	NormGCD
)

// String returns the scheme name used in CLI flags and reports.
func (s NormScheme) String() string {
	switch s {
	case NormLeft:
		return "left"
	case NormMax:
		return "max"
	case NormGCD:
		return "gcd"
	}
	return fmt.Sprintf("NormScheme(%d)", int(s))
}

// ParseNormScheme parses the textual form produced by String.
func ParseNormScheme(s string) (NormScheme, error) {
	switch s {
	case "left", "":
		return NormLeft, nil
	case "max":
		return NormMax, nil
	case "gcd":
		return NormGCD, nil
	}
	return 0, fmt.Errorf("unknown normalization scheme %q (want left, max or gcd)", s)
}

// Stats aggregates manager counters.
type Stats struct {
	UniqueNodes     int    // live nodes in the unique table
	UniqueLookups   uint64 // MakeNode calls that reached the unique table
	UniqueHits      uint64 // ... of which found an existing node
	CTLookups       uint64
	CTHits          uint64
	CTEntries       int    // occupied compute-table slots
	CTCapacity      int    // compute-table slot count
	ScalarLookups   uint64 // nontrivial weight Mul/Div calls that reached the scalar table (exact rings only)
	ScalarHits      uint64 // ... of which were answered from it
	InternedWeights int    // distinct weights in the intern table
	Prunes          uint64 // garbage-collection runs
	PrunedNodes     uint64 // nodes removed across all Prune calls
}

// CTLoadFactor returns the fraction of compute-table slots in use.
func (s Stats) CTLoadFactor() float64 {
	if s.CTCapacity == 0 {
		return 0
	}
	return float64(s.CTEntries) / float64(s.CTCapacity)
}

// Manager owns the unique table, the compute tables and the normalization
// policy for one family of QMDDs. All diagrams combined by manager
// operations must come from the same manager.
//
// Concurrency: a Manager is single-threaded. Every call — operations,
// Stats, Snapshot, Prune — must come from one goroutine at a time; run
// parallel work on separate managers, as the benchmark harness (one manager
// per sweep cell) and the engine (one set of managers per worker goroutine)
// do. DESIGN.md §5.6 has the measurements that keep one operation on one
// goroutine.
type Manager[T any] struct {
	R    coeff.Ring[T]
	Norm NormScheme

	hashW    func(T) uint64 // weight hash: coeff.Hasher fast path or Key fallback
	zeroW    T              // the ring's zero, the reserved WID-0 representative
	zeroHash uint64         // mixed hash of zeroW
	wt       internTable[T]
	ut       uniqueTable[T]
	ct       *computeTable[T]
	arith    scalarArith[T]  // edge-weight Mul/Div: st for exact rings, else R
	st       *scalarTable[T] // exact rings only (scalar.go); nil otherwise
	nextID   uint64
	gateSeq  uint64 // LocalGate registry IDs (apply.go)
	stats    Stats  // Prune counters only; table counters live in the shards
	pruneGen uint64 // bumped by every Prune; Samplers capture it to detect staleness

	// Live-population counters the budget meters against.
	totalNodes   int64
	totalWeights int64

	// Run governor (budget.go): optional resource budget, optional
	// cooperative-cancellation context, and always-on peak tracking. budget,
	// ctx and budgetStart are configured between operations; the tick and
	// peaks are updated inside them.
	budget      Budget
	ctx         context.Context
	budgetStart time.Time
	budgetTick  uint64
	peakNodes   int64
	peakWeights int64
}

// Option configures a Manager at construction time.
type Option func(*managerOptions)

type managerOptions struct {
	ctSize int
}

// DefaultCTSize is the compute-table slot count used when no
// WithComputeTableSize option is given.
const DefaultCTSize = 1 << 18

// WithComputeTableSize sets the number of compute-table slots (rounded up to
// a power of two). Smaller tables bound memory at the cost of more
// overwrite collisions; results stay correct either way because every entry
// verifies its stored operands on lookup.
func WithComputeTableSize(n int) Option {
	if n < 1 {
		panic("core: compute table size must be positive")
	}
	return func(o *managerOptions) { o.ctSize = ceilPow2(n) }
}

// NewManager returns a manager over the given coefficient ring.
func NewManager[T any](r coeff.Ring[T], norm NormScheme, opts ...Option) *Manager[T] {
	o := managerOptions{ctSize: DefaultCTSize}
	for _, opt := range opts {
		opt(&o)
	}
	m := &Manager[T]{
		R:           r,
		Norm:        norm,
		ct:          newComputeTable[T](o.ctSize),
		budgetStart: time.Now(),
	}
	h, hashed := any(r).(coeff.Hasher[T])
	if hashed {
		m.hashW = h.Hash
	} else {
		m.hashW = func(w T) uint64 { return fnv1a(r.Key(w)) }
	}
	m.arith = r
	if ex, ok := any(r).(coeff.ExactRing); ok && ex.Exact() && hashed {
		m.st = &scalarTable[T]{r: r, hash: h.Hash}
		m.arith = m.st
	}
	m.zeroW = r.Zero()
	m.zeroHash = mix64(m.hashW(m.zeroW))
	m.wt.init(1 << 4)
	m.ut.init(1 << 4)
	m.totalWeights = 1 // WID 0, pinned to the ring's zero
	return m
}

// internWeight canonicalizes w through the per-manager intern table and
// returns its weight ID plus the canonical representative. The hit path
// hashes w (via the ring's Hasher fast path when available) and compares
// candidates with Ring.Equal — no strings, no allocation. The ring's zero
// maps to the reserved WID 0 without touching any shard.
func (m *Manager[T]) internWeight(w T) (uint32, T) {
	h := mix64(m.hashW(w))
	if h == m.zeroHash && m.R.Equal(m.zeroW, w) {
		return 0, m.zeroW
	}
	wid, canon, isNew := m.wt.intern(w, h, m.R.Equal)
	if isNew {
		m.noteWeight()
	}
	return wid, canon
}

// WID returns the weight ID of w, interning it if needed.
func (m *Manager[T]) WID(w T) uint32 {
	wid, _ := m.internWeight(w)
	return wid
}

// Weight returns the canonical representative interned under the given
// weight ID (WID 0 is the ring's zero).
func (m *Manager[T]) Weight(wid uint32) T {
	if wid == 0 {
		return m.zeroW
	}
	return m.wt.lookup(wid)
}

// Stats returns a snapshot of the manager counters.
func (m *Manager[T]) Stats() Stats {
	s := m.stats
	s.UniqueNodes = m.ut.count()
	s.UniqueLookups, s.UniqueHits = m.ut.counters()
	s.InternedWeights = m.wt.count()
	s.CTLookups, s.CTHits = m.ct.counters()
	s.CTEntries = m.ct.filledTotal()
	s.CTCapacity = m.ct.capacity()
	if m.st != nil {
		s.ScalarLookups, s.ScalarHits = m.st.counters()
	}
	return s
}

// ClearComputeTable drops all memoized operation results (the unique table —
// and with it diagram identity — is preserved).
func (m *Manager[T]) ClearComputeTable() { m.ct.clear() }

// Terminal returns a terminal edge with the given weight.
func (m *Manager[T]) Terminal(w T) Edge[T] { return Edge[T]{W: w, N: nil} }

// ZeroEdge returns the zero stub (weight 0, terminal).
func (m *Manager[T]) ZeroEdge() Edge[T] { return Edge[T]{W: m.R.Zero(), N: nil} }

// OneEdge returns the scalar 1.
func (m *Manager[T]) OneEdge() Edge[T] { return Edge[T]{W: m.R.One(), N: nil} }

// IsZero reports whether e is the zero stub.
func (m *Manager[T]) IsZero(e Edge[T]) bool { return e.N == nil && m.R.IsZero(e.W) }

// RootsEqual is the O(1) canonical equivalence check: two diagrams built in
// this manager represent the same matrix/vector iff their root edges point
// to the identical node with equal weights.
func (m *Manager[T]) RootsEqual(a, b Edge[T]) bool {
	return a.N == b.N && m.R.Equal(a.W, b.W)
}

// RootsEqualUpToPhase reports whether two diagrams represent the same
// object up to a global phase: identical node and root weights of equal
// squared magnitude (checked exactly in the coefficient ring, so for the
// algebraic representation this decides U₁ = e^{iφ}·U₂ exactly). Still O(1).
func (m *Manager[T]) RootsEqualUpToPhase(a, b Edge[T]) bool {
	if a.N != b.N {
		return false
	}
	na := m.R.Mul(m.R.Conj(a.W), a.W)
	nb := m.R.Mul(m.R.Conj(b.W), b.W)
	return m.R.Equal(na, nb)
}

// MakeNode creates (or retrieves) the normalized, hash-consed node at the
// given level with the given outgoing edges, and returns the edge pointing
// to it with the extracted normalization factor as weight. Edges of weight
// zero are canonicalized to zero stubs; if every edge is zero the zero stub
// itself is returned.
func (m *Manager[T]) MakeNode(level int, es []Edge[T]) Edge[T] {
	if level < 1 {
		panic("core: MakeNode at level < 1")
	}
	if len(es) != VectorArity && len(es) != MatrixArity {
		panic("core: MakeNode arity must be 2 (vector) or 4 (matrix)")
	}
	// Stack-allocated scratch: nothing is heap-allocated until a genuinely
	// new node has to be created.
	var buf [MatrixArity]Edge[T]
	out := buf[:len(es)]
	allZero := true
	for i, e := range es {
		if m.R.IsZero(e.W) {
			out[i] = Edge[T]{W: m.R.Zero()}
		} else {
			out[i] = e
			allZero = false
		}
	}
	if allZero {
		return m.ZeroEdge()
	}
	factor := m.normalize(out)
	return Edge[T]{W: factor, N: m.internNode(level, out)}
}

// internNode hash-conses the normalized edge vector: each weight is interned
// to its WID, the (level, child IDs, WIDs) key is hashed, and the owning
// unique-table shard is probed. es is scratch owned by the caller — it is
// copied only when a new node is created.
func (m *Manager[T]) internNode(level int, es []Edge[T]) *Node[T] {
	var wids [MatrixArity]uint32
	for i := range es {
		wid, canon := m.internWeight(es[i].W)
		wids[i] = wid
		es[i].W = canon // share the canonical representative
	}
	h := nodeHash(level, es, &wids)
	sh := &m.ut.shards[shardOf(h)]
	sh.lookups++
	i := h & sh.mask
	for {
		n := sh.slots[i]
		if n == nil {
			break
		}
		if n.hash == h && n.Level == level && len(n.E) == len(es) && sameKids(n, es, &wids) {
			sh.hits++
			return n
		}
		i = (i + 1) & sh.mask
	}
	kids := make([]Edge[T], len(es))
	copy(kids, es)
	m.nextID++
	n := &Node[T]{ID: m.nextID, Level: level, E: kids, wids: wids, hash: h}
	sh.slots[i] = n
	sh.used++
	if uint64(sh.used)*4 >= uint64(len(sh.slots))*3 {
		sh.grow()
	}
	m.noteNode()
	return n
}

// sameKids reports whether n's outgoing edges match the probe key: identical
// child pointers and identical interned weight IDs.
func sameKids[T any](n *Node[T], es []Edge[T], wids *[MatrixArity]uint32) bool {
	for j := range es {
		if n.E[j].N != es[j].N || n.wids[j] != wids[j] {
			return false
		}
	}
	return true
}

// MakeVectorNode is MakeNode for the two halves of a state vector.
func (m *Manager[T]) MakeVectorNode(level int, e0, e1 Edge[T]) Edge[T] {
	es := [VectorArity]Edge[T]{e0, e1}
	return m.MakeNode(level, es[:])
}

// MakeMatrixNode is MakeNode for the four quadrants of a matrix
// (top-left, top-right, bottom-left, bottom-right).
func (m *Manager[T]) MakeMatrixNode(level int, e00, e01, e10, e11 Edge[T]) Edge[T] {
	es := [MatrixArity]Edge[T]{e00, e01, e10, e11}
	return m.MakeNode(level, es[:])
}

// Scale returns s · e.
func (m *Manager[T]) Scale(e Edge[T], s T) Edge[T] {
	if m.R.IsZero(s) || m.IsZero(e) {
		return m.ZeroEdge()
	}
	// Unit factors are pervasive (left normalization pins the leftmost child
	// weight to an exact 1, and permutation-type gates scale by ±1): skip
	// the ring multiplication for them. For exact rings this is the
	// identity; a multiplication by an exact 1 is bit-exact in complex128
	// too, so results are unchanged.
	if m.R.IsOne(s) {
		return e
	}
	if m.R.IsOne(e.W) {
		return Edge[T]{W: s, N: e.N}
	}
	return Edge[T]{W: m.arith.Mul(s, e.W), N: e.N}
}

// weightedChild returns the i-th outgoing edge of e's node with e's weight
// multiplied in. e must not be terminal.
func (m *Manager[T]) weightedChild(e Edge[T], i int) Edge[T] {
	c := e.N.E[i]
	if m.R.IsZero(c.W) {
		return m.ZeroEdge()
	}
	// Same unit fast paths as Scale: canonical nodes have a unit pivot
	// weight, so roughly half of all child multiplications are by 1.
	if m.R.IsOne(e.W) {
		return c
	}
	if m.R.IsOne(c.W) {
		return Edge[T]{W: e.W, N: c.N}
	}
	return Edge[T]{W: m.arith.Mul(e.W, c.W), N: c.N}
}

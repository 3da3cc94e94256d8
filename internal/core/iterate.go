package core

// Sparse traversal of vector diagrams: visit only basis states with nonzero
// amplitude, in index order, without materializing the exponential vector.
// On a compact diagram this touches O(paths) entries rather than O(2^n) —
// e.g. a Grover state yields all 2^n entries (it is dense), while a
// basis-state-like or stabilizer diagram yields only its support.

// ForEachAmplitude calls f for every nonzero amplitude of the n-qubit
// vector diagram, in ascending basis-state order. Returning false stops the
// iteration early.
func (m *Manager[T]) ForEachAmplitude(v Edge[T], n int, f func(idx uint64, amp T) bool) {
	if m.IsZero(v) {
		return
	}
	var walk func(e Edge[T], level int, idx uint64, w T) bool
	walk = func(e Edge[T], level int, idx uint64, w T) bool {
		if m.IsZero(e) {
			return true
		}
		cw := m.R.Mul(w, e.W)
		if level == 0 {
			return f(idx, cw)
		}
		for i, c := range e.N.E {
			if !walk(c, level-1, idx|uint64(i)<<(level-1), cw) {
				return false
			}
		}
		return true
	}
	walk(v, n, 0, m.R.One())
}

// SupportSize returns the number of basis states with nonzero amplitude.
// (Nonzero in the representation: a numerically tiny-but-nonzero amplitude
// counts; an exactly cancelled one does not.)
func (m *Manager[T]) SupportSize(v Edge[T], n int) uint64 {
	// Count paths per node rather than enumerating them, so dense states
	// over many qubits stay cheap.
	order, pos := walk(v)
	paths := make([]uint64, len(order))
	count := func(e Edge[T]) uint64 {
		switch {
		case m.IsZero(e):
			return 0
		case e.N == nil:
			return 1
		}
		return paths[pos[e.N]]
	}
	for i, nd := range order {
		for _, c := range nd.E {
			paths[i] += count(c)
		}
	}
	return count(v)
}

// Outcome is one read-out winner: a basis state, its probability and its
// amplitude.
type Outcome[T any] struct {
	Index uint64
	Prob  float64
	Amp   T
}

// TopAmplitudes returns the k most probable basis states of the n-qubit
// vector diagram v with their probabilities and amplitudes, sorted by
// descending probability (ties in ascending index order), visiting only the
// diagram's support. Each probability is Ring.Abs2 of the amplitude, the
// product of the weights along the state's path (the paper's Example 3).
//
// An exact ring reads out by distinct value: the walk gives every path
// product a local value ID, multiplies once per (value ID, child WID) pair
// and converts once per distinct amplitude, so a state whose 2ⁿ amplitudes
// take ten values pays for ten. An inexact ring multiplies along every
// path, as Amplitude does, and re-walks each winner's path for its
// amplitude: its Mul interns into the ε-table, so sharing products between
// paths could change which representative a path lands on.
func (m *Manager[T]) TopAmplitudes(v Edge[T], n, k int) []Outcome[T] {
	return m.top(v, n, k, true)
}

// TopOutcomes returns the k most probable basis states with their
// probabilities, sorted descending: TopAmplitudes without the amplitudes,
// which an inexact ring then does not re-walk.
func (m *Manager[T]) TopOutcomes(v Edge[T], n, k int) ([]uint64, []float64) {
	top := m.top(v, n, k, false)
	if top == nil {
		return nil, nil
	}
	idxs := make([]uint64, len(top))
	probs := make([]float64, len(top))
	for i, o := range top {
		idxs[i], probs[i] = o.Index, o.Prob
	}
	return idxs, probs
}

func (m *Manager[T]) top(v Edge[T], n, k int, amps bool) []Outcome[T] {
	if k <= 0 {
		return nil
	}
	out := make([]Outcome[T], 0, k)
	if m.st != nil { // exact ring (scalar.go)
		r := readout[T]{m: m, k: k, out: out}
		r.walk(v, n)
		return r.out
	}
	m.ForEachAmplitude(v, n, func(idx uint64, amp T) bool {
		out = offer(out, k, Outcome[T]{Index: idx, Prob: m.R.Abs2(amp)})
		return true
	})
	if amps {
		for i := range out {
			out[i].Amp = m.Amplitude(v, n, out[i].Index)
		}
	}
	return out
}

// offer inserts o into the descending top-k list out, behind every entry
// of equal probability: the walks visit indices in ascending order, so a
// tie goes to the lower index.
func offer[T any](out []Outcome[T], k int, o Outcome[T]) []Outcome[T] {
	pos := len(out)
	for pos > 0 && out[pos-1].Prob < o.Prob {
		pos--
	}
	if pos >= k {
		return out
	}
	if len(out) < k {
		out = append(out, Outcome[T]{})
	}
	copy(out[pos+1:], out[pos:])
	out[pos] = o
	return out
}

// readoutMemoCap bounds the exact read-out's value table and product memo.
// Past it, new products are multiplied and converted per path, as an
// inexact ring's are, so a state whose amplitudes are nearly all distinct
// costs what it always did and its read-out memory stays bounded.
var readoutMemoCap = 1 << 14

// readout is the exact-ring support walk. vals holds the distinct path
// products met so far, indexed by local value ID; byHash maps a hash to
// the last ID interned under it, and each value links to the previous one,
// so interning compares candidates with Ring.Equal; prod maps a
// (value ID, child WID) pair to the ID of their product.
type readout[T any] struct {
	m      *Manager[T]
	k      int
	out    []Outcome[T]
	vals   []readoutValue[T]
	byHash map[uint64]int32
	prod   map[uint64]int32
}

type readoutValue[T any] struct {
	v    T
	prob float64 // Abs2(v), or −1 until a path ends on v
	next int32   // the previous value with the same hash, or −1
}

func (r *readout[T]) walk(v Edge[T], n int) {
	if r.m.IsZero(v) {
		return
	}
	r.byHash = make(map[uint64]int32)
	r.prod = make(map[uint64]int32)
	id := r.intern(v.W)
	if n == 0 {
		r.leaf(0, id, v.W)
		return
	}
	r.node(v.N, n, 0, id, v.W)
}

// node visits the children of nd (at level ≥ 1) under the path product
// val, whose value ID is id (−1 when it has none).
func (r *readout[T]) node(nd *Node[T], level int, idx uint64, id int32, val T) {
	for i := range nd.E {
		wid := nd.wids[i]
		if wid == 0 { // a zero stub
			continue
		}
		c := &nd.E[i]
		cid, cval := r.mul(id, val, wid, c.W)
		cidx := idx | uint64(i)<<(level-1)
		if level == 1 {
			r.leaf(cidx, cid, cval)
		} else {
			r.node(c.N, level-1, cidx, cid, cval)
		}
	}
}

// mul returns val·w and its value ID, multiplying only the first time the
// pair (id, wid) is met.
func (r *readout[T]) mul(id int32, val T, wid uint32, w T) (int32, T) {
	if id < 0 {
		x := r.m.R.Mul(val, w)
		return r.intern(x), x
	}
	key := uint64(id)<<32 | uint64(wid)
	if p, ok := r.prod[key]; ok {
		return p, r.vals[p].v
	}
	x := r.m.R.Mul(val, w)
	xid := r.intern(x)
	if xid >= 0 && len(r.prod) < readoutMemoCap {
		r.prod[key] = xid
	}
	return xid, x
}

// leaf offers the basis state idx, whose amplitude val has value ID id.
func (r *readout[T]) leaf(idx uint64, id int32, val T) {
	var p float64
	switch {
	case id < 0:
		p = r.m.R.Abs2(val)
	case r.vals[id].prob < 0:
		p = r.m.R.Abs2(val)
		r.vals[id].prob = p
	default:
		p = r.vals[id].prob
	}
	r.out = offer(r.out, r.k, Outcome[T]{Index: idx, Prob: p, Amp: val})
}

// intern returns the local value ID of x, adding x to the table if it is
// new and the table has room; −1 means it has none.
func (r *readout[T]) intern(x T) int32 {
	R := r.m.R
	h := R.Hash(x)
	last, ok := r.byHash[h]
	if !ok {
		last = -1
	}
	for id := last; id >= 0; id = r.vals[id].next {
		if R.Equal(r.vals[id].v, x) {
			return id
		}
	}
	if len(r.vals) >= readoutMemoCap {
		return -1
	}
	id := int32(len(r.vals))
	r.vals = append(r.vals, readoutValue[T]{v: x, prob: -1, next: last})
	r.byHash[h] = id
	return id
}

// Package plaindd implements the weight-less decision diagram that the
// paper's Fig. 1b contrasts with the QMDD of Fig. 1c: a QuIDD/ADD-style DAG
// whose terminal nodes carry the distinct complex values and whose edges
// carry no weights. Sub-structures are shared only when they are *equal*,
// not when they merely differ by a scalar factor — quantifying exactly what
// the weighted edges of QMDDs buy (Example 3 of the paper).
package plaindd

import (
	"strconv"
	"strings"

	"repro/internal/coeff"
	"repro/internal/core"
)

// Node is a plain decision-diagram node. Internal nodes (Level ≥ 1) have 2
// (vector) or 4 (matrix) children; terminal nodes (Level 0) carry a value.
type Node[T any] struct {
	ID    uint64
	Level int
	Kids  []*Node[T]
	Val   T // terminals only
}

// Manager hash-conses plain-DD nodes.
type Manager[T any] struct {
	R         coeff.Ring[T]
	unique    map[string]*Node[T]
	terminals map[uint64][]*Node[T] // by R.Hash; R.Equal picks within a bucket
	nextID    uint64
}

// NewManager returns an empty plain-DD manager over the given value ring.
func NewManager[T any](r coeff.Ring[T]) *Manager[T] {
	return &Manager[T]{R: r, unique: make(map[string]*Node[T]), terminals: make(map[uint64][]*Node[T])}
}

// Terminal returns the hash-consed terminal for a value.
func (m *Manager[T]) Terminal(v T) *Node[T] {
	h := m.R.Hash(v)
	for _, n := range m.terminals[h] {
		if m.R.Equal(n.Val, v) {
			return n
		}
	}
	m.nextID++
	n := &Node[T]{ID: m.nextID, Level: 0, Val: v}
	m.terminals[h] = append(m.terminals[h], n)
	return n
}

// MakeNode returns the hash-consed internal node.
func (m *Manager[T]) MakeNode(level int, kids []*Node[T]) *Node[T] {
	var sb strings.Builder
	sb.WriteString(strconv.Itoa(level))
	for _, k := range kids {
		sb.WriteByte(':')
		sb.WriteString(strconv.FormatUint(k.ID, 36))
	}
	key := sb.String()
	if n, ok := m.unique[key]; ok {
		return n
	}
	m.nextID++
	n := &Node[T]{ID: m.nextID, Level: level, Kids: append([]*Node[T]{}, kids...)}
	m.unique[key] = n
	return n
}

// FromQMDD converts a QMDD (vector or matrix diagram over n qubits) into
// the equivalent plain DD by pushing the accumulated edge weights down to
// the terminals. The construction memoizes on (node, accumulated weight),
// so its cost is proportional to the *plain* DD's size, never to the
// exponential dimension.
func FromQMDD[T any](m *Manager[T], qm *core.Manager[T], e core.Edge[T], n int) *Node[T] {
	arity := core.VectorArity
	if e.N != nil {
		arity = len(e.N.E)
	}
	// The memo names an accumulated weight by its terminal's ID; terminals
	// made only for that are unreachable from the result and never counted.
	type memoKey struct {
		node, weight uint64
		level        int
	}
	memo := make(map[memoKey]*Node[T])
	var build func(e core.Edge[T], level int, w T) *Node[T]
	build = func(e core.Edge[T], level int, w T) *Node[T] {
		cw := qm.R.Mul(w, e.W)
		if qm.R.IsZero(cw) {
			// A zero stub spans the remaining levels with the zero terminal.
			z := m.Terminal(qm.R.Zero())
			for l := 1; l <= level; l++ {
				kids := make([]*Node[T], arity)
				for i := range kids {
					kids[i] = z
				}
				z = m.MakeNode(l, kids)
			}
			return z
		}
		if level == 0 {
			return m.Terminal(cw)
		}
		if e.N == nil {
			panic("plaindd: malformed QMDD (nonzero terminal above level 0)")
		}
		key := memoKey{e.N.ID, m.Terminal(cw).ID, level}
		if n, ok := memo[key]; ok {
			return n
		}
		kids := make([]*Node[T], len(e.N.E))
		for i, c := range e.N.E {
			kids[i] = build(c, level-1, cw)
		}
		res := m.MakeNode(level, kids)
		memo[key] = res
		return res
	}
	one := qm.R.One()
	return build(e, n, one)
}

// NodeCount returns the number of distinct nodes (internal + terminal)
// reachable from n — comparable with Edge.NodeCount()+terminals on the
// QMDD side.
func (n *Node[T]) NodeCount() (internal, terminals int) {
	seen := make(map[*Node[T]]struct{})
	var walk func(*Node[T])
	walk = func(x *Node[T]) {
		if _, ok := seen[x]; ok {
			return
		}
		seen[x] = struct{}{}
		if x.Level == 0 {
			terminals++
			return
		}
		internal++
		for _, k := range x.Kids {
			walk(k)
		}
	}
	walk(n)
	return internal, terminals
}

// Value returns the entry at the given index path (vector diagrams: the
// amplitude of basis state idx).
func (n *Node[T]) Value(level int, idx uint64) T {
	cur := n
	for l := level; l >= 1; l-- {
		cur = cur.Kids[(idx>>(l-1))&1]
	}
	return cur.Val
}

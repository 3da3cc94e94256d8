// Package core implements the QMDD (Quantum Multiple-valued Decision
// Diagram) data structure of Niemann et al. generically over the coefficient
// ring of its edge weights, so that the very same diagram code runs with
//
//   - the numerical representation (complex128 + tolerance ε) whose
//     accuracy/compactness trade-off the paper evaluates, and
//   - the proposed exact algebraic representation over Q[ω] / D[ω].
//
// A QMDD node at level l (l = n .. 1 for an n-qubit system) decomposes a
// 2^l × 2^l matrix into its four quadrants (arity 4) or a 2^l state vector
// into its two halves (arity 2); edges carry multiplicative weights, and a
// matrix entry / amplitude is the product of the weights along the
// corresponding root-to-terminal path. Terminal edges have a nil node
// pointer. Edges of weight zero always point directly to the terminal
// ("zero stubs"); apart from those, levels are never skipped.
//
// Nodes are hash-consed in a unique table after normalization, which makes
// the representation canonical: two equal matrices/vectors are represented
// by the identical root edge, so equivalence checking is O(1).
package core

// Edge is a weighted edge of a QMDD: the weight multiplies everything in the
// sub-diagram hanging off N. A nil N is the terminal.
type Edge[T any] struct {
	W T
	N *Node[T]
}

// Node is a QMDD node. E has length 4 for matrix nodes (quadrants in
// row-major order: top-left, top-right, bottom-left, bottom-right — the
// outgoing edges e₀…e₃ of the paper's figures) and length 2 for vector
// nodes (upper and lower half). Nodes are immutable once interned; never
// modify E after creation. The manager allocates a node and its edges as one
// object, with E slicing the edge array that follows the node.
type Node[T any] struct {
	ID    uint64
	Level int
	E     []Edge[T]

	// wids caches the interned weight ID of each outgoing edge and hash the
	// node's unique-table hash over (Level, child IDs, wids). Both are owned
	// by the manager (set in MakeNode, refreshed by Prune) and are not part
	// of the public API.
	wids [MatrixArity]uint32
	hash uint64
}

// Level returns the level of the edge's target (0 for the terminal).
func (e Edge[T]) Level() int {
	if e.N == nil {
		return 0
	}
	return e.N.Level
}

// MatrixArity and VectorArity are the two legal node fan-outs.
const (
	VectorArity = 2
	MatrixArity = 4
)

// NodeCount returns the number of distinct non-terminal nodes reachable from
// e — the "size of the QMDD" metric of the paper's figures.
func (e Edge[T]) NodeCount() int {
	order, _ := walk(e)
	return len(order)
}

// Nodes returns the distinct non-terminal nodes reachable from e, each after
// all of its children (children in edge order, the root last), and each
// node's index in that slice.
func (e Edge[T]) Nodes() (order []*Node[T], pos map[*Node[T]]int) {
	return walk(e)
}

// walk is the one traversal of a diagram's distinct nodes: it returns the
// nodes reachable from the roots children-first (children in edge order,
// roots in argument order) and pos[n], n's index in order, so a pass can
// keep its per-node values in a slice. Its stack is its own, so diagrams of
// any depth stay off the goroutine stack.
func walk[T any](roots ...Edge[T]) (order []*Node[T], pos map[*Node[T]]int) {
	type frame struct {
		n    *Node[T]
		next int // index of the next child edge to descend
	}
	pos = make(map[*Node[T]]int)
	var stack []frame
	// A node enters pos only once placed: the nodes on the stack form one
	// root path, and a DAG never reaches a node on its own path again.
	push := func(n *Node[T]) {
		if _, ok := pos[n]; n != nil && !ok {
			stack = append(stack, frame{n: n})
		}
	}
	for _, r := range roots {
		push(r.N)
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			if top.next < len(top.n.E) {
				top.next++
				push(top.n.E[top.next-1].N)
				continue
			}
			pos[top.n] = len(order)
			order = append(order, top.n)
			stack = stack[:len(stack)-1]
		}
	}
	return order, pos
}

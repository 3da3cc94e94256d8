package core

import (
	"fmt"
	"io"
	"sort"
)

// DOT writes the diagram rooted at e in Graphviz format, with human-readable
// edge weights (weight-1 labels are suppressed, as in the paper's figures).
func (m *Manager[T]) DOT(w io.Writer, e Edge[T], name string) error {
	if _, err := fmt.Fprintf(w, "digraph %q {\n  rankdir=TB;\n  node [shape=circle];\n", name); err != nil {
		return err
	}
	nodes, _ := e.Nodes()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	fmt.Fprintf(w, "  t [shape=box,label=\"1\"];\n")
	fmt.Fprintf(w, "  root [shape=point];\n")
	writeEdge := func(from string, to *Node[T], weight T, label string) {
		dst := "t"
		if to != nil {
			dst = fmt.Sprintf("n%d", to.ID)
		}
		wl := ""
		if !m.R.IsOne(weight) {
			wl = fmt.Sprintf("%v", weight)
		}
		if label != "" && wl != "" {
			wl = label + ": " + wl
		} else if label != "" {
			wl = label
		}
		fmt.Fprintf(w, "  %s -> %s [label=%q];\n", from, dst, wl)
	}
	writeEdge("root", e.N, e.W, "")
	for _, n := range nodes {
		fmt.Fprintf(w, "  n%d [label=\"q%d\"];\n", n.ID, n.Level)
		for i, c := range n.E {
			if m.R.IsZero(c.W) {
				continue // zero stubs drawn as absence, like the paper's figures
			}
			writeEdge(fmt.Sprintf("n%d", n.ID), c.N, c.W, fmt.Sprintf("e%d", i))
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// MaxWeightBitLen returns the largest coefficient bit width over all edge
// weights reachable from e (0 for floating-point rings) — the statistic the
// paper uses to explain the algebraic overhead on GSE.
func (m *Manager[T]) MaxWeightBitLen(e Edge[T]) int {
	best := m.R.BitLen(e.W)
	nodes, _ := e.Nodes()
	for _, n := range nodes {
		for _, c := range n.E {
			if b := m.R.BitLen(c.W); b > best {
				best = b
			}
		}
	}
	return best
}

// TrivialWeightFraction returns the fraction of nonzero reachable edge
// weights that are exactly 1 — the paper observes that the Q[ω] scheme keeps
// at least half of the weights trivial, which is where its run-time edge
// over the GCD scheme comes from.
func (m *Manager[T]) TrivialWeightFraction(e Edge[T]) float64 {
	ones, nonzero := 0, 0
	count := func(w T) {
		if m.R.IsZero(w) {
			return
		}
		nonzero++
		if m.R.IsOne(w) {
			ones++
		}
	}
	count(e.W)
	nodes, _ := e.Nodes()
	for _, n := range nodes {
		for _, c := range n.E {
			count(c.W)
		}
	}
	if nonzero == 0 {
		return 0
	}
	return float64(ones) / float64(nonzero)
}

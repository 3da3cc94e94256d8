package core

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/alg"
)

const deepChainLevels = 150_000

// deepChain builds the deepChainLevels-qubit basis state |0…0⟩: one node per
// level, each with a zero stub as its second child.
func deepChain(m *Manager[alg.Q]) Edge[alg.Q] {
	e := m.OneEdge()
	for l := 1; l <= deepChainLevels; l++ {
		e = m.MakeVectorNode(l, e, m.ZeroEdge())
	}
	return e
}

// TestPruneDeepChain is the regression test for the recursive mark phase of
// Prune: a ≥1e5-level vector diagram must prune cleanly. The goroutine
// stack ceiling is lowered to 8 MiB for the duration so the pre-fix
// per-level mark recursion dies where the node walk stays flat —
// everything else on this path (MakeNode, the survivor rebuild, Stats) is
// iterative and unaffected by the ceiling.
func TestPruneDeepChain(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(8 << 20))

	const depth = deepChainLevels
	m := algManager(NormLeft)
	e := deepChain(m)
	if got := m.Stats().UniqueNodes; got != depth {
		t.Fatalf("built %d nodes, want %d", got, depth)
	}
	// Everything is reachable from the root: the sweep must remove nothing
	// and keep the chain intact.
	if removed := m.Prune(e); removed != 0 {
		t.Fatalf("Prune removed %d reachable nodes", removed)
	}
	if got := m.Stats().UniqueNodes; got != depth {
		t.Fatalf("chain lost nodes across Prune: %d of %d left", got, depth)
	}
	// A root-less prune must also sweep the full depth without recursing.
	if removed := m.Prune(); removed != depth {
		t.Fatalf("root-less Prune removed %d, want %d", removed, depth)
	}
}

// TestDeepChainPasses runs every read-only pass built on the node walk over
// the same chain under the same 8 MiB stack ceiling. Their per-node
// recursions overflowed the goroutine stack at this depth.
func TestDeepChainPasses(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(8 << 20))

	m := algManager(NormLeft)
	e := deepChain(m)
	if got := e.NodeCount(); got != deepChainLevels {
		t.Fatalf("NodeCount = %d, want %d", got, deepChainLevels)
	}
	nodes, pos := e.Nodes()
	if len(nodes) != deepChainLevels || nodes[0].Level != 1 || nodes[len(nodes)-1] != e.N || pos[e.N] != deepChainLevels-1 {
		t.Fatalf("Nodes: %d nodes, want %d children-first with the root last", len(nodes), deepChainLevels)
	}
	if got := m.Norm2(e); got != 1 {
		t.Fatalf("Norm2 = %v, want 1", got)
	}
	if got := m.SupportSize(e, deepChainLevels); got != 1 {
		t.Fatalf("SupportSize = %d, want 1", got)
	}
	s, err := m.NewSampler(e, deepChainLevels)
	if err != nil {
		t.Fatal(err)
	}
	if idx, err := s.Draw(rand.New(rand.NewSource(1))); err != nil || idx != 0 {
		t.Fatalf("Draw = %d, %v; want 0, nil", idx, err)
	}
}

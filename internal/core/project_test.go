package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/alg"
)

func TestProjectBellState(t *testing.T) {
	m := algManager(NormLeft)
	s := alg.QInvSqrt2
	bell := m.FromVector([]alg.Q{s, alg.QZero, alg.QZero, s})
	for _, outcome := range []int{0, 1} {
		proj, p, err := m.Project(bell, 2, 0, outcome)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p-0.5) > 1e-12 {
			t.Fatalf("P(q0=%d) = %v, want 0.5", outcome, p)
		}
		// The projected (unnormalized) state is 1/√2·|oo⟩.
		idx := uint64(0)
		if outcome == 1 {
			idx = 3
		}
		if !m.Amplitude(proj, 2, idx).Equal(s) {
			t.Fatalf("projected amplitude = %v", m.Amplitude(proj, 2, idx))
		}
		// The other branch is gone.
		if !m.Amplitude(proj, 2, 3-idx).IsZero() {
			t.Fatal("projection left the complementary branch alive")
		}
	}
}

func TestProjectOnLowerQubit(t *testing.T) {
	m := algManager(NormLeft)
	// |+⟩ ⊗ |+⟩ ⊗ |0⟩: projecting qubit 1 onto 1 keeps half the mass.
	h := alg.QInvSqrt2
	amps := []alg.Q{
		h.Mul(h), alg.QZero, h.Mul(h), alg.QZero,
		h.Mul(h), alg.QZero, h.Mul(h), alg.QZero,
	}
	v := m.FromVector(amps)
	proj, p, err := m.Project(v, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.5) > 1e-12 {
		t.Fatalf("P = %v", p)
	}
	for i := uint64(0); i < 8; i++ {
		a := m.Amplitude(proj, 3, i)
		if (i>>1)&1 == 1 && i&1 == 0 {
			if !a.Equal(h.Mul(h)) {
				t.Fatalf("amp[%d] = %v", i, a)
			}
		} else if !a.IsZero() {
			t.Fatalf("amp[%d] should be zero, got %v", i, a)
		}
	}
}

func TestProjectProbabilitiesSumToOne(t *testing.T) {
	m := algManager(NormLeft)
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		v := m.FromVector(randQVals(r, 16))
		if m.IsZero(v) {
			continue
		}
		for q := 0; q < 4; q++ {
			_, p0, err0 := m.Project(v, 4, q, 0)
			_, p1, err1 := m.Project(v, 4, q, 1)
			if err0 != nil || err1 != nil {
				t.Fatal(err0, err1)
			}
			if math.Abs(p0+p1-1) > 1e-9 {
				t.Fatalf("P0+P1 = %v for qubit %d", p0+p1, q)
			}
		}
	}
}

func TestProjectZeroVector(t *testing.T) {
	m := algManager(NormLeft)
	proj, p, err := m.Project(m.ZeroEdge(), 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !m.IsZero(proj) || p != 0 {
		t.Fatalf("projection of zero vector: %v, %v", proj, p)
	}
}

func TestPruneKeepsLiveDropsDead(t *testing.T) {
	m := algManager(NormLeft)
	// Build a state, then churn intermediates.
	live := m.BasisState(4, 7)
	for i := uint64(0); i < 16; i++ {
		m.BasisState(4, i) // garbage except idx 7 (shared chains aside)
	}
	before := m.Stats().UniqueNodes
	removed := m.Prune(live)
	after := m.Stats().UniqueNodes
	if removed == 0 || after >= before {
		t.Fatalf("prune removed %d (table %d → %d)", removed, before, after)
	}
	// The live diagram is untouched and still canonical: rebuilding it
	// yields the identical node.
	rebuilt := m.BasisState(4, 7)
	if !m.RootsEqual(rebuilt, live) {
		t.Fatal("prune broke hash-consing identity for live nodes")
	}
	// Operations still work after a prune.
	if !m.RootsEqual(m.Mul(m.Identity(4), live), live) {
		t.Fatal("post-prune multiplication broken")
	}
	st := m.Stats()
	if st.Prunes != 1 || st.PrunedNodes == 0 {
		t.Fatalf("prune stats not recorded: %+v", st)
	}
}

func TestPruneWithNoRootsEmptiesTable(t *testing.T) {
	m := algManager(NormLeft)
	m.BasisState(3, 5)
	m.Prune()
	if m.Stats().UniqueNodes != 0 {
		t.Fatalf("table not emptied: %d", m.Stats().UniqueNodes)
	}
}

// TestProjectMemoizesTargetLevel is the regression test for the unmemoized
// target-level arm of projectRec: a target-level node shared by many parents
// was recombined once per incoming edge, so measure-heavy workloads paid
// O(edges into the target level) extra table lookups instead of O(nodes).
// The state below funnels every block through ONE shared level-1 node, and
// the MakeNode lookup count across a Project must stay within one lookup per
// distinct diagram node.
func TestProjectMemoizesTargetLevel(t *testing.T) {
	m := algManager(NormLeft)
	const n = 6
	// amps[2k] = c_k·1, amps[2k+1] = c_k·2 with distinct c_k: level 1 is a
	// single shared (1,2) node, while every level-2 node above it is distinct.
	amps := make([]alg.Q, 1<<n)
	for k := 0; k < 1<<(n-1); k++ {
		c := alg.NewQ(0, 0, 0, int64(k+1), 0, 1)
		amps[2*k] = c
		amps[2*k+1] = c.Mul(alg.NewQ(0, 0, 0, 2, 0, 1))
	}
	v := m.FromVector(amps)
	nodes := v.NodeCount()

	before := m.Stats().UniqueLookups
	proj, p, err := m.Project(v, n, n-1, 0) // qubit n-1 = level 1, the shared node
	if err != nil {
		t.Fatal(err)
	}
	lookups := m.Stats().UniqueLookups - before
	// One MakeNode per distinct node of the input diagram (plus slack for the
	// projected-root bookkeeping). The pre-fix code pays one extra MakeNode
	// per edge into the shared target node — 2^(n-2) of them here.
	if limit := uint64(nodes + 2); lookups > limit {
		t.Fatalf("Project did %d MakeNode lookups over a %d-node diagram (limit %d): target level not memoized",
			lookups, nodes, limit)
	}
	// Sanity: the projection itself is correct — P(q5=0) = Σc²·1 / Σc²·5.
	if math.Abs(p-0.2) > 1e-12 {
		t.Fatalf("P = %v, want 0.2", p)
	}
	for i := uint64(0); i < 1<<n; i++ {
		a := m.Amplitude(proj, n, i)
		if i%2 == 0 {
			if !a.Equal(amps[i]) {
				t.Fatalf("kept amplitude %d = %v, want %v", i, a, amps[i])
			}
		} else if !a.IsZero() {
			t.Fatalf("projected-out amplitude %d = %v, want 0", i, a)
		}
	}
}

package core

import (
	"math/rand"
	"testing"

	"repro/internal/alg"
	"repro/internal/coeff"
)

// scalarSlotsInUse counts the occupied scalar-table slots.
func scalarSlotsInUse[T any](m *Manager[T]) int {
	n := 0
	for s := range m.st.shards {
		for _, e := range m.st.shards[s].entries {
			if e.op != scalarFree {
				n++
			}
		}
	}
	return n
}

// TestScalarTableOnlyForExactRings: the table exists for Q[ω] and not for
// the float ring, whose results must stay bit-identical to plain ring calls.
func TestScalarTableOnlyForExactRings(t *testing.T) {
	if algManager(NormLeft).st == nil {
		t.Fatal("alg manager has no scalar table")
	}
	for _, eps := range []float64{0, 1e-10} {
		m := numManager(eps)
		if m.st != nil {
			t.Fatalf("float manager (ε=%g) has a scalar table", eps)
		}
		m.Add(m.FromVector([]complex128{1, 2i, 3, 4}), m.FromVector([]complex128{0.5, 1, 1i, 2}))
		if st := m.Stats(); st.ScalarLookups != 0 || st.ScalarHits != 0 {
			t.Fatalf("float manager counted scalar lookups: %+v", st)
		}
	}
}

// TestScalarTableHitsAndPrune: repeated nontrivial products hit; trivial
// ones bypass the table; Prune empties it, resets its counters, and the
// next operation misses.
func TestScalarTableHitsAndPrune(t *testing.T) {
	m := algManager(NormLeft)
	a := alg.NewQ(1, 0, 2, 1, 1, 3)
	b := alg.NewQ(0, 1, 1, -1, 2, 1)
	want := a.Mul(b)
	for i := 0; i < 3; i++ {
		if got := m.arith.Mul(a, b); !got.Equal(want) {
			t.Fatalf("Mul = %v, want %v", got, want)
		}
	}
	if got, want := m.arith.Div(want, b), a; !got.Equal(want) {
		t.Fatalf("Div = %v, want %v", got, want)
	}
	m.arith.Mul(alg.QOne, a) // trivial: bypasses the table
	m.arith.Div(a, alg.QOne)
	st := m.Stats()
	if st.ScalarLookups != 4 || st.ScalarHits != 2 {
		t.Fatalf("after 3 equal products and 1 quotient: %d/%d hits, want 2/4",
			st.ScalarHits, st.ScalarLookups)
	}
	if n := scalarSlotsInUse(m); n != 2 {
		t.Fatalf("%d slots in use, want 2", n)
	}

	m.Prune()
	if st := m.Stats(); st.ScalarLookups != 0 || st.ScalarHits != 0 {
		t.Fatalf("Prune left counters %d/%d", st.ScalarHits, st.ScalarLookups)
	}
	if n := scalarSlotsInUse(m); n != 0 {
		t.Fatalf("Prune left %d slots in use", n)
	}
	if got := m.arith.Mul(a, b); !got.Equal(want) {
		t.Fatalf("post-prune Mul = %v, want %v", got, want)
	}
	if st := m.Stats(); st.ScalarLookups != 1 || st.ScalarHits != 0 {
		t.Fatalf("first product after Prune: %d/%d hits, want a miss", st.ScalarHits, st.ScalarLookups)
	}
}

// TestScalarTableIdenticalDiagrams: random exact diagrams built and summed
// with and without the table (Q[ω] arithmetic that does not declare itself
// exact gets none) come out CrossEqual.
func TestScalarTableIdenticalDiagrams(t *testing.T) {
	with := algManager(NormLeft)
	without := NewManager[alg.Q](unmarkedQ{alg.Ring{}}, NormLeft)
	if without.st != nil {
		t.Fatal("a ring that is not marked exact got a scalar table")
	}
	r1, r2 := rand.New(rand.NewSource(31)), rand.New(rand.NewSource(31))
	acc1, acc2 := with.ZeroEdge(), without.ZeroEdge()
	for i := 0; i < 25; i++ {
		acc1 = with.Add(acc1, with.FromVector(randQVals(r1, 16)))
		acc2 = without.Add(acc2, without.FromVector(randQVals(r2, 16)))
	}
	if !CrossEqual(with, acc1, without, acc2) {
		t.Fatal("the scalar table changed the diagram")
	}
	if st := with.Stats(); st.ScalarHits == 0 {
		t.Fatalf("no scalar hits over 25 additions: %+v", st)
	}
}

// unmarkedQ is Q[ω] arithmetic behind the plain coeff.Ring interface,
// without the coeff.ExactRing marker.
type unmarkedQ struct{ coeff.Ring[alg.Q] }

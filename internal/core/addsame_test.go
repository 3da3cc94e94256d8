package core_test

import (
	"fmt"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/alg"
	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/num"
)

// randomScalarPairs returns seeded exact scalar pairs (a, b) for
// Add(a·N, b·N): random Q[ω] values with small √2 exponents and odd
// denominators, plus the pairs with b = −a and with a = 0.
func randomScalarPairs(r *rand.Rand, count int) [][2]alg.Q {
	rq := func() alg.Q {
		for {
			q := alg.NewQ(r.Int63n(7)-3, r.Int63n(7)-3, r.Int63n(7)-3, r.Int63n(7)-3, r.Intn(4), []int64{1, 3, 5, -7}[r.Intn(4)])
			if !q.IsZero() {
				return q
			}
		}
	}
	var pairs [][2]alg.Q
	for i := 0; i < count; i++ {
		a := rq()
		pairs = append(pairs, [2]alg.Q{a, rq()}, [2]alg.Q{a, a.Neg()}, [2]alg.Q{alg.QZero, a}, [2]alg.Q{a, a})
	}
	return pairs
}

// TestAddSameNode: adding two multiples of one canonical state, a·N + b·N,
// gives (a+b)·N on every ring and normalization scheme, checked against
// the dense simulator. Only an exact ring under left normalization answers
// it with one weight addition and no compute-table lookup; NormMax, NormGCD
// and the float ring at ε = 0 still recurse through the sub-diagram.
func TestAddSameNode(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		n := 3 + int(seed%3)
		c := randomCliffordT(100+seed, n, 12*n)
		ref := dense.New(n)
		if err := ref.Run(c); err != nil {
			t.Fatal(err)
		}
		pairs := randomScalarPairs(rand.New(rand.NewSource(seed)), 4)
		for _, norm := range []core.NormScheme{core.NormLeft, core.NormMax, core.NormGCD} {
			t.Run(fmt.Sprintf("seed%d/alg/%s", seed, norm), func(t *testing.T) {
				m := core.NewManager[alg.Q](alg.Ring{}, norm)
				addSameNode(t, m, simulate(t, m, c), ref, pairs, norm == core.NormLeft)
			})
		}
		t.Run(fmt.Sprintf("seed%d/float0", seed), func(t *testing.T) {
			m := core.NewManager[complex128](num.NewRing(0), core.NormLeft)
			addSameNode(t, m, simulate(t, m, c), ref, pairs, false)
		})
	}
}

func addSameNode[T any](t *testing.T, m *core.Manager[T], s core.Edge[T], ref *dense.State, pairs [][2]alg.Q, shortcut bool) {
	t.Helper()
	if s.N == nil {
		t.Fatal("state is a terminal")
	}
	for _, p := range pairs {
		a, b := m.R.FromQ(p[0]), m.R.FromQ(p[1])
		x, y := m.Scale(s, a), m.Scale(s, b)
		before := m.Stats().CTLookups
		got := m.Add(x, y)
		lookups := m.Stats().CTLookups - before
		sum := p[0].Add(p[1])
		if shortcut {
			if want := m.Scale(s, m.R.FromQ(sum)); !m.RootsEqual(got, want) {
				t.Fatalf("a=%v b=%v: Add gave (%v, %p), want (%v, %p)", p[0], p[1], got.W, got.N, want.W, want.N)
			}
			if lookups != 0 {
				t.Fatalf("a=%v b=%v: %d compute-table lookups, want the one-addition answer", p[0], p[1], lookups)
			}
		} else if !m.IsZero(x) && !m.IsZero(y) && lookups == 0 {
			t.Fatalf("a=%v b=%v: no compute-table lookup, want the recursion", p[0], p[1])
		}
		k := sum.Complex128()
		for idx := range ref.Amp {
			g := m.R.Complex128(m.Amplitude(got, ref.N, uint64(idx)))
			if d := cmplx.Abs(g - k*ref.Amp[idx]); d > 1e-9 {
				t.Fatalf("a=%v b=%v: amplitude %d is %v, dense %v", p[0], p[1], idx, g, k*ref.Amp[idx])
			}
		}
	}
}

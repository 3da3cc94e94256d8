package stab

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/alg"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/sim"
)

func TestInitialState(t *testing.T) {
	tb := New(3)
	for q := 0; q < 3; q++ {
		random, outcome := tb.MeasureIsRandom(q)
		if random || outcome != 0 {
			t.Fatalf("qubit %d of |000⟩ not deterministically 0", q)
		}
	}
	if s := tb.String(); !strings.Contains(s, "+ZII") {
		t.Fatalf("stabilizers of |000⟩: %s", s)
	}
}

func TestBellState(t *testing.T) {
	tb := New(2)
	tb.H(0)
	tb.CX(0, 1)
	// Stabilizers of the Bell state: +XX and +ZZ.
	s := tb.String()
	if !strings.Contains(s, "+XX") || !strings.Contains(s, "+ZZ") {
		t.Fatalf("Bell stabilizers:\n%s", s)
	}
	for q := 0; q < 2; q++ {
		if random, _ := tb.MeasureIsRandom(q); !random {
			t.Fatalf("Bell qubit %d measurement not random", q)
		}
	}
}

func TestPauliGates(t *testing.T) {
	tb := New(1)
	tb.X(0)
	if random, outcome := tb.MeasureIsRandom(0); random || outcome != 1 {
		t.Fatal("X|0⟩ ≠ |1⟩")
	}
	tb.X(0)
	if _, outcome := tb.MeasureIsRandom(0); outcome != 0 {
		t.Fatal("X² ≠ I")
	}
	// Z and Y preserve the computational value on |0⟩ / flip with Y.
	tb2 := New(1)
	tb2.Y(0)
	if _, outcome := tb2.MeasureIsRandom(0); outcome != 1 {
		t.Fatal("Y|0⟩ not |1⟩ up to phase")
	}
}

func TestSAndHRelations(t *testing.T) {
	// H S S H = H Z H = X: |0⟩ → |1⟩.
	tb := New(1)
	tb.H(0)
	tb.S(0)
	tb.S(0)
	tb.H(0)
	if random, outcome := tb.MeasureIsRandom(0); random || outcome != 1 {
		t.Fatal("HZH ≠ X in the tableau")
	}
	// S·S† = I.
	tb2 := New(1)
	tb2.H(0)
	tb2.S(0)
	tb2.Sdg(0)
	tb2.H(0)
	if random, outcome := tb2.MeasureIsRandom(0); random || outcome != 0 {
		t.Fatal("S·S† ≠ I")
	}
}

func TestGHZDeterministicParity(t *testing.T) {
	n := 50 // far beyond dense or decision-diagram-free reach of this test
	tb := New(n)
	tb.H(0)
	for q := 1; q < n; q++ {
		tb.CX(q-1, q)
	}
	for q := 0; q < n; q++ {
		if random, _ := tb.MeasureIsRandom(q); !random {
			t.Fatalf("GHZ qubit %d not random", q)
		}
	}
	if !strings.Contains(tb.String(), strings.Repeat("Z", 2)) {
		t.Fatal("GHZ stabilizers missing ZZ correlations")
	}
}

// TestCrossValidationAgainstQMDD: on random Clifford circuits the exact
// QMDD's qubit marginals and the tableau agree on every single-qubit Z
// expectation.
func TestCrossValidationAgainstQMDD(t *testing.T) {
	r := rand.New(rand.NewSource(130))
	for trial := 0; trial < 10; trial++ {
		n := 4 + r.Intn(3)
		c := circuit.New("clifford", n)
		tb := New(n)
		for g := 0; g < 60; g++ {
			switch r.Intn(5) {
			case 0:
				q := r.Intn(n)
				c.H(q)
				tb.H(q)
			case 1:
				q := r.Intn(n)
				c.S(q)
				tb.S(q)
			case 2:
				a, b := r.Intn(n), r.Intn(n)
				if a == b {
					b = (b + 1) % n
				}
				c.CX(a, b)
				tb.CX(a, b)
			case 3:
				q := r.Intn(n)
				c.X(q)
				tb.X(q)
			default:
				q := r.Intn(n)
				c.Append(circuit.Gate{Name: "z", Target: q})
				tb.Z(q)
			}
		}
		m := core.NewManager[alg.Q](alg.Ring{}, core.NormLeft)
		s := sim.New(m, n)
		if err := s.Run(c, nil); err != nil {
			t.Fatal(err)
		}
		for q := 0; q < n; q++ {
			want := tb.ExpectationZ(q)
			// ⟨Z_q⟩ = P(0) − P(1) = 2·P(0) − 1, with P(0) the outcome
			// probability that qubit measurement uses.
			_, p0, err := m.Project(s.State, n, q, 0)
			if err != nil {
				t.Fatal(err)
			}
			gv := 2*p0 - 1
			if math.Abs(gv-float64(want)) > 1e-9 {
				t.Fatalf("trial %d qubit %d: tableau ⟨Z⟩ = %d, QMDD %v", trial, q, want, gv)
			}
		}
	}
}

// TestLargeCliffordScaling: 200-qubit GHZ-like circuit runs in the tableau
// (and in the QMDD, which stays linear-size) — the paper's compactness
// story on a circuit class where an independent oracle exists.
func TestLargeCliffordScaling(t *testing.T) {
	n := 200
	tb := New(n)
	tb.H(0)
	for q := 1; q < n; q++ {
		tb.CX(q-1, q)
	}
	m := core.NewManager[alg.Q](alg.Ring{}, core.NormLeft)
	c := circuit.New("ghz", n)
	c.H(0)
	for q := 1; q < n; q++ {
		c.CX(q-1, q)
	}
	s := sim.New(m, n)
	if err := s.Run(c, nil); err != nil {
		t.Fatal(err)
	}
	if got := s.State.NodeCount(); got != 2*n-1 {
		t.Fatalf("200-qubit GHZ diagram has %d nodes, want %d", got, 2*n-1)
	}
	// Both oracles agree: every qubit is maximally mixed in Z.
	for q := 0; q < n; q += 37 {
		if tb.ExpectationZ(q) != 0 {
			t.Fatalf("tableau: qubit %d not random", q)
		}
		p := m.Probability(s.State, n, 0) // ⟨0…0|ψ⟩² = 1/2
		if math.Abs(p-0.5) > 1e-12 {
			t.Fatalf("QMDD: P(0…0) = %v", p)
		}
	}
}

func TestApplyDispatch(t *testing.T) {
	tb := New(2)
	for _, g := range []struct {
		name string
		ctl  []int
	}{
		{"h", nil}, {"s", nil}, {"sdg", nil}, {"x", nil}, {"y", nil},
		{"z", nil}, {"id", nil}, {"x", []int{0}}, {"z", []int{0}},
	} {
		target := 1
		if err := tb.Apply(g.name, target, g.ctl); err != nil {
			t.Fatalf("%v rejected: %v", g, err)
		}
	}
	if err := tb.Apply("t", 0, nil); err == nil {
		t.Fatal("T accepted by the stabilizer tableau")
	}
	if err := tb.Apply("x", 2, []int{0, 1}); err == nil {
		t.Fatal("Toffoli accepted by the stabilizer tableau")
	}
}

package load

import (
	"io"
	"strings"
	"testing"

	"repro/internal/alg"
	"repro/internal/algorithms"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/qasm"
	"repro/internal/sim"
)

// stateOf simulates a unitary circuit exactly and returns its state.
func stateOf(t *testing.T, c *circuit.Circuit) (*core.Manager[alg.Q], core.Edge[alg.Q]) {
	t.Helper()
	m := core.NewManager[alg.Q](alg.Ring{}, core.NormLeft)
	s := sim.New(m, c.N)
	if err := s.Run(c, nil); err != nil {
		t.Fatalf("simulating %s: %v", c.Name, err)
	}
	return m, s.State
}

// assertLoweredEquivalent lowers c, round-trips it through the OpenQASM
// writer and parser, simulates both, and requires every original amplitude
// ⟨i|ψ⟩ to equal the lowered state's amplitude at i·2^a (ancillas are the
// low index bits and must end clean in |0⟩).
func assertLoweredEquivalent(t *testing.T, c *circuit.Circuit) {
	t.Helper()
	low, err := Lower(c)
	if err != nil {
		t.Fatalf("Lower(%s): %v", c.Name, err)
	}
	if err := low.Validate(); err != nil {
		t.Fatalf("lowered %s is malformed: %v", c.Name, err)
	}
	var sb strings.Builder
	if err := qasm.Write(&sb, low); err != nil {
		t.Fatalf("lowered %s is still not writable: %v", c.Name, err)
	}
	parsed, err := qasm.Parse(sb.String(), c.Name+"_wire")
	if err != nil {
		t.Fatalf("lowered %s does not re-parse: %v", c.Name, err)
	}

	mOrig, vOrig := stateOf(t, c)
	mLow, vLow := stateOf(t, parsed)
	anc := uint(parsed.N - c.N)
	for i := uint64(0); i < 1<<uint(c.N); i++ {
		a := mOrig.R.Complex128(mOrig.Amplitude(vOrig, c.N, i))
		b := mLow.R.Complex128(mLow.Amplitude(vLow, parsed.N, i<<anc))
		if a != b {
			t.Fatalf("%s: amplitude %d: original %v, lowered %v", c.Name, i, a, b)
		}
	}
}

// TestLowerGrover: the Grover workload (multi-controlled Z, arity n−1)
// survives lowering exactly.
func TestLowerGrover(t *testing.T) {
	c := algorithms.Grover(5, 13, 0)
	if err := qasm.Write(io.Discard, c); err == nil {
		t.Skip("writer grew multi-control support; lowering no longer exercised")
	}
	assertLoweredEquivalent(t, c)
}

// TestLowerBWT: the BWT workload (negative controls, mixed arities)
// survives lowering exactly.
func TestLowerBWT(t *testing.T) {
	assertLoweredEquivalent(t, algorithms.BWT(3, 8))
}

// TestLowerMCXArities: every v-chain shape from 3 to 6 controls, with and
// without negative controls.
func TestLowerMCXArities(t *testing.T) {
	for k := 3; k <= 6; k++ {
		n := k + 1
		c := circuit.New("mcx", n)
		for q := 0; q < n; q++ {
			c.H(q)
		}
		ctrls := make([]circuit.Control, k)
		for i := range ctrls {
			ctrls[i] = circuit.Control{Qubit: i, Neg: i%2 == 1}
		}
		c.Append(circuit.Gate{Name: "x", Target: n - 1, Controls: ctrls})
		c.Append(circuit.Gate{Name: "z", Target: n - 1, Controls: ctrls})
		assertLoweredEquivalent(t, c)
	}
}

// TestLowerControlledPhase: controlled phase-type gates (the BWT workload's
// doubly-controlled T among them) lower through the AND-ancilla trick
// exactly — including in Q[ω], where a cu1 spelling of cT would not even
// simulate.
func TestLowerControlledPhase(t *testing.T) {
	for _, name := range []string{"t", "tdg", "s", "sdg"} {
		for k := 1; k <= 3; k++ {
			n := k + 1
			c := circuit.New(name, n)
			for q := 0; q < n; q++ {
				c.H(q)
			}
			ctrls := make([]circuit.Control, k)
			for i := range ctrls {
				ctrls[i] = circuit.Control{Qubit: i, Neg: i == 0}
			}
			c.Append(circuit.Gate{Name: name, Target: n - 1, Controls: ctrls})
			assertLoweredEquivalent(t, c)
		}
	}
}

// TestLowerPassthrough: an already-expressible circuit comes back unchanged
// — same pointer, no ancillas.
func TestLowerPassthrough(t *testing.T) {
	unitary := circuit.New("plain", 3).H(0).CX(0, 1).CCX(0, 1, 2).T(2)
	assertLoweredEquivalent(t, unitary)
	measured := circuit.New("plain", 3).H(0).CX(0, 1).CCX(0, 1, 2).T(2).
		Append(circuit.Gate{Name: circuit.OpMeasure, Target: 0, Clbit: 0}).
		Append(circuit.Gate{Name: circuit.OpMeasure, Target: 1, Clbit: 1})
	for _, c := range []*circuit.Circuit{unitary, measured} {
		low, err := Lower(c)
		if err != nil {
			t.Fatal(err)
		}
		if low != c {
			t.Fatal("expressible circuit was rewritten")
		}
	}
}

// TestLowerNegativeControls: a single negative control on x, z and a phase
// gate becomes an X-sandwich; only the phase gate, which has no qelib1
// controlled form that stays in Q[ω], takes an AND ancilla.
func TestLowerNegativeControls(t *testing.T) {
	for _, tc := range []struct {
		name     string
		ancillas int
	}{{"x", 0}, {"z", 0}, {"t", 1}} {
		c := circuit.New("neg"+tc.name, 2).H(0).H(1).Append(circuit.Gate{
			Name: tc.name, Target: 1, Controls: []circuit.Control{{Qubit: 0, Neg: true}}})
		assertLoweredEquivalent(t, c)
		if low, _ := Lower(c); low.N-c.N != tc.ancillas {
			t.Errorf("%s: lowering added %d ancillas, want %d", tc.name, low.N-c.N, tc.ancillas)
		}
	}
}

// TestLowerMCZAndMCT: a 3-controlled Z and a t with two positive and one
// negative control in one circuit share the ancilla block.
func TestLowerMCZAndMCT(t *testing.T) {
	c := circuit.New("mc", 4).H(0).H(1).H(2).H(3)
	c.MCZ([]int{0, 1, 2}, 3)
	c.Append(circuit.Gate{Name: "t", Target: 3,
		Controls: []circuit.Control{{Qubit: 0}, {Qubit: 1}, {Qubit: 2, Neg: true}}})
	assertLoweredEquivalent(t, c)
}

// TestLowerPreservesDynamicOps: measure and reset pass through, the
// classical register is kept, every gate a conditioned op lowers into
// carries its condition, and the if survives Write→Parse.
func TestLowerPreservesDynamicOps(t *testing.T) {
	cond := circuit.Cond{Offset: 0, Width: 1, Value: 1}
	c := circuit.New("c", 3).H(0).Append(circuit.Gate{Name: circuit.OpMeasure, Target: 0, Clbit: 0})
	c.Append(circuit.Gate{
		Name: "x", Target: 2,
		Controls: []circuit.Control{{Qubit: 0}, {Qubit: 1, Neg: true}},
		Cond:     &cond,
	})
	c.Append(circuit.Gate{Name: circuit.OpReset, Target: 1})
	out, err := Lower(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("lowered circuit invalid: %v", err)
	}
	if out.Cbits != c.Cbits {
		t.Errorf("lowered Cbits = %d, want %d", out.Cbits, c.Cbits)
	}
	var sb strings.Builder
	if err := qasm.Write(&sb, out); err != nil {
		t.Fatal(err)
	}
	back, err := qasm.Parse(sb.String(), "c")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		c    *circuit.Circuit
	}{{"lowered", out}, {"re-parsed", back}} {
		var measures, resets, conded int
		for i, g := range tc.c.Gates {
			switch {
			case g.IsMeasure():
				measures++
				if g.Clbit != 0 {
					t.Errorf("%s op %d: measure clbit %d, want 0", tc.name, i, g.Clbit)
				}
			case g.IsReset():
				resets++
			}
			if g.Cond != nil {
				if *g.Cond != cond {
					t.Errorf("%s op %d carries cond %+v, want %+v", tc.name, i, *g.Cond, cond)
				}
				conded++
			}
		}
		if measures != 1 || resets != 1 {
			t.Errorf("%s: %d measures, %d resets; want 1, 1", tc.name, measures, resets)
		}
		// The X-sandwich around the negative control is conditioned too:
		// x-flip, ccx, x-flip.
		if conded != 3 {
			t.Errorf("%s: %d gates conditioned, want 3", tc.name, conded)
		}
	}
}

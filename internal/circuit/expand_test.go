package circuit_test

import (
	"math/cmplx"
	"strings"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/circuit"
	"repro/internal/dense"
	"repro/internal/load"
	"repro/internal/qasm"
)

// expandAgrees verifies the multi-control expansion (load.Lower)
// semantically: running the original on n qubits and the expansion on n+a
// qubits (ancillas |0⟩) must give the same state on the original register
// with ancillas returned to |0⟩.
func expandAgrees(t *testing.T, c *circuit.Circuit) *circuit.Circuit {
	t.Helper()
	exp, err := load.Lower(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, g := range exp.Gates {
		limit := 1
		if g.Name == "x" {
			limit = 2
		}
		if len(g.Controls) > limit {
			t.Fatalf("gate %v still has %d controls", g, len(g.Controls))
		}
		for _, ct := range g.Controls {
			if ct.Neg {
				t.Fatalf("gate %v still has a negative control", g)
			}
		}
	}
	sOrig := dense.New(c.N)
	if err := sOrig.Run(c); err != nil {
		t.Fatal(err)
	}
	sExp := dense.New(exp.N)
	if err := sExp.Run(exp); err != nil {
		t.Fatal(err)
	}
	shift := uint(exp.N - c.N)
	for i := range sExp.Amp {
		if uint64(i)&(uint64(1)<<shift-1) != 0 {
			// Ancillas must end in |0⟩: every other amplitude is zero.
			if cmplx.Abs(sExp.Amp[i]) > 1e-12 {
				t.Fatalf("ancilla not returned to |0⟩ at index %d", i)
			}
			continue
		}
		orig := sOrig.Amp[uint64(i)>>shift]
		if cmplx.Abs(sExp.Amp[i]-orig) > 1e-12 {
			t.Fatalf("amplitude %d: expanded %v, original %v", i, sExp.Amp[i], orig)
		}
	}
	return exp
}

func TestExpandPassThrough(t *testing.T) {
	c := circuit.New("simple", 3)
	c.H(0).CX(0, 1).CCX(0, 1, 2).T(2)
	exp := expandAgrees(t, c)
	if exp.N != c.N {
		t.Fatalf("pass-through circuit gained ancillas: %d", exp.N)
	}
	if exp.Len() != c.Len() {
		t.Fatalf("pass-through circuit changed length: %d", exp.Len())
	}
}

func TestExpandMCX(t *testing.T) {
	c := circuit.New("mcx", 5)
	c.X(0).X(1).X(2).X(3) // set all controls
	c.Append(circuit.Gate{Name: "x", Target: 4,
		Controls: []circuit.Control{{Qubit: 0}, {Qubit: 1}, {Qubit: 2}, {Qubit: 3}}})
	exp := expandAgrees(t, c)
	if exp.N <= c.N {
		t.Fatal("MCX expansion needs ancillas")
	}
}

// TestExpandedGroverIsQASMWritable: Grover's oracle uses n−1 controls,
// which plain OpenQASM 2.0 cannot express; after expansion the circuit
// writes and re-parses cleanly.
func TestExpandedGroverIsQASMWritable(t *testing.T) {
	g := algorithms.Grover(5, 17, 1)
	var sb strings.Builder
	if err := qasm.Write(&sb, g); err == nil {
		t.Fatal("unexpanded Grover should not be writable")
	}
	exp := expandAgrees(t, g)
	sb.Reset()
	if err := qasm.Write(&sb, exp); err != nil {
		t.Fatal(err)
	}
	back, err := qasm.Parse(sb.String(), "grover")
	if err != nil {
		t.Fatal(err)
	}
	// Same dense evolution after the round trip.
	s1 := dense.New(exp.N)
	if err := s1.Run(exp); err != nil {
		t.Fatal(err)
	}
	s2 := dense.New(back.N)
	if err := s2.Run(back); err != nil {
		t.Fatal(err)
	}
	if d := s1.Distance(s2); d > 1e-9 {
		t.Fatalf("QASM round trip of the expansion drifted by %v", d)
	}
}

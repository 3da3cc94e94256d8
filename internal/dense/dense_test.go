package dense

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/circuit"
)

func TestNewIsGroundState(t *testing.T) {
	s := New(3)
	if s.Amp[0] != 1 {
		t.Fatal("initial amplitude not 1")
	}
	if s.Norm2() != 1 {
		t.Fatal("initial norm not 1")
	}
}

func TestHadamardOnEachQubit(t *testing.T) {
	// H on qubit q splits the amplitude between index bit n−1−q.
	for q := 0; q < 3; q++ {
		s := New(3)
		c := circuit.New("h", 3)
		c.H(q)
		if err := s.Run(c); err != nil {
			t.Fatal(err)
		}
		hi := uint64(1) << uint(3-1-q)
		want := complex(1/math.Sqrt2, 0)
		if cmplx.Abs(s.Amp[0]-want) > 1e-15 || cmplx.Abs(s.Amp[hi]-want) > 1e-15 {
			t.Fatalf("H on q%d gave %v", q, s.Amp)
		}
	}
}

func TestControlsRespectPolarity(t *testing.T) {
	// Negative-control X fires on |0⟩ controls only.
	c := circuit.New("ncx", 2)
	c.Append(circuit.Gate{Name: "x", Target: 1,
		Controls: []circuit.Control{{Qubit: 0, Neg: true}}})
	s := New(2)
	if err := s.Run(c); err != nil {
		t.Fatal(err)
	}
	if s.Probability(1) < 0.999 { // |00⟩ → |01⟩
		t.Fatalf("neg-control X wrong: %v", s.Amp)
	}
	// Start from |10⟩: control is |1⟩, so nothing happens.
	s2 := New(2)
	s2.Amp[0], s2.Amp[2] = 0, 1
	if err := s2.Run(c); err != nil {
		t.Fatal(err)
	}
	if s2.Probability(2) < 0.999 {
		t.Fatalf("neg-control X fired on |1⟩ control: %v", s2.Amp)
	}
}

func TestUnitarityOnRandomish(t *testing.T) {
	c := circuit.New("mix", 3)
	c.H(0).T(1).CX(0, 2).Append(circuit.Gate{Name: "ry", Target: 1, Params: []float64{0.7}}).
		CCX(0, 1, 2).Append(circuit.Gate{Name: "rz", Target: 0, Params: []float64{-1.1}}).
		P(0.4, 2)
	s := New(3)
	if err := s.Run(c); err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Norm2()-1) > 1e-12 {
		t.Fatalf("norm drifted: %v", s.Norm2())
	}
}

func TestFromVectorAndDistance(t *testing.T) {
	a := FromVector([]complex128{1, 0, 0, 0})
	b := FromVector([]complex128{0, 1, 0, 0})
	if d := a.Distance(b); math.Abs(d-math.Sqrt2) > 1e-12 {
		t.Fatalf("distance = %v, want √2", d)
	}
	if d := a.Distance(a); d != 0 {
		t.Fatalf("self distance %v", d)
	}
}

func TestRunRejectsMismatch(t *testing.T) {
	s := New(2)
	if err := s.Run(circuit.New("c", 3)); err == nil {
		t.Fatal("qubit mismatch accepted")
	}
	bad := circuit.New("bad", 2)
	bad.Append(circuit.Gate{Name: "frob", Target: 0})
	if err := s.Run(bad); err == nil {
		t.Fatal("unknown gate accepted")
	}
}

func TestFromVectorValidatesLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two length accepted")
		}
	}()
	FromVector(make([]complex128, 3))
}

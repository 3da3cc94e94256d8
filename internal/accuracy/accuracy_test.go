package accuracy

import (
	"math"
	"testing"

	"repro/internal/alg"
	"repro/internal/core"
	"repro/internal/num"
)

func TestVectorErrorExactMatch(t *testing.T) {
	s := 1 / math.Sqrt2
	numAmps := []complex128{complex(s, 0), 0, 0, complex(s, 0)}
	algAmps := []alg.Q{alg.QInvSqrt2, alg.QZero, alg.QZero, alg.QInvSqrt2}
	// The float64 1/√2 is within one ulp of the exact value; after
	// renormalization the distance must sit at the double-precision floor.
	if e := VectorError(numAmps, algAmps); e > 1e-15 {
		t.Fatalf("error %v for the correctly rounded Bell state", e)
	}
}

func TestVectorErrorDetectsSmallPerturbation(t *testing.T) {
	s := 1 / math.Sqrt2
	delta := 1e-9
	numAmps := []complex128{complex(s+delta, 0), 0, 0, complex(s-delta, 0)}
	algAmps := []alg.Q{alg.QInvSqrt2, alg.QZero, alg.QZero, alg.QInvSqrt2}
	e := VectorError(numAmps, algAmps)
	// The perturbation is anti-symmetric, so renormalization cannot hide it:
	// ‖diff‖ ≈ √2·δ.
	if e < delta/2 || e > 3*delta {
		t.Fatalf("error %v, want ≈ %v", e, math.Sqrt2*delta)
	}
}

func TestVectorErrorRenormalizes(t *testing.T) {
	// A pure length error must vanish (paper footnote 8: fixable).
	s := 1 / math.Sqrt2
	numAmps := []complex128{complex(3*s, 0), 0, 0, complex(3*s, 0)}
	algAmps := []alg.Q{alg.QInvSqrt2, alg.QZero, alg.QZero, alg.QInvSqrt2}
	if e := VectorError(numAmps, algAmps); e > 1e-15 {
		t.Fatalf("length-only error not renormalized away: %v", e)
	}
}

func TestVectorErrorZeroVector(t *testing.T) {
	numAmps := []complex128{0, 0}
	algAmps := []alg.Q{alg.QOne, alg.QZero}
	if e := VectorError(numAmps, algAmps); math.Abs(e-1) > 1e-12 {
		t.Fatalf("zero-vector error = %v, want 1 (the exact state's norm)", e)
	}
}

func TestVectorErrorOrthogonalStates(t *testing.T) {
	numAmps := []complex128{1, 0}
	algAmps := []alg.Q{alg.QZero, alg.QOne}
	if e := VectorError(numAmps, algAmps); math.Abs(e-math.Sqrt2) > 1e-12 {
		t.Fatalf("orthogonal error = %v, want √2", e)
	}
}

func TestVectorErrorDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch accepted")
		}
	}()
	VectorError([]complex128{1}, []alg.Q{alg.QOne, alg.QZero})
}

func TestStateErrorOnDiagrams(t *testing.T) {
	mA := core.NewManager[alg.Q](alg.Ring{}, core.NormLeft)
	mN := core.NewManager[complex128](num.NewRing(0), core.NormLeft)
	vA := mA.BasisState(3, 5)
	vN := mN.BasisState(3, 5)
	if e := VectorError(mN.ToVector(vN, 3), mA.ToVector(vA, 3)); e != 0 {
		t.Fatalf("identical basis states differ by %v", e)
	}
	vN2 := mN.BasisState(3, 4)
	if e := VectorError(mN.ToVector(vN2, 3), mA.ToVector(vA, 3)); math.Abs(e-math.Sqrt2) > 1e-12 {
		t.Fatalf("distinct basis states differ by %v, want √2", e)
	}
}

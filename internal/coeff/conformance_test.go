package coeff_test

import (
	"testing"

	"repro/internal/alg"
	"repro/internal/coeff"
	"repro/internal/num"
)

// Compile-time interface checks: the two coefficient systems implement the
// abstractions the QMDD core consumes.
var (
	_ coeff.Ring[alg.Q]      = alg.Ring{}
	_ coeff.GCDRing[alg.Q]   = alg.Ring{}
	_ coeff.Ring[complex128] = (*num.Ring)(nil)
)

func algSamples() []alg.Q {
	return []alg.Q{
		alg.QZero,
		alg.QOne,
		alg.QMinusOne,
		alg.QI,
		alg.QInvSqrt2,
		alg.QFromD(alg.DOmegaVal),
		alg.NewQ(1, -2, 3, 4, 2, 1),
		alg.NewQ(0, 0, 0, 1, 0, 3), // 1/3
		alg.NewQ(-5, 7, 0, 2, -3, 9),
	}
}

func TestAlgRingConformance(t *testing.T) {
	if err := coeff.CheckRing[alg.Q](alg.Ring{}, algSamples(), 0); err != nil {
		t.Fatal(err)
	}
}

func TestNumRingConformance(t *testing.T) {
	r := num.NewRing(0)
	samples := []complex128{0, 1, -1, 1i, complex(0.7071067811865476, 0),
		complex(0.25, -0.5), complex(-3, 4)}
	if err := coeff.CheckRing[complex128](r, samples, 1e-12); err != nil {
		t.Fatal(err)
	}
}

func TestNumRingConformanceWithTolerance(t *testing.T) {
	r := num.NewRing(1e-10)
	samples := []complex128{0, 1, -1, 1i, complex(0.5, 0.25), complex(-0.125, 2)}
	if err := coeff.CheckRing[complex128](r, samples, 1e-9); err != nil {
		t.Fatal(err)
	}
}

// brokenRing violates commutativity of addition; CheckRing must notice a
// law violation when handed a defective implementation.
type brokenRing struct{ *num.Ring }

func (b brokenRing) Add(x, y complex128) complex128 { return x - y }

func TestCheckRingDetectsViolations(t *testing.T) {
	b := brokenRing{Ring: num.NewRing(0)}
	samples := []complex128{0, 1, 2i}
	if err := coeff.CheckRing[complex128](b, samples, 1e-12); err == nil {
		t.Fatal("broken ring passed conformance")
	}
}

// TestFloatsAreNotDistributive documents the paper's Section III point at
// the law level: with ε = 0 (bit-exact comparison), complex128 arithmetic
// is not even distributive — the exact algebraic ring is. In float64,
// 0.1·(0.1+0.3) = 0.04000000000000001 but 0.1·0.1 + 0.1·0.3 = 0.04.
func TestFloatsAreNotDistributive(t *testing.T) {
	r := num.NewRing(0)
	a, b, c := complex(0.1, 0), complex(0.1, 0), complex(0.3, 0)
	lhs := r.Mul(a, r.Add(b, c))
	rhs := r.Add(r.Mul(a, b), r.Mul(a, c))
	if r.Equal(lhs, rhs) {
		t.Fatalf("a·(b+c) = %v equals a·b + a·c = %v at ε = 0; the triple should not distribute", lhs, rhs)
	}
	// The exact ring distributes.
	x := alg.QInvSqrt2
	y := alg.NewQ(0, 0, 0, 1, 0, 5) // 1/5 (any exact value)
	l := x.Mul(x.Add(y))
	rr := x.Mul(x).Add(x.Mul(y))
	if !l.Equal(rr) {
		t.Fatal("exact ring failed distributivity?!")
	}
}

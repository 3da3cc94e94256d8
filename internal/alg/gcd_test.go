package alg

import (
	"math/big"
	"math/rand"
	"testing"
)

// TestExample9 reproduces the paper's Example 9: α = 2ω³ + 3ω² + 2ω + 4 has
// non-minimal norm 33 + 12√2 (derived pairs (33,12) and (24,33)); the
// associate reached via the unit (ω − 1) has the minimal norm 42 − 9√2 with
// derived pair (9, 21).
//
// Note a typo in the paper's printed coefficients: it gives
// α·(ω−1) = −2ω³ + ω² − ω − 6, which is the complex CONJUGATE of the true
// product ω³ − ω² + 2ω − 6 (the conjugate is not even an associate of α, as
// their quotient has unit modulus but is not a root of unity). We assert the
// mathematically correct values; the norm 42 − 9√2 matches the paper either
// way, since conjugation preserves it.
func TestExample9(t *testing.T) {
	alpha := CanonD(NewZomega(2, 3, 2, 4), 0)
	n := alpha.W.Norm()
	if !n.Equal(Zroot2{big.NewInt(33), big.NewInt(12)}) {
		t.Fatalf("N(α) = %v, want 33 + 12√2", n)
	}
	assoc := alpha.W.Mul(NewZomega(0, 0, 1, -1)) // α·(ω − 1)
	if !assoc.Equal(NewZomega(1, -1, 2, -6)) {
		t.Fatalf("α·(ω−1) = %v, want ω³ − ω² + 2ω − 6", assoc)
	}
	if !assoc.Norm().Equal(Zroot2{big.NewInt(42), big.NewInt(-9)}) {
		t.Fatalf("N(α·(ω−1)) = %v, want 42 − 9√2", assoc.Norm())
	}
	zc, unit := CanonicalAssociate(alpha)
	// Rotation canonicalization of the minimal-norm associate: abs quadruple
	// (1,1,2,6) with positive d picks −ω³ + ω² − 2ω + 6.
	want := CanonD(NewZomega(-1, 1, -2, 6), 0)
	if !zc.Equal(want) {
		t.Fatalf("canonical associate = %v, want %v", zc, want)
	}
	if !zc.W.Norm().Equal(Zroot2{big.NewInt(42), big.NewInt(-9)}) {
		t.Fatalf("canonical associate norm = %v, want 42 − 9√2", zc.W.Norm())
	}
	if !alpha.Mul(unit).Equal(zc) {
		t.Fatalf("α·unit = %v ≠ canonical associate %v", alpha.Mul(unit), zc)
	}
}

// TestCanonicalAssociateIsCanonical: all associates of a value canonicalize
// to the same representative.
func TestCanonicalAssociateIsCanonical(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	units := []D{
		DOne, DInvSqrt2, DSqrt2, DOmegaVal, DOmegaPow(3), DMinusOne,
		lambda, lambdaInv, lambda.Mul(lambda), lambda.Mul(DOmegaPow(5)),
	}
	for i := 0; i < 60; i++ {
		z := randD(r, 8, 2)
		if z.IsZero() {
			continue
		}
		base, _ := CanonicalAssociate(z)
		for _, u := range units {
			got, _ := CanonicalAssociate(z.Mul(u))
			if !got.Equal(base) {
				t.Fatalf("associates of %v canonicalize differently: %v (via %v) vs %v",
					z, got, u, base)
			}
		}
	}
}

// TestCanonicalAssociateProperties checks the paper's properties (a) and the
// unit relation.
func TestCanonicalAssociateProperties(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for i := 0; i < 100; i++ {
		z := randD(r, 10, 3)
		if z.IsZero() {
			continue
		}
		zc, unit := CanonicalAssociate(z)
		if zc.K != 0 {
			t.Fatalf("canonical associate %v has k = %d, want 0", zc, zc.K)
		}
		if !z.Mul(unit).Equal(zc) {
			t.Fatalf("z·unit ≠ zc")
		}
		// unit must be invertible in D[ω].
		if _, ok := DOne.DivE(unit); !ok {
			t.Fatalf("returned unit %v is not a D[ω] unit", unit)
		}
		// d coefficient of the canonical associate is non-negative.
		if zc.W.D.Sign() < 0 {
			t.Fatalf("canonical associate %v has negative d", zc)
		}
	}
}

func TestAdjustGCD(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 60; i++ {
		g := randD(r, 5, 1)
		w := randD(r, 5, 1)
		if g.IsZero() || w.IsZero() {
			continue
		}
		wi := w.Mul(g) // g divides wi by construction
		g2 := AdjustGCD(g, wi)
		z, ok := wi.DivE(g2)
		if !ok {
			t.Fatalf("adjusted gcd %v does not divide %v", g2, wi)
		}
		want, _ := CanonicalAssociate(w)
		if !z.Equal(want) {
			t.Fatalf("wi/g' = %v, want canonical associate %v", z, want)
		}
	}
}

func TestCanonicalAssociateZero(t *testing.T) {
	zc, unit := CanonicalAssociate(DZero)
	if !zc.IsZero() || !unit.IsOne() {
		t.Fatalf("CanonicalAssociate(0) = %v, %v", zc, unit)
	}
}

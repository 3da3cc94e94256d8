package alg

import (
	"math/big"
	"math/cmplx"
	"math/rand"
	"testing"
)

// randZomega generates small random ring elements for property tests.
func randZomega(r *rand.Rand, bound int64) Zomega {
	v := func() int64 { return r.Int63n(2*bound+1) - bound }
	return NewZomega(v(), v(), v(), v())
}

func TestOmegaPowers(t *testing.T) {
	w := ZomegaW
	w2 := w.Mul(w)
	if !w2.Equal(ZomegaI) {
		t.Fatalf("ω² = %v, want i", w2)
	}
	w4 := w2.Mul(w2)
	if !w4.Equal(ZomegaOne.Neg()) {
		t.Fatalf("ω⁴ = %v, want −1", w4)
	}
	w8 := w4.Mul(w4)
	if !w8.Equal(ZomegaOne) {
		t.Fatalf("ω⁸ = %v, want 1", w8)
	}
}

func TestSqrt2Identities(t *testing.T) {
	s := ZomegaSqrt2
	if got := s.Mul(s); !got.Equal(NewZomega(0, 0, 0, 2)) {
		t.Fatalf("√2·√2 = %v, want 2", got)
	}
	// √2 = ω − ω³ and also ω + ω̄ (ω̄ = −ω³).
	alt := ZomegaW.Add(ZomegaW.Conj())
	if !alt.Equal(s) {
		t.Fatalf("ω + ω̄ = %v, want √2", alt)
	}
}

func TestMulSqrt2MatchesMul(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		z := randZomega(r, 50)
		if got, want := z.MulSqrt2(), z.Mul(ZomegaSqrt2); !got.Equal(want) {
			t.Fatalf("MulSqrt2(%v) = %v, want %v", z, got, want)
		}
	}
}

func TestDivSqrt2RoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		z := randZomega(r, 50)
		up := z.MulSqrt2()
		down, ok := up.DivSqrt2()
		if !ok {
			t.Fatalf("DivSqrt2 of √2·%v not exact", z)
		}
		if !down.Equal(z) {
			t.Fatalf("DivSqrt2(MulSqrt2(%v)) = %v", z, down)
		}
	}
}

func TestConjInvolutionAndAutomorphism(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		x, y := randZomega(r, 20), randZomega(r, 20)
		if !x.Conj().Conj().Equal(x) {
			t.Fatalf("conj not an involution on %v", x)
		}
		// Conjugation is a ring automorphism.
		if !x.Mul(y).Conj().Equal(x.Conj().Mul(y.Conj())) {
			t.Fatalf("conj(xy) ≠ conj(x)conj(y) for %v, %v", x, y)
		}
		if !x.Add(y).Conj().Equal(x.Conj().Add(y.Conj())) {
			t.Fatalf("conj(x+y) ≠ conj(x)+conj(y)")
		}
	}
}

func TestRingAxioms(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		x, y, z := randZomega(r, 15), randZomega(r, 15), randZomega(r, 15)
		if !x.Mul(y).Equal(y.Mul(x)) {
			t.Fatalf("multiplication not commutative: %v, %v", x, y)
		}
		if !x.Mul(y.Mul(z)).Equal(x.Mul(y).Mul(z)) {
			t.Fatalf("multiplication not associative")
		}
		if !x.Mul(y.Add(z)).Equal(x.Mul(y).Add(x.Mul(z))) {
			t.Fatalf("distributivity fails")
		}
		if !x.Mul(ZomegaOne).Equal(x) {
			t.Fatalf("1 not neutral")
		}
		if !x.Add(x.Neg()).IsZero() {
			t.Fatalf("x + (−x) ≠ 0")
		}
	}
}

func TestMulMatchesComplex(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		x, y := randZomega(r, 10), randZomega(r, 10)
		got := x.Mul(y).Complex128()
		want := x.Complex128() * y.Complex128()
		if cmplx.Abs(got-want) > 1e-8 {
			t.Fatalf("Mul(%v,%v) ≈ %v, want %v", x, y, got, want)
		}
	}
}

func TestNormIsSquaredMagnitude(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 200; i++ {
		z := randZomega(r, 10)
		n := z.Norm()
		f, _ := n.Float(64).Float64()
		c := z.Complex128()
		want := real(c)*real(c) + imag(c)*imag(c)
		if diff := f - want; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("N(%v) ≈ %v, want |z|² = %v", z, f, want)
		}
	}
}

func TestNormMultiplicative(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		x, y := randZomega(r, 12), randZomega(r, 12)
		if !x.Mul(y).Norm().Equal(x.Norm().Mul(y.Norm())) {
			t.Fatalf("N not multiplicative on %v, %v", x, y)
		}
	}
}

func TestEuclidFunctionMultiplicative(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 200; i++ {
		x, y := randZomega(r, 12), randZomega(r, 12)
		e := new(big.Int).Mul(x.Euclid(), y.Euclid())
		if x.Mul(y).Euclid().Cmp(e) != 0 {
			t.Fatalf("E not multiplicative on %v, %v", x, y)
		}
	}
}

func TestContentAndDivExactInt(t *testing.T) {
	z := NewZomega(6, -9, 12, 3)
	if got := z.Content(); got.Cmp(big.NewInt(3)) != 0 {
		t.Fatalf("Content = %v, want 3", got)
	}
	q := z.DivExactInt(big.NewInt(3))
	if !q.Equal(NewZomega(2, -3, 4, 1)) {
		t.Fatalf("DivExactInt = %v", q)
	}
	if got := ZomegaZero.Content(); got.Sign() != 0 {
		t.Fatalf("Content(0) = %v, want 0", got)
	}
}

func TestMulOmegaPow(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		z := randZomega(r, 10)
		if !z.MulOmegaPow(8).Equal(z) {
			t.Fatalf("ω⁸ rotation not identity")
		}
		if !z.MulOmegaPow(4).Equal(z.Neg()) {
			t.Fatalf("ω⁴ rotation not negation")
		}
		if !z.MulOmegaPow(-1).MulOmegaPow(1).Equal(z) {
			t.Fatalf("ω rotation inverse broken")
		}
		if !z.MulOmegaPow(3).Equal(z.Mul(ZomegaOne.MulOmegaPow(3))) {
			t.Fatalf("rotation disagrees with multiplication")
		}
	}
}

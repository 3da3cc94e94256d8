package alg

import (
	"math/cmplx"
	"math/rand"
	"testing"
)

func randD(r *rand.Rand, bound int64, kRange int) D {
	z := randZomega(r, bound)
	k := r.Intn(2*kRange+1) - kRange
	return CanonD(z, k)
}

// TestAlgorithm1Examples reproduces the paper's Examples 6 and 7: the number
// √2 has representations with k ∈ {−1, 0, 1} and the minimal one is
// (0,0,0,1) with k = −1.
func TestAlgorithm1Examples(t *testing.T) {
	// k = 1 representation: (1/√2)·2
	d1 := CanonD(NewZomega(0, 0, 0, 2), 1)
	// k = 0 representation: −ω³ + ω
	d2 := CanonD(NewZomega(-1, 0, 1, 0), 0)
	// k = −1 representation: (1/√2)^{−1}·1 = √2
	d3 := CanonD(NewZomega(0, 0, 0, 1), -1)
	if !d1.Equal(d3) || !d2.Equal(d3) {
		t.Fatalf("√2 representations disagree: %v, %v, %v", d1, d2, d3)
	}
	if d3.K != -1 || !d3.W.IsOne() {
		t.Fatalf("canonical √2 = %v, want k=−1, coeffs (0,0,0,1)", d3)
	}
	if !DSqrt2.Equal(d3) {
		t.Fatalf("DSqrt2 constant = %v", DSqrt2)
	}
}

// TestAlgorithm1Minimality checks the constructive criterion: a canonical
// nonzero D has a ≢ c (mod 2) or b ≢ d (mod 2).
func TestAlgorithm1Minimality(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for i := 0; i < 500; i++ {
		d := randD(r, 30, 6)
		if d.IsZero() {
			continue
		}
		if parityEq(d.W.A, d.W.C) && parityEq(d.W.B, d.W.D) {
			t.Fatalf("canonical form %v violates minimality criterion", d)
		}
	}
}

// TestCanonDPreservesValue verifies that canonicalization never changes the
// complex value.
func TestCanonDPreservesValue(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		z := randZomega(r, 20)
		k := r.Intn(9) - 4
		d := CanonD(z, k)
		want := z.Complex128()
		// scale by (1/√2)^k
		for j := 0; j < k; j++ {
			want /= complex(1.4142135623730951, 0)
		}
		for j := 0; j > k; j-- {
			want *= complex(1.4142135623730951, 0)
		}
		if cmplx.Abs(d.Complex128()-want) > 1e-8*(1+cmplx.Abs(want)) {
			t.Fatalf("CanonD(%v, %d) = %v ≈ %v, want %v", z, k, d, d.Complex128(), want)
		}
	}
}

func TestDArithmeticMatchesComplex(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 300; i++ {
		x, y := randD(r, 8, 3), randD(r, 8, 3)
		cx, cy := x.Complex128(), y.Complex128()
		checks := []struct {
			name string
			got  D
			want complex128
		}{
			{"add", x.Add(y), cx + cy},
			{"sub", x.Sub(y), cx - cy},
			{"mul", x.Mul(y), cx * cy},
			{"neg", x.Neg(), -cx},
			{"conj", x.Conj(), cmplx.Conj(cx)},
		}
		for _, c := range checks {
			if cmplx.Abs(c.got.Complex128()-c.want) > 1e-7*(1+cmplx.Abs(c.want)) {
				t.Fatalf("%s(%v, %v) = %v, want %v", c.name, x, y, c.got.Complex128(), c.want)
			}
		}
	}
}

func TestDCanonicalEquality(t *testing.T) {
	// The same value constructed along different routes must be structurally
	// identical — the property that lets the algebraic QMDD detect every
	// redundancy.
	a := DInvSqrt2.Mul(DInvSqrt2) // 1/2
	b := DHalf
	if !a.Equal(b) || a.Key() != b.Key() {
		t.Fatalf("(1/√2)² = %v ≠ 1/2 = %v", a, b)
	}
	// ω − ω³ = √2
	c := DOmegaVal.Sub(DOmegaPow(3))
	if !c.Equal(DSqrt2) {
		t.Fatalf("ω − ω³ = %v, want √2", c)
	}
	// (1+i)/√2 = ω
	d := DOne.Add(DI).Mul(DInvSqrt2)
	if !d.Equal(DOmegaVal) {
		t.Fatalf("(1+i)/√2 = %v, want ω", d)
	}
}

func TestDivE(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 300; i++ {
		x, y := randD(r, 8, 3), randD(r, 8, 3)
		if y.IsZero() {
			continue
		}
		p := x.Mul(y)
		q, ok := p.DivE(y)
		if !ok {
			t.Fatalf("(x·y)/y not exact for x=%v y=%v", x, y)
		}
		if !q.Equal(x) {
			t.Fatalf("(x·y)/y = %v, want %v", q, x)
		}
	}
	// 1/3 is not in D[ω].
	if _, ok := DOne.DivE(CanonD(NewZomega(0, 0, 0, 3), 0)); ok {
		t.Fatal("1/3 reported as exact in D[ω]")
	}
	// Division by zero fails cleanly.
	if _, ok := DOne.DivE(DZero); ok {
		t.Fatal("division by zero reported as exact")
	}
	// Dividing by a unit is always exact.
	if _, ok := CanonD(NewZomega(0, 0, 0, 7), 0).DivE(DInvSqrt2); !ok {
		t.Fatal("division by the unit 1/√2 not exact")
	}
}

func TestDKeyUniqueness(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	seen := make(map[string]D)
	for i := 0; i < 500; i++ {
		d := randD(r, 6, 2)
		if prev, ok := seen[d.Key()]; ok {
			if !prev.Equal(d) {
				t.Fatalf("key collision between %v and %v", prev, d)
			}
			continue
		}
		seen[d.Key()] = d
	}
}

package alg

import (
	"math/big"
	"math/cmplx"
	"math/rand"
	"testing"
)

func randQ(r *rand.Rand, bound int64, kRange int, denBound int64) Q {
	den := r.Int63n(denBound) + 1
	return canonQ(randZomega(r, bound), r.Intn(2*kRange+1)-kRange, big.NewInt(den))
}

// TestExample8 reproduces the paper's Example 8: z = 1 + i√2 has norm 3 and
// inverse (1 − i√2)/3.
func TestExample8(t *testing.T) {
	i := DI
	z := DOne.Add(i.Mul(DSqrt2))
	n := z.W.Norm()
	if f, _ := n.Float(64).Float64(); f != 3 {
		t.Fatalf("N(1+i√2) = %v, want 3", n)
	}
	q := QFromD(z)
	inv := QOne.Div(q)
	want := QFromD(DOne.Sub(i.Mul(DSqrt2)))
	want = Q{want.N, big.NewInt(1)}
	// (1 − i√2)/3
	wantQ := canonQ(want.N.W, want.N.K, big.NewInt(3))
	if !inv.Equal(wantQ) {
		t.Fatalf("(1+i√2)⁻¹ = %v, want %v", inv, wantQ)
	}
	if !q.Mul(inv).IsOne() {
		t.Fatalf("z·z⁻¹ = %v, want 1", q.Mul(inv))
	}
}

func TestQInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for i := 0; i < 500; i++ {
		q := randQ(r, 20, 4, 40)
		if q.E.Sign() <= 0 {
			t.Fatalf("denominator not positive: %v", q)
		}
		if q.E.Bit(0) == 0 {
			t.Fatalf("denominator not odd: %v", q)
		}
		if q.IsZero() {
			continue
		}
		g := new(big.Int).GCD(nil, nil, q.N.W.Content(), q.E)
		if g.Cmp(bigOne) != 0 {
			t.Fatalf("representation not reduced: %v (gcd %v)", q, g)
		}
	}
}

func TestQFieldAxioms(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 300; i++ {
		x, y, z := randQ(r, 8, 2, 9), randQ(r, 8, 2, 9), randQ(r, 8, 2, 9)
		if !x.Add(y).Equal(y.Add(x)) {
			t.Fatal("addition not commutative")
		}
		if !x.Mul(y.Add(z)).Equal(x.Mul(y).Add(x.Mul(z))) {
			t.Fatalf("distributivity fails: %v %v %v", x, y, z)
		}
		if !x.Mul(y.Mul(z)).Equal(x.Mul(y).Mul(z)) {
			t.Fatal("multiplication not associative")
		}
		if !x.Add(x.Neg()).IsZero() {
			t.Fatal("x + (−x) ≠ 0")
		}
		if !x.IsZero() {
			if inv := QOne.Div(x); !x.Mul(inv).IsOne() {
				t.Fatalf("x·x⁻¹ ≠ 1 for %v (inv %v, product %v)", x, inv, x.Mul(inv))
			}
		}
		if !y.IsZero() {
			if !x.Div(y).Mul(y).Equal(x) {
				t.Fatalf("(x/y)·y ≠ x for %v / %v", x, y)
			}
		}
	}
}

func TestQArithmeticMatchesComplex(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for i := 0; i < 300; i++ {
		x, y := randQ(r, 6, 2, 9), randQ(r, 6, 2, 9)
		cx, cy := x.Complex128(), y.Complex128()
		if got := x.Add(y).Complex128(); cmplx.Abs(got-(cx+cy)) > 1e-7*(1+cmplx.Abs(cx+cy)) {
			t.Fatalf("add mismatch")
		}
		if got := x.Mul(y).Complex128(); cmplx.Abs(got-cx*cy) > 1e-7*(1+cmplx.Abs(cx*cy)) {
			t.Fatalf("mul mismatch")
		}
		if !y.IsZero() {
			if got := x.Div(y).Complex128(); cmplx.Abs(got-cx/cy) > 1e-6*(1+cmplx.Abs(cx/cy)) {
				t.Fatalf("div mismatch: %v / %v = %v want %v", x, y, got, cx/cy)
			}
		}
	}
}

func TestQConjAndAbs(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 200; i++ {
		q := randQ(r, 6, 2, 9)
		c := q.Complex128()
		if got := q.Conj().Complex128(); cmplx.Abs(got-cmplx.Conj(c)) > 1e-8*(1+cmplx.Abs(c)) {
			t.Fatalf("conj mismatch")
		}
		want := real(c)*real(c) + imag(c)*imag(c)
		if got := q.Abs2(); got-want > 1e-6*(1+want) || want-got > 1e-6*(1+want) {
			t.Fatalf("Abs2(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestQInD(t *testing.T) {
	q := NewQ(0, 0, 0, 1, 0, 3) // 1/3
	if _, ok := q.InD(); ok {
		t.Fatal("1/3 reported to be in D[ω]")
	}
	d, ok := NewQ(1, 2, 3, 4, 2, 1).InD()
	if !ok {
		t.Fatal("D[ω] element not recognized")
	}
	if !d.Equal(CanonD(NewZomega(1, 2, 3, 4), 2)) {
		t.Fatalf("InD returned %v", d)
	}
	// Denominators that are powers of two fold into the exponent.
	q2 := NewQ(0, 0, 0, 1, 0, 4) // 1/4 = (1/√2)⁴
	if _, ok := q2.InD(); !ok {
		t.Fatal("1/4 should be in D[ω]")
	}
	if q2.N.K != 4 {
		t.Fatalf("1/4 canonical exponent = %d, want 4", q2.N.K)
	}
}

func TestQKeyCanonical(t *testing.T) {
	a := NewQ(0, 0, 0, 2, 0, 6)   // 2/6 = 1/3
	b := NewQ(0, 0, 0, 1, 0, 3)   // 1/3
	c := NewQ(0, 0, 0, -1, 0, -3) // −1/−3 = 1/3
	if !a.Equal(b) || !b.Equal(c) || a.Hash() != b.Hash() || b.Hash() != c.Hash() {
		t.Fatalf("equal values with different forms or hashes: %v %v %v", a, b, c)
	}
}

func TestQInvPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	QOne.Div(QZero)
}

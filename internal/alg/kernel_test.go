package alg

import (
	"math/big"
	"math/rand"
	"testing"
)

// qFromBytes decodes a fuzz input into a canonical Q (built by the reference
// canonicalization, so operand construction never depends on the code under
// test) and returns the unconsumed rest. Layout: one byte for K ∈ [−8, 7],
// then five signed integers — the four ω coefficients and the denominator —
// each a length byte (low 5 bits: 0–24 magnitude bytes, i.e. up to 192 bits;
// bit 7: negative) followed by the magnitude bytes. A zero denominator
// becomes 1.
func qFromBytes(data []byte) (Q, []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	k := int(next()%16) - 8
	var xs [5]*big.Int
	for i := range xs {
		h := next()
		n := int(h&31) % 25
		mag := make([]byte, 0, n)
		for j := 0; j < n; j++ {
			mag = append(mag, next())
		}
		xs[i] = new(big.Int).SetBytes(mag)
		if h&0x80 != 0 {
			xs[i].Neg(xs[i])
		}
	}
	if xs[4].Sign() == 0 {
		xs[4].SetInt64(1)
	}
	return refCanonQ(Zomega{xs[0], xs[1], xs[2], xs[3]}, k, xs[4]), data
}

// checkCanonical asserts the representation invariants of Q: zero is
// (0,0,0,0)·(1/√2)^0 / 1; otherwise K is minimal (A ≢ C or B ≢ D mod 2),
// E is odd and positive, and gcd(content, E) = 1.
func checkCanonical(t *testing.T, what string, q Q) {
	t.Helper()
	if q.IsZero() {
		if q.N.K != 0 || !isOneInt(q.E) {
			t.Fatalf("%s: zero not canonical: %v (K=%d)", what, q, q.N.K)
		}
		return
	}
	w := q.N.W
	if parityEq(w.A, w.C) && parityEq(w.B, w.D) {
		t.Fatalf("%s: K=%d not minimal for %v", what, q.N.K, q)
	}
	if q.E.Sign() <= 0 || q.E.Bit(0) == 0 {
		t.Fatalf("%s: denominator %v not odd positive", what, q.E)
	}
	if g := new(big.Int).GCD(nil, nil, w.Content(), q.E); !isOneInt(g) {
		t.Fatalf("%s: gcd(content, E) = %v in %v", what, g, q)
	}
}

// checkArith is the body of FuzzQArith: the fused operations equal the
// reference ones, keep the canonical invariants, hash consistently with
// Equal, and leave their operands untouched.
func checkArith(t *testing.T, x, y Q) {
	t.Helper()
	kx, ky := x.String(), y.String()
	type op struct {
		name      string
		got, want func() Q
	}
	ops := []op{
		{"mul", func() Q { return x.Mul(y) }, func() Q { return refQMul(x, y) }},
		{"add", func() Q { return x.Add(y) }, func() Q { return refQAdd(x, y) }},
	}
	if !y.IsZero() {
		ops = append(ops, op{"div", func() Q { return x.Div(y) }, func() Q { return refQDiv(x, y) }})
	}
	for _, o := range ops {
		got, want := o.got(), o.want()
		if !got.Equal(want) {
			t.Fatalf("%s(%v, %v) = %v, reference %v", o.name, x, y, got, want)
		}
		checkCanonical(t, o.name, got)
		if got.Hash() != want.Hash() {
			t.Fatalf("%s: equal values %v hash %x and %x", o.name, got, got.Hash(), want.Hash())
		}
	}
	if got, want := x.N.Add(y.N), refDAdd(x.N, y.N); !got.Equal(want) {
		t.Fatalf("D.Add(%v, %v) = %v, reference %v", x.N, y.N, got, want)
	}
	if got, want := x.N.Mul(y.N), refCanonD(refZMul(x.N.W, y.N.W), x.N.K+y.N.K); !got.Equal(want) {
		t.Fatalf("D.Mul(%v, %v) = %v, reference %v", x.N, y.N, got, want)
	}
	if zm, zr := x.N.W.Mul(y.N.W), refZMul(x.N.W, y.N.W); !zm.Equal(zr) {
		t.Fatalf("Zomega.Mul(%v, %v) = %v, reference %v", x.N.W, y.N.W, zm, zr)
	}
	if n, r := x.N.W.Norm(), refZNorm(x.N.W); !n.Equal(r) {
		t.Fatalf("Norm(%v) = %v, reference %v", x.N.W, n, r)
	}
	if yx := y.Mul(x); yx.Hash() != x.Mul(y).Hash() {
		t.Fatalf("x·y and y·x hash differently: %v", yx)
	}
	if x.String() != kx || y.String() != ky {
		t.Fatalf("operands mutated: %s → %s, %s → %s", kx, x, ky, y)
	}
}

// FuzzQArith differentially tests the fused Q[ω] kernels against the
// reference arithmetic of ref_test.go on operands decoded from the input.
func FuzzQArith(f *testing.F) {
	f.Add([]byte{8, 1, 1, 0, 0, 0, 8, 1, 2, 0, 1, 3, 0, 0, 1, 1})
	f.Add([]byte{3, 0x81, 7, 2, 3, 9, 1, 4, 0x82, 1, 1, 1, 15, 5, 0x81, 5, 1, 2, 0, 1, 6, 1, 1, 1, 3})
	f.Add([]byte{0, 24, 0xff, 0xfe, 0xfd, 0xfc, 0xfb, 0xfa, 0xf9, 0xf8, 0xf7, 0xf6, 0xf5, 0xf4,
		0xf3, 0xf2, 0xf1, 0xf0, 0xef, 0xee, 0xed, 0xec, 0xeb, 0xea, 0xe9, 0xe8, 0x89, 1, 2, 3,
		4, 5, 6, 7, 8, 9, 0, 0, 9, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfd})
	f.Fuzz(func(t *testing.T, data []byte) {
		x, rest := qFromBytes(data)
		y, _ := qFromBytes(rest)
		checkArith(t, x, y)
		checkArith(t, y, x)
	})
}

// randWideQ draws a canonical Q with coefficients of up to bits bits (either
// sign), K ∈ [−6, 6] and an odd denominator of up to bits bits half the
// time. It builds through the reference canonicalization.
func randWideQ(r *rand.Rand, bits int) Q {
	c := func() *big.Int {
		x := new(big.Int).Rand(r, new(big.Int).Lsh(bigOne, uint(1+r.Intn(bits))))
		if r.Intn(2) == 0 {
			x.Neg(x)
		}
		if r.Intn(5) == 0 {
			x.SetInt64(0)
		}
		return x
	}
	den := big.NewInt(1)
	if r.Intn(2) == 0 {
		den = new(big.Int).Rand(r, new(big.Int).Lsh(bigOne, uint(1+r.Intn(bits))))
		den.SetBit(den, 0, 1)
		if r.Intn(4) == 0 {
			den.Lsh(den, uint(r.Intn(3))) // powers of two fold into K
		}
	}
	return refCanonQ(Zomega{c(), c(), c(), c()}, r.Intn(13)-6, den)
}

// TestQArithMatchesReference runs the fuzz body over seeded operands from
// single-word to ~300-bit, plus products that share factors with the
// denominators (so the content reduction fires).
func TestQArithMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, bits := range []int{3, 20, 62, 64, 70, 130, 300} {
		for i := 0; i < 150; i++ {
			checkArith(t, randWideQ(r, bits), randWideQ(r, bits))
		}
	}
	for i := 0; i < 200; i++ {
		x := randWideQ(r, 40)
		y := randWideQ(r, 40)
		checkArith(t, x.Mul(NewQ(0, 0, 0, 3, 0, 1)), y.Div(NewQ(0, 0, 0, 9, 0, 1)))
		checkArith(t, x.Div(y.Add(QOne)), y)
	}
}

// allocOperands are the fixed operand sets of the allocation gate: E = 1 and
// E odd, single-word and ~200-bit coefficients.
func allocOperands() map[string][2]Q {
	big200 := func(seed int64, odd bool) Q {
		r := rand.New(rand.NewSource(seed))
		c := func() *big.Int {
			x := new(big.Int).Rand(r, new(big.Int).Lsh(bigOne, 200))
			x.SetBit(x, 199, 1)
			return x
		}
		den := big.NewInt(1)
		if odd {
			den = c()
			den.SetBit(den, 0, 1)
		}
		return canonQ(Zomega{c(), c(), c(), c()}, 3, den)
	}
	return map[string][2]Q{
		"small/E=1":   {NewQ(1, -2, 3, 5, 1, 1), NewQ(-3, 1, 1, 2, 2, 1)},
		"small/Eodd":  {NewQ(1, -2, 3, 5, 1, 7), NewQ(-3, 1, 1, 2, 2, 15)},
		"200bit/E=1":  {big200(1, false), big200(2, false)},
		"200bit/Eodd": {big200(3, true), big200(4, true)},
	}
}

// TestArithAllocations is the allocation gate of the fused kernels, with
// exact ceilings (allocation counts are deterministic). A result is frozen
// into one block of integers plus one limb slab — two allocations — and
// every temporary comes from pooled scratch. The one remaining source is
// math/big's GCD (ten allocations per call), which the content reduction
// needs only when the denominator and every coefficient it meets are wider
// than a word: here Q.Mul with 200-bit odd denominators, and Q.Div, whose
// denominator u² − 2v² is as wide as the divisor's norm. Before the kernels
// these operations allocated 24–48 (Q.Mul) and 153–169 (Q.Div) objects.
func TestArithAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	ceilings := map[string]map[string]float64{
		"small/E=1":   {"Zomega.Mul": 2, "Q.Mul": 2, "Q.Div": 2},
		"small/Eodd":  {"Zomega.Mul": 2, "Q.Mul": 2, "Q.Div": 2},
		"200bit/E=1":  {"Zomega.Mul": 2, "Q.Mul": 2, "Q.Div": 12},
		"200bit/Eodd": {"Zomega.Mul": 2, "Q.Mul": 12, "Q.Div": 12},
	}
	for name, xy := range allocOperands() {
		x, y := xy[0], xy[1]
		cases := map[string]func(){
			"Zomega.Mul": func() { x.N.W.Mul(y.N.W) },
			"Q.Mul":      func() { x.Mul(y) },
			"Q.Div":      func() { x.Div(y) },
		}
		for op, fn := range cases {
			if got, max := testing.AllocsPerRun(100, fn), ceilings[name][op]; got > max {
				t.Errorf("%s %s: %.0f allocations per call, ceiling %.0f", op, name, got, max)
			}
		}
	}
}

// BenchmarkQArith times the fused kernels on the allocation gate's operands.
func BenchmarkQArith(b *testing.B) {
	for name, xy := range allocOperands() {
		x, y := xy[0], xy[1]
		b.Run("mul/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				x.Mul(y)
			}
		})
		b.Run("div/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				x.Div(y)
			}
		})
	}
}

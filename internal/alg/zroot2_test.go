package alg

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

func TestZroot2Arithmetic(t *testing.T) {
	r := rand.New(rand.NewSource(200))
	for i := 0; i < 300; i++ {
		a := Zroot2{big.NewInt(r.Int63n(41) - 20), big.NewInt(r.Int63n(41) - 20)}
		b := Zroot2{big.NewInt(r.Int63n(41) - 20), big.NewInt(r.Int63n(41) - 20)}
		fa, _ := a.Float(64).Float64()
		fb, _ := b.Float(64).Float64()
		if got, _ := a.Mul(b).Float(64).Float64(); math.Abs(got-fa*fb) > 1e-6 {
			t.Fatalf("mul: %v · %v", a, b)
		}
	}
}

func TestZroot2NormAndConj(t *testing.T) {
	r := rand.New(rand.NewSource(202))
	for i := 0; i < 200; i++ {
		a := Zroot2{big.NewInt(r.Int63n(21) - 10), big.NewInt(r.Int63n(21) - 10)}
		// FieldNorm = a · conj(a) as a rational integer.
		prod := a.Mul(a.Conj())
		if prod.V.Sign() != 0 {
			t.Fatalf("a·ā has a √2 part: %v", prod)
		}
		if prod.U.Cmp(a.FieldNorm()) != 0 {
			t.Fatalf("FieldNorm mismatch: %v vs %v", prod.U, a.FieldNorm())
		}
	}
}

func TestZroot2ZomegaEmbedding(t *testing.T) {
	r := Zroot2{big.NewInt(3), big.NewInt(-2)}
	z := r.Zomega()
	// The embedded value has zero imaginary part and the right real part.
	re, im := z.Float(64)
	reF, _ := re.Float64()
	imF, _ := im.Float64()
	want, _ := r.Float(64).Float64()
	if math.Abs(imF) > 1e-12 || math.Abs(reF-want) > 1e-9 {
		t.Fatalf("embedding of %v gave %v + %vi", r, reF, imF)
	}
}

// TestZroot2FloatMatchesUncached: Zroot2.Float reads √2 from the
// per-precision cache, and must return exactly what the uncached form
// u + v·sqrt2Float(prec) returns — same precision, same mantissa bits — at
// the read-out precisions and one wider one.
func TestZroot2FloatMatchesUncached(t *testing.T) {
	r := rand.New(rand.NewSource(201))
	var vals []Zroot2
	for _, uv := range [][2]int64{{0, 0}, {1, 0}, {0, 1}, {3, -2}, {-7, 5}} {
		vals = append(vals, Zroot2{big.NewInt(uv[0]), big.NewInt(uv[1])})
	}
	for i := 0; i < 50; i++ {
		u := new(big.Int).Lsh(big.NewInt(r.Int63()-r.Int63()), uint(r.Intn(200)))
		v := new(big.Int).Lsh(big.NewInt(r.Int63()-r.Int63()), uint(r.Intn(200)))
		vals = append(vals, Zroot2{U: u, V: v})
	}
	for _, prec := range []uint{64, 96, 160} {
		for _, z := range vals {
			u := new(big.Float).SetPrec(prec).SetInt(z.U)
			v := new(big.Float).SetPrec(prec).SetInt(z.V)
			v.Mul(v, sqrt2Float(prec))
			want := u.Add(u, v)
			got := z.Float(prec)
			if got.Prec() != want.Prec() || got.Text('p', 0) != want.Text('p', 0) {
				t.Fatalf("%v at %d bits: cached %s (prec %d), uncached %s (prec %d)",
					z, prec, got.Text('p', 0), got.Prec(), want.Text('p', 0), want.Prec())
			}
		}
	}
}

package alg

import "math/big"

// Reference arithmetic: Q[ω] as it was computed before the fused kernels of
// kernel.go, kept as the differential oracle for FuzzQArith. Every
// intermediate is a fresh big.Int; Zomega products accumulate seven partial
// sums before reducing with ω⁴ = −1; canonicalization divides by √2 one step
// at a time and reduces the full content GCD against the denominator; and
// division builds a canonical inverse, then multiplies by it. Only
// Zomega.Add/DivExactInt and Zroot2.Conj/Zomega/FieldNorm are shared with
// the production code; the other leaf helpers below are the reference's own.

func refZMul(z, y Zomega) Zomega {
	z0, z1, z2, z3 := z.D, z.C, z.B, z.A
	y0, y1, y2, y3 := y.D, y.C, y.B, y.A

	var r [7]*big.Int
	for k := range r {
		r[k] = new(big.Int)
	}
	var t big.Int
	mulAdd := func(dst *big.Int, x, y *big.Int) { dst.Add(dst, t.Mul(x, y)) }

	mulAdd(r[0], z0, y0)
	mulAdd(r[1], z0, y1)
	mulAdd(r[1], z1, y0)
	mulAdd(r[2], z0, y2)
	mulAdd(r[2], z1, y1)
	mulAdd(r[2], z2, y0)
	mulAdd(r[3], z0, y3)
	mulAdd(r[3], z1, y2)
	mulAdd(r[3], z2, y1)
	mulAdd(r[3], z3, y0)
	mulAdd(r[4], z1, y3)
	mulAdd(r[4], z2, y2)
	mulAdd(r[4], z3, y1)
	mulAdd(r[5], z2, y3)
	mulAdd(r[5], z3, y2)
	mulAdd(r[6], z3, y3)

	return Zomega{
		A: r[3],
		B: new(big.Int).Sub(r[2], r[6]),
		C: new(big.Int).Sub(r[1], r[5]),
		D: new(big.Int).Sub(r[0], r[4]),
	}
}

func refZNeg(z Zomega) Zomega {
	return Zomega{new(big.Int).Neg(z.A), new(big.Int).Neg(z.B), new(big.Int).Neg(z.C), new(big.Int).Neg(z.D)}
}

func refZConj(z Zomega) Zomega {
	return Zomega{new(big.Int).Neg(z.C), new(big.Int).Neg(z.B), new(big.Int).Neg(z.A), cp(z.D)}
}

func refZNorm(z Zomega) Zroot2 {
	m := refZMul(z, refZConj(z))
	if m.B.Sign() != 0 || new(big.Int).Neg(m.A).Cmp(m.C) != 0 {
		panic("reference norm not in Z[√2]")
	}
	return Zroot2{U: m.D, V: m.C}
}

func refCanonD(w Zomega, k int) D {
	if w.IsZero() {
		return D{ZomegaZero, 0}
	}
	for {
		r, ok := w.DivSqrt2()
		if !ok {
			return D{w, k}
		}
		w = r
		k--
	}
}

func refDAdd(d, y D) D {
	if d.IsZero() {
		return y
	}
	if y.IsZero() {
		return d
	}
	k := max(d.K, y.K)
	wd, wy := d.W, y.W
	for i := d.K; i < k; i++ {
		wd = wd.MulSqrt2()
	}
	for i := y.K; i < k; i++ {
		wy = wy.MulSqrt2()
	}
	return refCanonD(wd.Add(wy), k)
}

func refCanonQ(w Zomega, k int, den *big.Int) Q {
	if den.Sign() == 0 {
		panic("reference: zero denominator")
	}
	if w.IsZero() {
		return Q{DZero, big.NewInt(1)}
	}
	e := cp(den)
	if e.Sign() < 0 {
		e.Neg(e)
		w = refZNeg(w)
	}
	for e.Bit(0) == 0 {
		e.Rsh(e, 1)
		k += 2
	}
	if e.Cmp(bigOne) != 0 {
		g := new(big.Int).GCD(nil, nil, w.Content(), e)
		if g.Cmp(bigOne) > 0 {
			w = w.DivExactInt(g)
			e.Quo(e, g)
		}
	}
	return Q{refCanonD(w, k), e}
}

func refQMul(q, y Q) Q {
	if q.IsZero() || y.IsZero() {
		return QZero
	}
	if q.IsOne() {
		return y
	}
	if y.IsOne() {
		return q
	}
	return refCanonQ(refZMul(q.N.W, y.N.W), q.N.K+y.N.K, new(big.Int).Mul(q.E, y.E))
}

func refQInv(q Q) Q {
	w, k := q.N.W, q.N.K
	n := refZNorm(w)
	m := n.FieldNorm()
	num := refZMul(refZConj(w), n.Conj().Zomega()).MulInt(q.E)
	return refCanonQ(num, -k, m)
}

func refQDiv(q, y Q) Q {
	if y.IsOne() {
		return q
	}
	return refQMul(q, refQInv(y))
}

func refQAdd(q, y Q) Q {
	if q.IsZero() {
		return y
	}
	if y.IsZero() {
		return q
	}
	a := refCanonD(q.N.W.MulInt(y.E), q.N.K)
	b := refCanonD(y.N.W.MulInt(q.E), y.N.K)
	s := refDAdd(a, b)
	return refCanonQ(s.W, s.K, new(big.Int).Mul(q.E, y.E))
}

// MulInt returns z · n for an ordinary integer n.
func (z Zomega) MulInt(n *big.Int) Zomega {
	return Zomega{
		new(big.Int).Mul(z.A, n),
		new(big.Int).Mul(z.B, n),
		new(big.Int).Mul(z.C, n),
		new(big.Int).Mul(z.D, n),
	}
}

// MulSqrt2 returns z · √2 = z · (ω − ω³):
// (a, b, c, d) ↦ (b−d, c+a, b+d, c−a).
func (z Zomega) MulSqrt2() Zomega {
	return Zomega{
		new(big.Int).Sub(z.B, z.D),
		new(big.Int).Add(z.C, z.A),
		new(big.Int).Add(z.B, z.D),
		new(big.Int).Sub(z.C, z.A),
	}
}

// DivSqrt2 returns z / √2 and whether the division is exact in Z[ω].
// It is exact iff a ≡ c and b ≡ d (mod 2); then
// (a, b, c, d) ↦ ((b−d)/2, (c+a)/2, (b+d)/2, (c−a)/2).
func (z Zomega) DivSqrt2() (Zomega, bool) {
	if !parityEq(z.A, z.C) || !parityEq(z.B, z.D) {
		return Zomega{}, false
	}
	half := func(x *big.Int) *big.Int { return new(big.Int).Rsh(x, 1) }
	return Zomega{
		half(new(big.Int).Sub(z.B, z.D)),
		half(new(big.Int).Add(z.C, z.A)),
		half(new(big.Int).Add(z.B, z.D)),
		half(new(big.Int).Sub(z.C, z.A)),
	}, true
}

// Content returns gcd(|a|, |b|, |c|, |d|) (0 for the zero element).
func (z Zomega) Content() *big.Int {
	g := new(big.Int).Abs(z.A)
	g.GCD(nil, nil, g, new(big.Int).Abs(z.B))
	g.GCD(nil, nil, g, new(big.Int).Abs(z.C))
	g.GCD(nil, nil, g, new(big.Int).Abs(z.D))
	return g
}

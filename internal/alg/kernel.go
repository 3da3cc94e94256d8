package alg

import (
	"math/big"
	"math/bits"
	"sync"
)

// Fused, allocation-lean kernels for the hot Q[ω] operations.
//
// Q.Mul and Q.Div dominate the arithmetic of exact QMDD runs, and with a
// fresh heap object per intermediate big.Int most of their time goes to
// allocation and GC. The kernels below build a result in pooled scratch
// integers, canonicalize it once, in place, while it is still private, and
// only then copy the canonical coefficients into one freshly allocated
// block. Values handed out stay immutable. See DESIGN.md §5.1.1.

// scratch holds the reusable temporaries of one kernel invocation. Its
// integers keep their limb storage across uses, so in steady state a kernel
// allocates only the block its result is frozen into.
type scratch struct {
	w    [4]big.Int // numerator under construction (A, B, C, D)
	p    [4]big.Int // second product buffer
	e    big.Int    // odd denominator under construction
	t, r big.Int    // temporaries (r also holds the running content GCD)
	u, v big.Int    // norm components u + v√2
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch  { return scratchPool.Get().(*scratch) }
func putScratch(s *scratch) { scratchPool.Put(s) }

// addProd sets dst += x·y (or dst −= x·y when neg), using t as temporary.
func addProd(dst, t, x, y *big.Int, neg bool) {
	t.Mul(x, y)
	if neg {
		dst.Sub(dst, t)
	} else {
		dst.Add(dst, t)
	}
}

// mulInto sets dst = z·y, reduced with ω⁴ = −1 (see Zomega.Mul for the
// index convention). dst must not share integers with z or y.
func mulInto(dst *[4]big.Int, z, y Zomega, t *big.Int) {
	z0, z1, z2, z3 := z.D, z.C, z.B, z.A
	y0, y1, y2, y3 := y.D, y.C, y.B, y.A
	a, b, c, d := &dst[0], &dst[1], &dst[2], &dst[3]

	a.Mul(z0, y3) // ω³: z0y3 + z1y2 + z2y1 + z3y0
	addProd(a, t, z1, y2, false)
	addProd(a, t, z2, y1, false)
	addProd(a, t, z3, y0, false)

	b.Mul(z0, y2) // ω²: z0y2 + z1y1 + z2y0 − z3y3
	addProd(b, t, z1, y1, false)
	addProd(b, t, z2, y0, false)
	addProd(b, t, z3, y3, true)

	c.Mul(z0, y1) // ω: z0y1 + z1y0 − z2y3 − z3y2
	addProd(c, t, z1, y0, false)
	addProd(c, t, z2, y3, true)
	addProd(c, t, z3, y2, true)

	d.Mul(z0, y0) // 1: z0y0 − z1y3 − z2y2 − z3y1
	addProd(d, t, z1, y3, true)
	addProd(d, t, z2, y2, true)
	addProd(d, t, z3, y1, true)
}

// mulConjInto sets dst = z·ȳ without materializing ȳ. With
// ȳ = (−y₁)ω³ + (−y₂)ω² + (−y₃)ω + y₀ substituted into mulInto's terms.
func mulConjInto(dst *[4]big.Int, z, y Zomega, t *big.Int) {
	z0, z1, z2, z3 := z.D, z.C, z.B, z.A
	y0, y1, y2, y3 := y.D, y.C, y.B, y.A
	a, b, c, d := &dst[0], &dst[1], &dst[2], &dst[3]

	a.Mul(z3, y0) // ω³: z3y0 − z0y1 − z1y2 − z2y3
	addProd(a, t, z0, y1, true)
	addProd(a, t, z1, y2, true)
	addProd(a, t, z2, y3, true)

	b.Mul(z2, y0) // ω²: z2y0 + z3y1 − z0y2 − z1y3
	addProd(b, t, z3, y1, false)
	addProd(b, t, z0, y2, true)
	addProd(b, t, z1, y3, true)

	c.Mul(z1, y0) // ω: z1y0 + z2y1 + z3y2 − z0y3
	addProd(c, t, z2, y1, false)
	addProd(c, t, z3, y2, false)
	addProd(c, t, z0, y3, true)

	d.Mul(z0, y0) // 1: z0y0 + z1y1 + z2y2 + z3y3
	addProd(d, t, z1, y1, false)
	addProd(d, t, z2, y2, false)
	addProd(d, t, z3, y3, false)
}

// normInto sets u + v√2 = N(w) = w·w̄ from the closed form of the product's
// real part: u = a² + b² + c² + d², v = ab + bc + cd − ad.
func normInto(u, v, t *big.Int, w Zomega) {
	u.Mul(w.A, w.A)
	addProd(u, t, w.B, w.B, false)
	addProd(u, t, w.C, w.C, false)
	addProd(u, t, w.D, w.D, false)
	v.Mul(w.A, w.B)
	addProd(v, t, w.B, w.C, false)
	addProd(v, t, w.C, w.D, false)
	addProd(v, t, w.A, w.D, true)
}

// mulConj2NormInto sets dst = p·(u − v√2), the product with the
// √2-conjugate of a norm. With p·√2 = (b−d, c+a, b+d, c−a) this is
// dst = u·p − v·(p·√2): eight multiplications instead of a full Z[ω]
// product. r and t are temporaries.
func mulConj2NormInto(dst, p *[4]big.Int, u, v, r, t *big.Int) {
	a, b, c, d := &p[0], &p[1], &p[2], &p[3]
	set := func(i int, x, y *big.Int, sub bool) {
		if sub {
			r.Sub(x, y)
		} else {
			r.Add(x, y)
		}
		dst[i].Mul(u, &p[i])
		addProd(&dst[i], t, v, r, true)
	}
	set(0, b, d, true)  // u·a − v·(b − d)
	set(1, c, a, false) // u·b − v·(c + a)
	set(2, b, d, false) // u·c − v·(b + d)
	set(3, c, a, true)  // u·d − v·(c − a)
}

// loadZ copies z into dst.
func loadZ(dst *[4]big.Int, z Zomega) {
	dst[0].Set(z.A)
	dst[1].Set(z.B)
	dst[2].Set(z.C)
	dst[3].Set(z.D)
}

func isZero4(w *[4]big.Int) bool {
	return w[0].Sign() == 0 && w[1].Sign() == 0 && w[2].Sign() == 0 && w[3].Sign() == 0
}

// canonDInPlace applies Algorithm 1 to the private, nonzero vector w and
// returns the minimal exponent. A common factor 2 = (√2)² is stripped in one
// shift per coefficient; after that at most one √2 division can apply,
// because a vector divisible by (√2)² = 2 has only even coefficients.
func canonDInPlace(w *[4]big.Int, k int, t *big.Int) int {
	tz := ^uint(0)
	for i := range w {
		if w[i].Sign() != 0 {
			tz = min(tz, w[i].TrailingZeroBits())
		}
	}
	if tz > 0 {
		for i := range w {
			w[i].Rsh(&w[i], tz)
		}
		k -= 2 * int(tz)
	}
	if w[0].Bit(0) != w[2].Bit(0) || w[1].Bit(0) != w[3].Bit(0) {
		return k
	}
	// w/√2 = (w·√2)/2.
	mulSqrt2InPlace(w, t)
	for i := range w {
		w[i].Rsh(&w[i], 1)
	}
	return k - 1
}

// mulSqrt2InPlace sets w = w·√2: (a, b, c, d) ↦ (b−d, c+a, b+d, c−a).
func mulSqrt2InPlace(w *[4]big.Int, t *big.Int) {
	a, b, c, d := &w[0], &w[1], &w[2], &w[3]
	t.Sub(b, d) // new a
	b.Add(b, d) // new c, parked in b
	d.Sub(c, a) // new d
	a.Add(c, a) // new b, parked in a
	c.Set(b)
	b.Set(a)
	a.Set(t)
}

// scaleInto sets dst = z·√2^sh·m for sh ≥ 0 (m == nil multiplies by 1):
// the even part of the exponent is one shift, the odd part one √2 step.
func scaleInto(dst *[4]big.Int, z Zomega, sh int, m, t *big.Int) {
	if m == nil {
		loadZ(dst, z)
	} else {
		dst[0].Mul(z.A, m)
		dst[1].Mul(z.B, m)
		dst[2].Mul(z.C, m)
		dst[3].Mul(z.D, m)
	}
	if sh >= 2 {
		for i := range dst {
			dst[i].Lsh(&dst[i], uint(sh/2))
		}
	}
	if sh%2 == 1 {
		mulSqrt2InPlace(dst, t)
	}
}

// mulByInPlace sets w = w·m, using t as temporary (math/big reallocates
// when a product's destination aliases an operand).
func mulByInPlace(w []big.Int, m, t *big.Int) {
	for i := range w {
		t.Mul(&w[i], m)
		w[i].Set(t)
	}
}

// finishD canonicalizes the private, nonzero value (s.w, k) in place and
// freezes it.
func (s *scratch) finishD(k int) D {
	k = canonDInPlace(&s.w, k, &s.t)
	return D{freezeZ(&s.w), k}
}

// finishQ brings the private value (s.w, k) / s.e into the canonical
// form of Q (see canonQ) and freezes it. s.e must be nonzero.
func (s *scratch) finishQ(k int) Q {
	w, e := &s.w, &s.e
	if isZero4(w) {
		return QZero
	}
	if e.Sign() < 0 {
		e.Neg(e)
		for i := range w {
			w[i].Neg(&w[i])
		}
	}
	if tz := e.TrailingZeroBits(); tz > 0 {
		e.Rsh(e, tz)
		k += 2 * int(tz) // dividing by 2 = multiplying by (1/√2)²
	}
	if e.Cmp(bigOne) != 0 {
		s.reduceContent()
	}
	// The odd content is invariant under the √2 steps below, so the order of
	// the two reductions does not matter.
	k = canonDInPlace(w, k, &s.t)
	return freezeQ(w, k, e)
}

// reduceContent divides s.w and the odd s.e > 1 by g = gcd(content(s.w), s.e).
// The GCD folds in one coefficient at a time, narrowest first, and stops as
// soon as it reaches 1. Once either side fits in a machine word it continues
// in uint64 arithmetic; otherwise a coefficient that the running GCD already
// divides — the common case when the GCD exceeds 1 — costs one division
// instead of another math/big GCD. Only the first big-by-big step allocates.
func (s *scratch) reduceContent() {
	w, e, g, rem := &s.w, &s.e, &s.r, &s.t
	order := [4]int{0, 1, 2, 3}
	for i := 1; i < 4; i++ { // insertion sort by bit length
		for j := i; j > 0 && w[order[j]].BitLen() < w[order[j-1]].BitLen(); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	var small uint64 // the running GCD once it fits a word (0: still big, in g)
	if word, ok := toWord(e); ok {
		small = word
	} else {
		g.Set(e)
	}
	for _, i := range order {
		x := &w[i]
		if x.Sign() == 0 {
			continue
		}
		if small == 0 {
			if xw, ok := toWord(x); ok {
				small = gcdWord(xw, modWord(g, xw))
			} else {
				s.p[0].QuoRem(x, g, rem) // s.p is free once s.w is built
				if rem.Sign() != 0 {
					g.GCD(nil, nil, g, rem)
				}
				if word, ok := toWord(g); ok {
					small = word
				}
			}
		} else {
			small = gcdWord(small, modWord(x, small))
		}
		if small == 1 {
			return
		}
	}
	if small != 0 {
		g.SetUint64(small)
	}
	for i := range w {
		w[i].QuoRem(&w[i], g, rem)
	}
	e.QuoRem(e, g, rem)
}

// toWord returns |x| when it fits in one 64-bit word and the platform's
// big.Word is 64 bits wide (elsewhere the word paths are skipped).
func toWord(x *big.Int) (uint64, bool) {
	bs := x.Bits()
	if bits.UintSize != 64 || len(bs) > 1 {
		return 0, false
	}
	if len(bs) == 0 {
		return 0, true
	}
	return uint64(bs[0]), true
}

// modWord returns |x| mod m for a nonzero word m (64-bit platforms only, as
// guaranteed by toWord).
func modWord(x *big.Int, m uint64) uint64 {
	var r uint64
	bs := x.Bits()
	for i := len(bs) - 1; i >= 0; i-- {
		_, r = bits.Div64(r, uint64(bs[i]), m)
	}
	return r
}

func gcdWord(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// freezeZ copies w into a fresh Zomega whose four integers share one
// allocation block and one limb slab.
func freezeZ(w *[4]big.Int) Zomega {
	b := freeze(0, &w[0], &w[1], &w[2], &w[3])
	return Zomega{&b[0], &b[1], &b[2], &b[3]}
}

// freezeQ copies (w, k) / e into a fresh Q.
func freezeQ(w *[4]big.Int, k int, e *big.Int) Q {
	b := freeze(0, &w[0], &w[1], &w[2], &w[3], e)
	return Q{D{Zomega{&b[0], &b[1], &b[2], &b[3]}, k}, &b[4]}
}

// freeze copies xs, negating xs[i] when bit i of neg is set, into one fresh
// block of integers backed by one limb slab: two allocations whatever the
// count. Each integer's slice is capped at its own length, so the block's
// integers are independent values.
func freeze(neg uint, xs ...*big.Int) []big.Int {
	n := 0
	for _, x := range xs {
		n += len(x.Bits())
	}
	blk := make([]big.Int, len(xs))
	slab := make([]big.Word, n)
	for i, x := range xs {
		m := copy(slab, x.Bits())
		blk[i].SetBits(slab[:m:m])
		if (x.Sign() < 0) != (neg>>i&1 == 1) {
			blk[i].Neg(&blk[i])
		}
		slab = slab[m:]
	}
	return blk
}

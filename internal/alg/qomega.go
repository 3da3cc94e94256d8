package alg

import (
	"fmt"
	"math/big"
)

// Q is an element of the cyclotomic number field Q[ω], the fraction field of
// D[ω], in the unique representation the paper derives in Section IV-B:
//
//	q = N / E,  N ∈ D[ω] canonical,  E an odd positive integer,
//	gcd(a, b, c, d, E) = 1.
//
// Every nonzero Q has a multiplicative inverse, which is what lets the
// Q[ω]-inverse normalization scheme (Algorithm 2) divide by arbitrary edge
// weights. Powers of 2 in denominators fold into the √2-exponent K of N
// (1/2 = (1/√2)²), so E only ever carries the odd part.
type Q struct {
	N D
	E *big.Int
}

// Convenient constants (treat as immutable).
var (
	QZero     = Q{DZero, big.NewInt(1)}
	QOne      = Q{DOne, big.NewInt(1)}
	QI        = Q{DI, big.NewInt(1)}
	QInvSqrt2 = Q{DInvSqrt2, big.NewInt(1)}
	QMinusOne = Q{DMinusOne, big.NewInt(1)}
)

// QFromD embeds a D[ω] element into Q[ω].
func QFromD(d D) Q { return Q{d, big.NewInt(1)} }

// NewQ builds the canonical representative of
// (1/√2)^k (aω³ + bω² + cω + d) / den for an arbitrary nonzero denominator.
func NewQ(a, b, c, d int64, k int, den int64) Q {
	return canonQ(NewZomega(a, b, c, d), k, big.NewInt(den))
}

// QFromParts builds the canonical representative of
// (1/√2)^k·w / den for an arbitrary nonzero denominator (used e.g. by
// deserialization).
func QFromParts(w Zomega, k int, den *big.Int) Q { return canonQ(w, k, den) }

// canonQ normalizes (w, k) / den: sign into the numerator, powers of two in
// den into k, the remaining odd part reduced against the coefficient content
// (scratch.finishQ, on a private copy).
func canonQ(w Zomega, k int, den *big.Int) Q {
	if den.Sign() == 0 {
		panic("alg: zero denominator in Q[ω]")
	}
	s := getScratch()
	loadZ(&s.w, w)
	s.e.Set(den)
	r := s.finishQ(k)
	putScratch(s)
	return r
}

// isOneInt reports x == 1.
func isOneInt(x *big.Int) bool { return x.Cmp(bigOne) == 0 }

// IsZero reports whether q == 0.
func (q Q) IsZero() bool { return q.N.IsZero() }

// IsOne reports whether q == 1.
func (q Q) IsOne() bool { return q.N.IsOne() && q.E.Cmp(bigOne) == 0 }

// Equal reports value equality.
func (q Q) Equal(y Q) bool { return q.E.Cmp(y.E) == 0 && q.N.Equal(y.N) }

// Add returns q + y.
func (q Q) Add(y Q) Q {
	if q.IsZero() {
		return y
	}
	if y.IsZero() {
		return q
	}
	return q.add(y)
}

// add returns q + y for nonzero operands, fused into one canonicalization:
//
//	q + y = (Nq·Ey + Ny·Eq) / (Eq·Ey)
//
// over the common exponent k = max(Kq, Ky). Denominators of 1 (all of D[ω],
// the typical weight of a Clifford+T circuit) skip their multiplications.
func (q Q) add(y Q) Q {
	k := max(q.N.K, y.N.K)
	var eq, ey *big.Int // nil: the denominator is 1
	if !isOneInt(q.E) {
		eq = q.E
	}
	if !isOneInt(y.E) {
		ey = y.E
	}
	s := getScratch()
	scaleInto(&s.w, q.N.W, k-q.N.K, ey, &s.t)
	scaleInto(&s.p, y.N.W, k-y.N.K, eq, &s.t)
	for i := range s.w {
		s.w[i].Add(&s.w[i], &s.p[i])
	}
	switch {
	case eq == nil && ey == nil:
		s.e.SetInt64(1)
	case eq == nil:
		s.e.Set(ey)
	case ey == nil:
		s.e.Set(eq)
	default:
		s.e.Mul(eq, ey)
	}
	r := s.finishQ(k)
	putScratch(s)
	return r
}

// Neg returns −q (sharing q's denominator).
func (q Q) Neg() Q { return Q{q.N.Neg(), q.E} }

// Mul returns q · y. Multiplications by exact 0 and 1 short-circuit: edge
// weights in QMDDs are overwhelmingly trivial, and the general path costs a
// full Zomega product plus canonicalization, both fused in scratch.
func (q Q) Mul(y Q) Q {
	if q.IsZero() || y.IsZero() {
		return QZero
	}
	if q.IsOne() {
		return y
	}
	if y.IsOne() {
		return q
	}
	s := getScratch()
	mulInto(&s.w, q.N.W, y.N.W, &s.t)
	s.e.Mul(q.E, y.E)
	r := s.finishQ(q.N.K + y.N.K)
	putScratch(s)
	return r
}

// Conj returns the complex conjugate (sharing q's denominator).
func (q Q) Conj() Q { return Q{q.N.Conj(), q.E} }

// Div returns q / y, constructed from the inverse of the paper
// (Section IV-B, Example 8): with y = (1/√2)^Ky·wy / Ey and
// N(wy) = u + v√2,
//
//	wy⁻¹ = w̄y · (u − v√2) / (u² − 2v²),
//
// so q / y = (1/√2)^(Kq−Ky) · wq·w̄y·(u − v√2)·Ey / (Eq·(u² − 2v²)). The
// numerator is built in scratch and canonicalized once; no inverse is
// materialized. Div panics when y is zero. Division by exact 1 (the common
// case under Q[ω]-inverse normalization, where most pivots are trivial)
// returns q unchanged.
func (q Q) Div(y Q) Q {
	if y.IsZero() {
		panic("alg: division by zero in Q[ω]")
	}
	if y.IsOne() {
		return q
	}
	if q.IsZero() {
		return QZero
	}
	s := getScratch()
	normInto(&s.u, &s.v, &s.t, y.N.W)
	mulConjInto(&s.p, q.N.W, y.N.W, &s.t)
	mulConj2NormInto(&s.w, &s.p, &s.u, &s.v, &s.r, &s.t)
	if !isOneInt(y.E) {
		mulByInPlace(s.w[:], y.E, &s.t)
	}
	s.e.Mul(&s.u, &s.u) // u² − 2v², nonzero since y ≠ 0
	s.t.Mul(&s.v, &s.v)
	s.t.Lsh(&s.t, 1)
	s.e.Sub(&s.e, &s.t)
	if !isOneInt(q.E) {
		s.t.Mul(&s.e, q.E)
		s.e.Set(&s.t)
	}
	r := s.finishQ(q.N.K - y.N.K)
	putScratch(s)
	return r
}

// InD reports whether q lies in the subring D[ω] (odd denominator 1) and, if
// so, returns the D[ω] element.
func (q Q) InD() (D, bool) {
	if q.E.Cmp(bigOne) != 0 {
		return DZero, false
	}
	return q.N, true
}

// String renders q for humans.
func (q Q) String() string {
	if q.E.Cmp(bigOne) == 0 {
		return q.N.String()
	}
	return fmt.Sprintf("%s/%v", q.N.String(), q.E)
}

// MaxBitLen returns the largest bit length over the numerator coefficients
// and the denominator — the statistic behind the paper's Fig. 5 discussion.
func (q Q) MaxBitLen() int {
	m := q.N.MaxBitLen()
	if b := q.E.BitLen(); b > m {
		m = b
	}
	return m
}

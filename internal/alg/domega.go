package alg

import (
	"fmt"
	"math/big"
)

// D is an element of the ring D[ω] = Z[i, 1/√2]:
//
//	α = (1/√2)^K · (A·ω³ + B·ω² + C·ω + D)
//
// kept in the canonical form of Algorithm 1 of the paper: K is the smallest
// denominator exponent, which holds iff A ≢ C (mod 2) or B ≢ D (mod 2)
// (and the zero element is represented as (0,0,0,0) with K = 0). With K
// fixed to its minimum the representation is unique, so two D values denote
// the same complex number iff they are structurally equal.
type D struct {
	W Zomega
	K int
}

// CanonD canonicalizes the pair (w, k) by Algorithm 1: while both parity
// conditions hold, divide the coefficient vector by √2 and decrement k.
// An already canonical w is returned as is; otherwise the reduction runs in
// place on a private copy (canonDInPlace).
func CanonD(w Zomega, k int) D {
	if w.IsZero() {
		return D{ZomegaZero, 0}
	}
	if !parityEq(w.A, w.C) || !parityEq(w.B, w.D) {
		return D{w, k}
	}
	s := getScratch()
	loadZ(&s.w, w)
	r := s.finishD(k)
	putScratch(s)
	return r
}

// Convenient constants (treat as immutable).
var (
	DZero     = D{ZomegaZero, 0}
	DOne      = D{ZomegaOne, 0}
	DI        = D{ZomegaI, 0}
	DOmegaVal = D{ZomegaW, 0}          // ω
	DSqrt2    = CanonD(ZomegaSqrt2, 0) // √2, canonically (1, k = −1)
	DInvSqrt2 = D{ZomegaOne, 1}        // 1/√2
	DHalf     = D{ZomegaOne, 2}        // 1/2
	DMinusOne = D{ZomegaOne.Neg(), 0}  // −1
)

// DOmegaPow returns ω^r (r taken mod 8).
func DOmegaPow(r int) D { return CanonD(ZomegaOne.MulOmegaPow(r), 0) }

// IsZero reports whether d == 0.
func (d D) IsZero() bool { return d.W.IsZero() }

// IsOne reports whether d == 1.
func (d D) IsOne() bool { return d.K == 0 && d.W.IsOne() }

// Equal reports value equality (structural equality of canonical forms).
func (d D) Equal(y D) bool { return d.K == y.K && d.W.Equal(y.W) }

// Add returns d + y: both operands are raised to the common exponent
// k = max(d.K, y.K) in scratch (scaleInto), summed and canonicalized there.
func (d D) Add(y D) D {
	if d.IsZero() {
		return y
	}
	if y.IsZero() {
		return d
	}
	k := max(d.K, y.K)
	s := getScratch()
	defer putScratch(s)
	scaleInto(&s.w, d.W, k-d.K, nil, &s.t)
	scaleInto(&s.p, y.W, k-y.K, nil, &s.t)
	for i := range s.w {
		s.w[i].Add(&s.w[i], &s.p[i])
	}
	if isZero4(&s.w) {
		return DZero
	}
	return s.finishD(k)
}

// Sub returns d − y.
func (d D) Sub(y D) D { return d.Add(y.Neg()) }

// Neg returns −d.
func (d D) Neg() D { return D{d.W.Neg(), d.K} }

// Mul returns d · y.
func (d D) Mul(y D) D {
	if d.IsZero() || y.IsZero() {
		return DZero
	}
	s := getScratch()
	mulInto(&s.w, d.W, y.W, &s.t)
	r := s.finishD(d.K + y.K) // Z[ω] has no zero divisors: s.w ≠ 0
	putScratch(s)
	return r
}

// Conj returns the complex conjugate (1/√2 is real, so K is unchanged).
func (d D) Conj() D {
	// Conjugation preserves the parity criterion (it only permutes/negates
	// coefficients), so the result is already canonical.
	return D{d.W.Conj(), d.K}
}

// Norm returns the squared magnitude |d|² as an exact element of Z[√2]
// scaled by 2^{-K}: it returns (n, k) with |d|² = n / 2^k where n ∈ Z[√2]
// and k = d.K (not reduced; callers needing floats use Abs2).
func (d D) Norm() (Zroot2, int) { return d.W.Norm(), d.K }

// DivE divides d by y exactly in D[ω]. ok is false when y does not divide d
// in D[ω] (e.g. division by 3): then the quotient would need an odd
// denominator and only Q[ω] can express it.
func (d D) DivE(y D) (q D, ok bool) {
	if y.IsZero() {
		return DZero, false
	}
	if d.IsZero() {
		return DZero, true
	}
	// d / y = d·ȳ·conj2(N(y)) / fieldNorm(N(y)) scaled by √2 exponents.
	n := y.W.Norm()
	m := n.FieldNorm() // ±(odd or even) integer, nonzero
	num := d.W.Mul(y.W.Conj()).Mul(n.Conj().Zomega())
	k := d.K - y.K // the two extra factors ȳ·conj2(N(y)) carry no 1/√2
	// Divide num by the integer m: strip powers of two into k, then the odd
	// part must divide all coefficients exactly for ok to hold.
	if m.Sign() < 0 {
		num = num.Neg()
		m = new(big.Int).Neg(m)
	}
	for m.Bit(0) == 0 {
		m = new(big.Int).Rsh(m, 1)
		k += 2 // dividing by 2 = multiplying by (1/√2)²
	}
	if m.Cmp(bigOne) != 0 {
		rem := new(big.Int)
		for _, coef := range []*big.Int{num.A, num.B, num.C, num.D} {
			if rem.Mod(coef, m); rem.Sign() != 0 {
				return DZero, false
			}
		}
		num = num.DivExactInt(m)
	}
	return CanonD(num, k), true
}

// Key returns a canonical string key suitable for hash maps. Because the
// representation is canonical, Key(x) == Key(y) iff x and y are the same
// complex number.
func (d D) Key() string {
	return fmt.Sprintf("%s|%s|%s|%s|%d",
		d.W.A.Text(36), d.W.B.Text(36), d.W.C.Text(36), d.W.D.Text(36), d.K)
}

// String renders d for human consumption.
func (d D) String() string {
	if d.K == 0 {
		return d.W.String()
	}
	return fmt.Sprintf("(1/√2)^%d·%s", d.K, d.W.String())
}

// MaxBitLen returns the largest coefficient bit length (bit-width statistic).
func (d D) MaxBitLen() int { return d.W.MaxBitLen() }

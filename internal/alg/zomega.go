// Package alg implements exact algebraic arithmetic in the rings used by
// algebraic QMDDs: the cyclotomic integers Z[ω] (ω = e^{iπ/4}), the real
// quadratic ring Z[√2] (the norm codomain), the dyadic extension
// D[ω] = Z[i, 1/√2], and its fraction field Q[ω].
//
// Every complex number reachable by a Clifford+T circuit lies in D[ω] and is
// written with five integers as
//
//	α = (1/√2)^k · (a·ω³ + b·ω² + c·ω + d),
//
// a representation this package keeps canonical (minimal denominator
// exponent k, see Algorithm 1 of the paper) so that structural equality of
// decision-diagram weights is exact value equality.
//
// All coefficient arithmetic uses math/big, so no overflow or rounding ever
// occurs. Values are immutable and may share coefficients: an operation can
// return one of its operands (Q.Mul by 1 returns the other factor) or a value
// whose integers share storage with another's. Never mutate a returned value.
package alg

import (
	"fmt"
	"math/big"
)

// Zomega is an element a·ω³ + b·ω² + c·ω + d of the ring Z[ω] of cyclotomic
// integers of order 8, where ω = e^{iπ/4} = (1+i)/√2 satisfies ω⁴ = −1.
// The useful sub-values are i = ω² and √2 = ω − ω³.
type Zomega struct {
	A, B, C, D *big.Int // coefficients of ω³, ω², ω, 1
}

// NewZomega returns a·ω³ + b·ω² + c·ω + d from small integer coefficients.
func NewZomega(a, b, c, d int64) Zomega {
	return Zomega{big.NewInt(a), big.NewInt(b), big.NewInt(c), big.NewInt(d)}
}

// NewZomegaBig returns a·ω³ + b·ω² + c·ω + d, copying the given coefficients.
func NewZomegaBig(a, b, c, d *big.Int) Zomega {
	return Zomega{cp(a), cp(b), cp(c), cp(d)}
}

func cp(x *big.Int) *big.Int { return new(big.Int).Set(x) }

// Convenient constants. Never mutate these (treat Zomega values as immutable).
var (
	ZomegaZero  = NewZomega(0, 0, 0, 0)
	ZomegaOne   = NewZomega(0, 0, 0, 1)
	ZomegaI     = NewZomega(0, 1, 0, 0)  // i = ω²
	ZomegaW     = NewZomega(0, 0, 1, 0)  // ω itself
	ZomegaSqrt2 = NewZomega(-1, 0, 1, 0) // √2 = ω − ω³
)

// IsZero reports whether z == 0.
func (z Zomega) IsZero() bool {
	return z.A.Sign() == 0 && z.B.Sign() == 0 && z.C.Sign() == 0 && z.D.Sign() == 0
}

// IsOne reports whether z == 1.
func (z Zomega) IsOne() bool {
	return z.A.Sign() == 0 && z.B.Sign() == 0 && z.C.Sign() == 0 &&
		z.D.Cmp(bigOne) == 0
}

var (
	bigOne = big.NewInt(1)
)

// Equal reports coefficient-wise equality (which is value equality, since
// 1, ω, ω², ω³ are linearly independent over Q).
func (z Zomega) Equal(y Zomega) bool {
	return z.A.Cmp(y.A) == 0 && z.B.Cmp(y.B) == 0 &&
		z.C.Cmp(y.C) == 0 && z.D.Cmp(y.D) == 0
}

// Add returns z + y.
func (z Zomega) Add(y Zomega) Zomega {
	return Zomega{
		new(big.Int).Add(z.A, y.A),
		new(big.Int).Add(z.B, y.B),
		new(big.Int).Add(z.C, y.C),
		new(big.Int).Add(z.D, y.D),
	}
}

// Sub returns z − y.
func (z Zomega) Sub(y Zomega) Zomega {
	return Zomega{
		new(big.Int).Sub(z.A, y.A),
		new(big.Int).Sub(z.B, y.B),
		new(big.Int).Sub(z.C, y.C),
		new(big.Int).Sub(z.D, y.D),
	}
}

// Neg returns −z.
func (z Zomega) Neg() Zomega { return perm(0b1111, z.A, z.B, z.C, z.D) }

// perm returns the Zomega with coefficients (a, b, c, d), each negated when
// its bit (1 for a … 8 for d) is set in neg: the shape of every signed
// coefficient permutation below.
func perm(neg uint, a, b, c, d *big.Int) Zomega {
	r := freeze(neg, a, b, c, d)
	return Zomega{&r[0], &r[1], &r[2], &r[3]}
}

// Mul returns z · y, reducing powers of ω with ω⁴ = −1.
//
// Writing z = Σ zᵢωⁱ and y = Σ yⱼωʲ (z₃ = A, z₂ = B, z₁ = C, z₀ = D), the raw
// product has powers ω⁰..ω⁶ and the reduction is ω⁴ = −1, ω⁵ = −ω, ω⁶ = −ω².
// Each reduced coefficient is accumulated directly in pooled scratch (see
// mulInto), so the only allocations are the result's.
func (z Zomega) Mul(y Zomega) Zomega {
	s := getScratch()
	mulInto(&s.w, z, y, &s.t)
	r := freezeZ(&s.w)
	putScratch(s)
	return r
}

// Conj returns the complex conjugate z̄. Since ω̄ = ω⁻¹ = −ω³,
// conj maps (a, b, c, d) ↦ (−c, −b, −a, d).
func (z Zomega) Conj() Zomega { return perm(0b0111, z.C, z.B, z.A, z.D) }

// MulOmega returns z · ω (a rotation of the coefficient quadruple with one
// sign flip: ω·(aω³+bω²+cω+d) = bω³ + cω² + dω − a).
func (z Zomega) MulOmega() Zomega { return perm(0b1000, z.B, z.C, z.D, z.A) }

// MulOmegaPow returns z · ω^r for any r (taken mod 8).
func (z Zomega) MulOmegaPow(r int) Zomega {
	r = ((r % 8) + 8) % 8
	w := z
	for i := 0; i < r; i++ {
		w = w.MulOmega()
	}
	return w
}

func parityEq(x, y *big.Int) bool { return x.Bit(0) == y.Bit(0) }

// Norm returns the squared complex magnitude N(z) = z · z̄, which always lies
// in Z[√2]. It panics if the internal consistency check fails (which would
// indicate a bug in the conjugate product).
func (z Zomega) Norm() Zroot2 {
	s := getScratch()
	defer putScratch(s)
	m := &s.w
	mulConjInto(m, z, z, &s.t)
	// In Z[√2] iff the ω² part vanishes and the ω³ part is −(ω part):
	// compared by sign and magnitude, without allocating a negation.
	if m[1].Sign() != 0 || m[0].Sign() != -m[2].Sign() || m[0].CmpAbs(&m[2]) != 0 {
		panic(fmt.Sprintf("alg: norm of %v not in Z[√2]: %v", z, freezeZ(m)))
	}
	r := freeze(0, &m[3], &m[2])
	return Zroot2{U: &r[0], V: &r[1]}
}

// Euclid returns the value of the Euclidean function
// E(z) = |u² − 2v²| where N(z) = u + v√2: the absolute field norm of z over Q.
// E is multiplicative and E(z) = 0 iff z = 0, which is what makes the
// Euclidean algorithm in Z[ω] terminate.
func (z Zomega) Euclid() *big.Int {
	return z.Norm().FieldNormAbs()
}

// DivExactInt divides every coefficient by n, which must divide them all.
func (z Zomega) DivExactInt(n *big.Int) Zomega {
	q := func(x *big.Int) *big.Int {
		d, m := new(big.Int).QuoRem(x, n, new(big.Int))
		if m.Sign() != 0 {
			panic("alg: DivExactInt: not divisible")
		}
		return d
	}
	return Zomega{q(z.A), q(z.B), q(z.C), q(z.D)}
}

// String renders z as a readable polynomial in ω.
func (z Zomega) String() string {
	return fmt.Sprintf("(%v·ω³ + %v·ω² + %v·ω + %v)", z.A, z.B, z.C, z.D)
}

// MaxBitLen returns the largest bit length among the four coefficients.
// It is the per-number contribution to the "bit-width growth" statistic the
// paper uses to explain the GSE overhead.
func (z Zomega) MaxBitLen() int {
	m := z.A.BitLen()
	if b := z.B.BitLen(); b > m {
		m = b
	}
	if b := z.C.BitLen(); b > m {
		m = b
	}
	if b := z.D.BitLen(); b > m {
		m = b
	}
	return m
}

package alg

import "math/big"

// Zroot2 is an element u + v√2 of the real quadratic ring Z[√2]. It appears
// as the codomain of the squared-magnitude norm N(z) = z·z̄ on Z[ω] and
// carries the unit structure (the Pell unit 1+√2) used when the GCD
// normalization scheme selects a canonical associate.
type Zroot2 struct {
	U, V *big.Int
}

// Equal reports value equality (coefficient equality, as √2 is irrational).
func (r Zroot2) Equal(s Zroot2) bool {
	return r.U.Cmp(s.U) == 0 && r.V.Cmp(s.V) == 0
}

// Mul returns r · s: (u₁ + v₁√2)(u₂ + v₂√2) = (u₁u₂ + 2v₁v₂) + (u₁v₂ + v₁u₂)√2.
func (r Zroot2) Mul(s Zroot2) Zroot2 {
	u := new(big.Int).Mul(r.U, s.U)
	t := new(big.Int).Mul(r.V, s.V)
	t.Lsh(t, 1)
	u.Add(u, t)
	v := new(big.Int).Mul(r.U, s.V)
	t2 := new(big.Int).Mul(r.V, s.U)
	v.Add(v, t2)
	return Zroot2{u, v}
}

// Conj returns the √2-conjugate u − v√2.
func (r Zroot2) Conj() Zroot2 {
	return Zroot2{cp(r.U), new(big.Int).Neg(r.V)}
}

// FieldNorm returns u² − 2v² ∈ Z, the norm of r over Q (may be negative).
func (r Zroot2) FieldNorm() *big.Int {
	n := new(big.Int).Mul(r.U, r.U)
	t := new(big.Int).Mul(r.V, r.V)
	t.Lsh(t, 1)
	return n.Sub(n, t)
}

// FieldNormAbs returns |u² − 2v²|.
func (r Zroot2) FieldNormAbs() *big.Int {
	return new(big.Int).Abs(r.FieldNorm())
}

// Zomega embeds r into Z[ω] using √2 = ω − ω³.
func (r Zroot2) Zomega() Zomega {
	return Zomega{
		A: new(big.Int).Neg(r.V),
		B: new(big.Int),
		C: cp(r.V),
		D: cp(r.U),
	}
}

// Float returns u + v√2 as a big.Float with the given precision.
func (r Zroot2) Float(prec uint) *big.Float {
	u := new(big.Float).SetPrec(prec).SetInt(r.U)
	v := new(big.Float).SetPrec(prec).SetInt(r.V)
	v.Mul(v, sqrt2At(prec))
	return u.Add(u, v)
}

// sqrt2Float computes √2 at the given precision. Every caller goes through
// sqrt2At, which computes it once per precision; the computation itself
// costs a big.Float square root.
func sqrt2Float(prec uint) *big.Float {
	two := new(big.Float).SetPrec(prec + 8).SetInt64(2)
	return new(big.Float).SetPrec(prec).Sqrt(two)
}

package num

import (
	"math"
	"math/cmplx"

	"repro/internal/alg"
)

// Ring adapts complex128-with-tolerance arithmetic to the coeff.Ring
// interface. Every operation result is interned through the tolerance table,
// mirroring how existing QMDD packages canonicalize complex numbers after
// each arithmetic step.
type Ring struct {
	T *Table
}

// NewRing returns a numerical coefficient ring with comparison tolerance ε.
func NewRing(eps float64) *Ring { return &Ring{T: NewTable(eps)} }

// Eps returns the configured tolerance.
func (r *Ring) Eps() float64 { return r.T.Tol }

// Exact reports that complex128 arithmetic is not exact (coeff.ExactRing):
// results carry float rounding, and at ε > 0 the interning tolerance folds
// nearby values together. Fidelity figures derived in this ring are
// approximate and are flagged as such by core.Approximate.
func (r *Ring) Exact() bool { return false }

func (r *Ring) intern(v complex128) complex128 { return r.T.Lookup(v) }

// Zero returns 0.
func (r *Ring) Zero() complex128 { return 0 }

// One returns 1.
func (r *Ring) One() complex128 { return 1 }

// Add returns the interned sum a + b.
func (r *Ring) Add(a, b complex128) complex128 { return r.intern(a + b) }

// Sub returns the interned difference a − b.
func (r *Ring) Sub(a, b complex128) complex128 { return r.intern(a - b) }

// Mul returns the interned product a · b.
func (r *Ring) Mul(a, b complex128) complex128 { return r.intern(a * b) }

// Div returns the interned quotient a / b.
func (r *Ring) Div(a, b complex128) complex128 { return r.intern(a / b) }

// Neg returns −a.
func (r *Ring) Neg(a complex128) complex128 { return r.intern(-a) }

// Conj returns the complex conjugate.
func (r *Ring) Conj(a complex128) complex128 { return r.intern(cmplx.Conj(a)) }

// IsZero reports a ≈ 0 within the tolerance.
func (r *Ring) IsZero(a complex128) bool { return Near(a, 0, r.T.Tol) }

// IsOne reports a ≈ 1 within the tolerance.
func (r *Ring) IsOne(a complex128) bool { return Near(a, 1, r.T.Tol) }

// Equal reports component-wise equality within the tolerance.
func (r *Ring) Equal(a, b complex128) bool { return Near(a, b, r.T.Tol) }

// Key returns the bit-exact key of the (already interned) value.
func (r *Ring) Key(a complex128) string { return KeyOf(a) }

// Hash returns a 64-bit hash of the exact bit pattern of a — the
// coeff.Hasher fast path, consistent with Key and allocation-free.
func (r *Ring) Hash(a complex128) uint64 {
	const (
		offset uint64 = 14695981039346656037
		prime  uint64 = 1099511628211
	)
	h := (offset ^ math.Float64bits(real(a))) * prime
	return (h ^ math.Float64bits(imag(a))) * prime
}

// FromQ approximates an exact Q[ω] value by the nearest complex128.
func (r *Ring) FromQ(q alg.Q) complex128 { return r.intern(q.Complex128()) }

// FromComplex interns an arbitrary complex value (always possible here).
func (r *Ring) FromComplex(c complex128) (complex128, bool) { return r.intern(c), true }

// Complex128 returns a unchanged.
func (r *Ring) Complex128(a complex128) complex128 { return a }

// Abs2 returns |a|².
func (r *Ring) Abs2(a complex128) float64 {
	return real(a)*real(a) + imag(a)*imag(a)
}

// BitLen returns 0: floating-point coefficients have fixed width.
func (r *Ring) BitLen(complex128) int { return 0 }

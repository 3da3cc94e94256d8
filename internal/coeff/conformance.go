package coeff

import (
	"fmt"
	"math/cmplx"
)

// Conformance checking for Ring implementations: a table-driven law suite
// any coefficient ring must satisfy for the QMDD core to be correct. It is
// exported (rather than living in a _test file) so every implementation
// package can run it against its own ring with its own sample generator.

// CheckRing verifies the ring laws on the given samples (which should
// include 0, 1 and a diverse spread of values). tol bounds the allowed
// deviation in the complex128 cross-checks — 0 for exact rings, a small
// epsilon for floating-point rings. It returns the first violation found.
func CheckRing[T any](r Ring[T], samples []T, tol float64) error {
	if !r.IsZero(r.Zero()) {
		return fmt.Errorf("IsZero(Zero()) is false")
	}
	if !r.IsOne(r.One()) {
		return fmt.Errorf("IsOne(One()) is false")
	}
	if r.IsZero(r.One()) {
		return fmt.Errorf("One() reported zero")
	}
	exact := false
	if er, ok := any(r).(ExactRing); ok {
		exact = er.Exact()
	}
	near := func(a, b complex128, scale float64) bool {
		return cmplx.Abs(a-b) <= tol*(1+scale)+1e-15
	}
	// lawEqual: exact rings satisfy the laws structurally; floating-point
	// rings only satisfy them within their tolerance — bit-exact
	// distributivity of (a+b)·c genuinely FAILS for complex128 (see the
	// paper's Section III and TestFloatsAreNotDistributive).
	lawEqual := func(x, y T) bool {
		if r.Equal(x, y) {
			return true
		}
		cx, cy := r.Complex128(x), r.Complex128(y)
		return near(cx, cy, cmplx.Abs(cx)+cmplx.Abs(cy))
	}
	for i, a := range samples {
		// Neutral elements.
		if !r.Equal(r.Add(a, r.Zero()), a) {
			return fmt.Errorf("sample %d: a + 0 ≠ a", i)
		}
		if !r.Equal(r.Mul(a, r.One()), a) {
			return fmt.Errorf("sample %d: a · 1 ≠ a", i)
		}
		if !r.Equal(r.Conj(r.Conj(a)), a) {
			return fmt.Errorf("sample %d: conj not involutive", i)
		}
		if r.Hash(a) != r.Hash(a) {
			return fmt.Errorf("sample %d: Hash not deterministic", i)
		}
		if b := r.Mul(a, r.One()); r.Hash(r.Mul(b, r.One())) != r.Hash(b) {
			return fmt.Errorf("sample %d: re-interned copy hashes differently", i)
		}
		// Abs2 matches the complex view.
		c := r.Complex128(a)
		want := real(c)*real(c) + imag(c)*imag(c)
		if d := r.Abs2(a) - want; d > tol*(1+want)+1e-9 || d < -tol*(1+want)-1e-9 {
			return fmt.Errorf("sample %d: Abs2 = %v, complex view %v", i, r.Abs2(a), want)
		}
		// Division inverts multiplication for nonzero divisors.
		if !r.IsZero(a) {
			for j, b := range samples {
				q := r.Div(r.Mul(b, a), a)
				if !near(r.Complex128(q), r.Complex128(b), cmplx.Abs(r.Complex128(b))) {
					return fmt.Errorf("samples %d,%d: (b·a)/a ≠ b", i, j)
				}
			}
		}
	}
	for i, a := range samples {
		for j, b := range samples {
			if r.Equal(a, b) != r.Equal(b, a) {
				return fmt.Errorf("samples %d,%d: Equal not symmetric", i, j)
			}
			// Only exact rings owe Equal ⇒ same Hash: a float ring's Equal
			// is ε-tolerant while its Hash is bit-exact.
			if exact && r.Equal(a, b) && r.Hash(a) != r.Hash(b) {
				return fmt.Errorf("samples %d,%d: equal values with different hashes", i, j)
			}
			if !lawEqual(r.Add(a, b), r.Add(b, a)) {
				return fmt.Errorf("samples %d,%d: addition not commutative", i, j)
			}
			if !lawEqual(r.Mul(a, b), r.Mul(b, a)) {
				return fmt.Errorf("samples %d,%d: multiplication not commutative", i, j)
			}
			// Homomorphism to complex numbers (within tolerance).
			ca, cb := r.Complex128(a), r.Complex128(b)
			if !near(r.Complex128(r.Add(a, b)), ca+cb, cmplx.Abs(ca)+cmplx.Abs(cb)) {
				return fmt.Errorf("samples %d,%d: complex view of sum off", i, j)
			}
			if !near(r.Complex128(r.Mul(a, b)), ca*cb, cmplx.Abs(ca*cb)) {
				return fmt.Errorf("samples %d,%d: complex view of product off", i, j)
			}
			for k, c := range samples {
				if !lawEqual(r.Mul(a, r.Add(b, c)), r.Add(r.Mul(a, b), r.Mul(a, c))) {
					return fmt.Errorf("samples %d,%d,%d: distributivity fails", i, j, k)
				}
			}
		}
	}
	return nil
}

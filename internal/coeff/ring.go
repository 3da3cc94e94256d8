// Package coeff defines the coefficient abstraction that lets one QMDD core
// serve both number representations the paper compares: the state-of-the-art
// numerical representation (complex128 with an ε comparison tolerance) and
// the proposed exact algebraic representation (Q[ω] / D[ω]).
package coeff

import "repro/internal/alg"

// Ring is the set of operations the QMDD core needs from edge weights.
// Implementations must be deterministic: Key must return identical strings
// for values the implementation considers equal, because node uniqueness
// (and hence DD canonicity) is keyed on it.
type Ring[T any] interface {
	Zero() T
	One() T
	Add(a, b T) T
	Sub(a, b T) T
	Mul(a, b T) T
	// Div returns a/b. For field implementations b may be any nonzero value;
	// implementations over rings may restrict it (see GCDRing.DivExact).
	Div(a, b T) T
	Neg(a T) T
	Conj(a T) T
	IsZero(a T) bool
	IsOne(a T) bool
	Equal(a, b T) bool
	// Key is a canonical hash key for unique/compute tables.
	Key(a T) string
	// FromQ injects an exact Q[ω] value (possibly approximating it, for
	// numerical implementations).
	FromQ(q alg.Q) T
	// FromComplex injects an arbitrary complex value. ok is false for exact
	// rings, which cannot represent arbitrary values — parametric gates must
	// then be compiled to Clifford+T first (internal/synth), exactly as the
	// paper prepares GSE with Quipper.
	FromComplex(c complex128) (T, bool)
	Complex128(a T) complex128
	// Abs2 is the squared magnitude |a|² as a float64 (used by the
	// max-magnitude normalization scheme and by measurement sampling).
	Abs2(a T) float64
	// BitLen reports the coefficient bit-width of a (0 where meaningless),
	// the statistic behind the paper's overhead analysis on GSE.
	BitLen(a T) int
}

// Hasher is an optional fast path a Ring can implement so the QMDD core can
// hash weights without formatting Key strings. Hash must be deterministic
// and consistent with Key: Key(a) == Key(b) implies Hash(a) == Hash(b) (for
// exact rings, where Key coincides with Equal, this means equal values hash
// equally). Both built-in rings implement it — num hashes the complex128
// bit patterns, alg hashes big.Int limbs directly — so the hot path of node
// creation and operation memoization never builds a string. Rings without it
// fall back to hashing the Key string.
type Hasher[T any] interface {
	Hash(a T) uint64
}

// ExactRing is an optional marker a Ring can implement to declare whether
// its arithmetic is exact: every Add/Mul/Div result is the true value, not a
// rounded or tolerance-interned approximation. The algebraic ring qualifies;
// the numerical ring does not (complex128 rounding, plus ε-interning side
// effects at ε > 0). Consumers that can certify results exactly — the
// fidelity accounting of core.Approximate — use this to decide whether to
// report an exact or an approximate figure.
type ExactRing interface {
	Exact() bool
}

// GCDRing is implemented by coefficient rings that additionally support
// Euclidean GCDs, enabling the GCD normalization scheme (Algorithm 3).
type GCDRing[T any] interface {
	Ring[T]
	// GCD returns a greatest common divisor of the nonzero values in ws,
	// already unit-adjusted against the leftmost nonzero value per
	// Algorithm 3. ok is false when the weights leave the subring in which
	// GCDs exist (callers then fall back to field normalization).
	GCD(ws []T) (g T, ok bool)
	// DivExact returns a/b when b divides a in the subring.
	DivExact(a, b T) (T, bool)
}

// Package coeff defines the coefficient abstraction that lets one QMDD core
// serve both number representations the paper compares: the state-of-the-art
// numerical representation (complex128 with an ε comparison tolerance) and
// the proposed exact algebraic representation (Q[ω] / D[ω]).
package coeff

import "repro/internal/alg"

// Ring is the set of operations the QMDD core needs from edge weights.
// Implementations must be deterministic: node uniqueness (and hence DD
// canonicity) is keyed on Hash, so a value must always hash the same.
type Ring[T any] interface {
	Zero() T
	One() T
	Add(a, b T) T
	Mul(a, b T) T
	// Div returns a/b. For field implementations b may be any nonzero value;
	// implementations over rings may restrict it (see GCDRing.DivExact).
	Div(a, b T) T
	Conj(a T) T
	IsZero(a T) bool
	IsOne(a T) bool
	Equal(a, b T) bool
	// Hash is the weight hash the QMDD core's tables key on. It must be
	// deterministic and agree with value identity: bit-identical values
	// (and, for exact rings, Equal values) hash equally. num hashes the
	// complex128 bit patterns and alg hashes big.Int limbs directly, so node
	// creation and operation memoization never build a string.
	Hash(a T) uint64
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

// Resetter is an optional interface for a Ring that carries state from one
// operation to the next, so that a result can depend on earlier work: the
// numerical ring's ε-interning table decides which representative a value
// lands on. core.Manager.Reset calls Reset, which returns the ring to its
// freshly constructed state.
type Resetter interface {
	Reset()
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

// Package gates defines the quantum gate library: exactly representable
// Clifford+T-family gates with entries in D[ω] (usable by both the algebraic
// and the numerical representation) and parametric rotation gates with
// complex128 entries (numerical representation only — the algebraic QMDD
// requires them to be compiled to Clifford+T first, exactly as the paper
// does for GSE via Quipper; this reproduction uses internal/synth).
package gates

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/alg"
)

// Matrix2 is a 2×2 gate matrix with exact entries.
type Matrix2 [2][2]alg.Q

// Complex returns the matrix with complex128 entries.
func (g Matrix2) Complex() [2][2]complex128 {
	var out [2][2]complex128
	for i := range g {
		for j := range g[i] {
			out[i][j] = g[i][j].Complex128()
		}
	}
	return out
}

// The exactly representable standard gates. ω = e^{iπ/4}.
//
// Concurrency: these package-level matrices (and the two constants below)
// are immutable after package init — alg.Q arithmetic never mutates its
// operands' big.Ints, and BaseFor/Exact only read them — so share-nothing
// workers may build gate diagrams from them concurrently without locking.
// Never write to them or to their embedded big.Int pointers.
var (
	I = Matrix2{{alg.QOne, alg.QZero}, {alg.QZero, alg.QOne}}
	X = Matrix2{{alg.QZero, alg.QOne}, {alg.QOne, alg.QZero}}
	Y = Matrix2{{alg.QZero, alg.QI.Neg()}, {alg.QI, alg.QZero}}
	Z = Matrix2{{alg.QOne, alg.QZero}, {alg.QZero, alg.QMinusOne}}
	// H = 1/√2 [[1, 1], [1, −1]]
	H = Matrix2{
		{alg.QInvSqrt2, alg.QInvSqrt2},
		{alg.QInvSqrt2, alg.QInvSqrt2.Neg()},
	}
	// S = diag(1, i) — the Phase gate, S = T².
	S   = Matrix2{{alg.QOne, alg.QZero}, {alg.QZero, alg.QI}}
	Sdg = Matrix2{{alg.QOne, alg.QZero}, {alg.QZero, alg.QI.Neg()}}
	// T = diag(1, ω) — the π/4 gate.
	T   = Matrix2{{alg.QOne, alg.QZero}, {alg.QZero, alg.QFromD(alg.DOmegaVal)}}
	Tdg = Matrix2{{alg.QOne, alg.QZero}, {alg.QZero, alg.QFromD(alg.DOmegaPow(7))}}
	// SX = √X = 1/2 [[1+i, 1−i], [1−i, 1+i]].
	SX = Matrix2{
		{halfOnePlusI, halfOneMinusI},
		{halfOneMinusI, halfOnePlusI},
	}
	SXdg = Matrix2{
		{halfOneMinusI, halfOnePlusI},
		{halfOnePlusI, halfOneMinusI},
	}
)

var (
	halfOnePlusI  = alg.NewQ(0, 1, 0, 1, 2, 1)  // (1+i)/2
	halfOneMinusI = alg.NewQ(0, -1, 0, 1, 2, 1) // (1−i)/2
)

// Exact returns the exact matrix of a named non-parametric gate.
func Exact(name string) (Matrix2, bool) {
	switch name {
	case "id", "i":
		return I, true
	case "x":
		return X, true
	case "y":
		return Y, true
	case "z":
		return Z, true
	case "h":
		return H, true
	case "s":
		return S, true
	case "sdg":
		return Sdg, true
	case "t":
		return T, true
	case "tdg":
		return Tdg, true
	case "sx", "v":
		return SX, true
	case "sxdg", "vdg":
		return SXdg, true
	}
	return Matrix2{}, false
}

// Numeric returns the complex128 matrix of a named gate, including the
// parametric rotations. Angles are in radians.
func Numeric(name string, params []float64) ([2][2]complex128, error) {
	if g, ok := Exact(name); ok {
		return g.Complex(), nil
	}
	need := func(n int) error {
		if len(params) != n {
			return fmt.Errorf("gates: %s expects %d parameter(s), got %d", name, n, len(params))
		}
		return nil
	}
	switch name {
	case "rz":
		if err := need(1); err != nil {
			return [2][2]complex128{}, err
		}
		return RZ(params[0]), nil
	case "rx":
		if err := need(1); err != nil {
			return [2][2]complex128{}, err
		}
		return RX(params[0]), nil
	case "ry":
		if err := need(1); err != nil {
			return [2][2]complex128{}, err
		}
		return RY(params[0]), nil
	case "p", "u1", "phase":
		if err := need(1); err != nil {
			return [2][2]complex128{}, err
		}
		return Phase(params[0]), nil
	case "u", "u3":
		if err := need(3); err != nil {
			return [2][2]complex128{}, err
		}
		return U3(params[0], params[1], params[2]), nil
	}
	return [2][2]complex128{}, fmt.Errorf("gates: unknown gate %q", name)
}

// RZ returns Rz(θ) = diag(e^{−iθ/2}, e^{iθ/2}).
func RZ(theta float64) [2][2]complex128 {
	return [2][2]complex128{
		{cmplx.Exp(complex(0, -theta/2)), 0},
		{0, cmplx.Exp(complex(0, theta/2))},
	}
}

// RX returns Rx(θ).
func RX(theta float64) [2][2]complex128 {
	c, s := math.Cos(theta/2), math.Sin(theta/2)
	return [2][2]complex128{
		{complex(c, 0), complex(0, -s)},
		{complex(0, -s), complex(c, 0)},
	}
}

// RY returns Ry(θ).
func RY(theta float64) [2][2]complex128 {
	c, s := math.Cos(theta/2), math.Sin(theta/2)
	return [2][2]complex128{
		{complex(c, 0), complex(-s, 0)},
		{complex(s, 0), complex(c, 0)},
	}
}

// Phase returns P(θ) = diag(1, e^{iθ}).
func Phase(theta float64) [2][2]complex128 {
	return [2][2]complex128{{1, 0}, {0, cmplx.Exp(complex(0, theta))}}
}

// U3 returns the generic single-qubit gate U(θ, φ, λ).
func U3(theta, phi, lambda float64) [2][2]complex128 {
	c, s := math.Cos(theta/2), math.Sin(theta/2)
	return [2][2]complex128{
		{complex(c, 0), -cmplx.Exp(complex(0, lambda)) * complex(s, 0)},
		{cmplx.Exp(complex(0, phi)) * complex(s, 0),
			cmplx.Exp(complex(0, phi+lambda)) * complex(c, 0)},
	}
}

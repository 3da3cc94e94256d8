// Package accuracy implements the paper's error metric (footnote 8): the
// Euclidean distance between the numerically computed state vector —
// renormalized to unit length, since a pure length error is trivially
// fixable — and the exact state vector from the algebraic representation.
// The comparison itself runs in extended-precision big.Float arithmetic so
// that it can resolve errors at and below the double-precision ulp level
// instead of drowning them in conversion noise.
package accuracy

import (
	"math/big"

	"repro/internal/alg"
)

// Prec is the working precision (bits) of the comparison.
const Prec = 96

// VectorError returns ‖v_num/‖v_num‖ − v_alg‖₂ for the amplitude vectors
// of an n-qubit state. When the numeric vector has collapsed to (near) zero
// — the paper's ε-too-large failure mode — the distance to the exact unit
// vector is returned (≈ 1), since no renormalization can recover it.
func VectorError(numAmps []complex128, algAmps []alg.Q) float64 {
	if len(numAmps) != len(algAmps) {
		panic("accuracy: dimension mismatch")
	}
	// ‖v_num‖² in big.Float.
	norm2 := new(big.Float).SetPrec(Prec)
	t := new(big.Float).SetPrec(Prec)
	for _, a := range numAmps {
		re := new(big.Float).SetPrec(Prec).SetFloat64(real(a))
		im := new(big.Float).SetPrec(Prec).SetFloat64(imag(a))
		norm2.Add(norm2, t.Mul(re, re))
		norm2.Add(norm2, new(big.Float).SetPrec(Prec).Mul(im, im))
	}
	zeroVec := norm2.Sign() == 0
	var nrm *big.Float
	if !zeroVec {
		nrm = new(big.Float).SetPrec(Prec).Sqrt(norm2)
	}
	sum := new(big.Float).SetPrec(Prec)
	for i, a := range numAmps {
		re := new(big.Float).SetPrec(Prec).SetFloat64(real(a))
		im := new(big.Float).SetPrec(Prec).SetFloat64(imag(a))
		if !zeroVec {
			re.Quo(re, nrm)
			im.Quo(im, nrm)
		}
		are, aim := algAmps[i].Float(Prec)
		re.Sub(re, are)
		im.Sub(im, aim)
		sum.Add(sum, new(big.Float).SetPrec(Prec).Mul(re, re))
		sum.Add(sum, new(big.Float).SetPrec(Prec).Mul(im, im))
	}
	d := new(big.Float).SetPrec(Prec).Sqrt(sum)
	f, _ := d.Float64()
	return f
}

package alg

import (
	"math/big"
	"sync"
)

// Floating-point views of the exact values. These are used only at the
// boundary of the system: when exporting amplitudes, when computing the
// accuracy metric ‖v_num − v_alg‖₂ (in big.Float so the comparison itself
// does not drown in float64 noise), and when sampling measurement outcomes.

// sqrt2Cache is the only mutable package-level state in alg, shared by
// every manager/goroutine that exports amplitudes. It memoizes √2 per
// precision as a *big.Float that is treated as strictly immutable once
// published: all users read it via big.Float operations (Quo/Mul with a
// fresh receiver) and never pass it as a receiver. LoadOrStore keeps the
// published value canonical — two goroutines racing on a cold precision
// both end up holding the same pointer, not two equal-but-distinct ones.
var sqrt2Cache sync.Map // prec uint -> *big.Float (immutable after publish)

func sqrt2At(prec uint) *big.Float {
	if v, ok := sqrt2Cache.Load(prec); ok {
		return v.(*big.Float)
	}
	v, _ := sqrt2Cache.LoadOrStore(prec, sqrt2Float(prec))
	return v.(*big.Float)
}

// Float returns the real and imaginary parts of z at the given precision.
//
// With ω = (1+i)/√2 and ω³ = (−1+i)/√2:
//
//	Re = (C − A)/√2 + D,  Im = (C + A)/√2 + B.
func (z Zomega) Float(prec uint) (re, im *big.Float) {
	wp := prec + 16
	s2 := sqrt2At(wp)
	re = new(big.Float).SetPrec(wp).SetInt(new(big.Int).Sub(z.C, z.A))
	re.Quo(re, s2)
	re.Add(re, new(big.Float).SetPrec(wp).SetInt(z.D))
	im = new(big.Float).SetPrec(wp).SetInt(new(big.Int).Add(z.C, z.A))
	im.Quo(im, s2)
	im.Add(im, new(big.Float).SetPrec(wp).SetInt(z.B))
	return re.SetPrec(prec), im.SetPrec(prec)
}

// Float returns the real and imaginary parts of d at the given precision.
func (d D) Float(prec uint) (re, im *big.Float) {
	wp := prec + 16
	re, im = d.W.Float(wp)
	if d.K != 0 {
		scale := sqrt2PowFloat(-d.K, wp)
		re.Mul(re, scale)
		im.Mul(im, scale)
	}
	return re.SetPrec(prec), im.SetPrec(prec)
}

// Float returns the real and imaginary parts of q at the given precision.
func (q Q) Float(prec uint) (re, im *big.Float) {
	wp := prec + 16
	re, im = q.N.Float(wp)
	if q.E.Cmp(bigOne) != 0 {
		e := new(big.Float).SetPrec(wp).SetInt(q.E)
		re.Quo(re, e)
		im.Quo(im, e)
	}
	return re.SetPrec(prec), im.SetPrec(prec)
}

// sqrt2PowFloat returns √2^j at the given precision (j may be negative).
func sqrt2PowFloat(j int, prec uint) *big.Float {
	r := new(big.Float).SetPrec(prec).SetInt64(1)
	neg := j < 0
	if neg {
		j = -j
	}
	// √2^j = 2^{j/2} · √2^{j mod 2}
	r.SetMantExp(r, j/2)
	if j%2 == 1 {
		r.Mul(r, sqrt2At(prec))
	}
	if neg {
		one := new(big.Float).SetPrec(prec).SetInt64(1)
		r = one.Quo(one, r)
	}
	return r
}

// Complex128 returns the nearest complex128 to z.
func (z Zomega) Complex128() complex128 { return toC128(z.Float(64)) }

// Complex128 returns the nearest complex128 to d.
func (d D) Complex128() complex128 { return toC128(d.Float(64)) }

// Complex128 returns the nearest complex128 to q.
func (q Q) Complex128() complex128 { return toC128(q.Float(64)) }

func toC128(re, im *big.Float) complex128 {
	r, _ := re.Float64()
	i, _ := im.Float64()
	return complex(r, i)
}

// Abs2 returns |q|² as a float64, computed from the exact norm so it is
// accurate even when the coefficients are huge.
func (q Q) Abs2() float64 {
	if q.IsZero() {
		return 0
	}
	n, k := q.N.Norm()
	// |q|² = (u + v√2) / (2^{k/2·2} … ) / E²; do it in big.Float.
	prec := uint(96)
	f := n.Float(prec)
	f.Mul(f, sqrt2PowFloat(-2*k, prec))
	e2 := new(big.Float).SetPrec(prec).SetInt(new(big.Int).Mul(q.E, q.E))
	f.Quo(f, e2)
	v, _ := f.Float64()
	return v
}

// Abs2 returns |d|² as a float64.
func (d D) Abs2() float64 { return QFromD(d).Abs2() }

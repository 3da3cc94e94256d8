package alg

// Ring adapts Q[ω] to the coefficient-ring interface the QMDD core consumes
// (it satisfies coeff.Ring[Q] and coeff.GCDRing[Q] structurally; this package
// deliberately does not import the interface package). All operations are
// exact; there is no tolerance anywhere.
type Ring struct{}

// Zero returns 0.
func (Ring) Zero() Q { return QZero }

// One returns 1.
func (Ring) One() Q { return QOne }

// Add returns a + b.
func (Ring) Add(a, b Q) Q { return a.Add(b) }

// Sub returns a − b.
func (Ring) Sub(a, b Q) Q { return a.Sub(b) }

// Mul returns a · b.
func (Ring) Mul(a, b Q) Q { return a.Mul(b) }

// Div returns a / b (exact: Q[ω] is a field).
func (Ring) Div(a, b Q) Q { return a.Div(b) }

// Neg returns −a.
func (Ring) Neg(a Q) Q { return a.Neg() }

// Conj returns the complex conjugate.
func (Ring) Conj(a Q) Q { return a.Conj() }

// IsZero reports a == 0 (exactly).
func (Ring) IsZero(a Q) bool { return a.IsZero() }

// IsOne reports a == 1 (exactly).
func (Ring) IsOne(a Q) bool { return a.IsOne() }

// Equal reports exact value equality.
func (Ring) Equal(a, b Q) bool { return a.Equal(b) }

// Key returns the canonical hash key.
func (Ring) Key(a Q) string { return a.Key() }

// Exact reports that Q[ω] arithmetic is exact (coeff.ExactRing): every ring
// operation returns the true algebraic value, so derived quantities like the
// retained-fidelity ratio of core.Approximate can be certified.
func (Ring) Exact() bool { return true }

// FromQ is the identity injection.
func (Ring) FromQ(q Q) Q { return q }

// FromComplex always fails: Q[ω] cannot represent arbitrary complex values.
// Parametric gates must be compiled to Clifford+T first.
func (Ring) FromComplex(complex128) (Q, bool) { return QZero, false }

// Complex128 returns the nearest complex128 (export boundary only).
func (Ring) Complex128(a Q) complex128 { return a.Complex128() }

// Abs2 returns |a|² as a float64 computed from the exact norm.
func (Ring) Abs2(a Q) float64 { return a.Abs2() }

// BitLen returns the maximum coefficient bit width.
func (Ring) BitLen(a Q) int { return a.MaxBitLen() }

// GCD implements the GCD computation of Algorithm 3: all weights must lie in
// the subring D[ω]; the returned divisor is unit-adjusted against the
// leftmost nonzero weight so that dividing by it yields the canonical
// associate. ok is false when some weight has an odd denominator (the
// weights left D[ω], e.g. after Q[ω]-inverse normalization elsewhere).
func (Ring) GCD(ws []Q) (Q, bool) {
	ds := make([]D, 0, len(ws))
	var leftmost D
	haveLeft := false
	for _, w := range ws {
		if w.IsZero() {
			continue
		}
		d, ok := w.InD()
		if !ok {
			return QZero, false
		}
		ds = append(ds, d)
		if !haveLeft {
			leftmost, haveLeft = d, true
		}
	}
	if !haveLeft {
		return QZero, false
	}
	g := GCDD(ds...)
	g = AdjustGCD(g, leftmost)
	return QFromD(g), true
}

// DivExact returns a/b when both lie in D[ω] and b divides a there.
func (Ring) DivExact(a, b Q) (Q, bool) {
	da, ok := a.InD()
	if !ok {
		return QZero, false
	}
	db, ok := b.InD()
	if !ok {
		return QZero, false
	}
	q, ok := da.DivE(db)
	if !ok {
		return QZero, false
	}
	return QFromD(q), true
}

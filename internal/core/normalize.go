package core

import "repro/internal/coeff"

// normalize rewrites the edge weights in place according to the manager's
// normalization scheme and returns the extracted factor η. At least one
// weight must be nonzero. The postcondition that makes QMDDs canonical:
// equal weight vectors up to a scalar normalize to the identical weight
// vector.
func (m *Manager[T]) normalize(es []Edge[T]) T {
	switch m.Norm {
	case NormMax:
		return m.normalizeMax(es)
	case NormGCD:
		if eta, ok := m.normalizeGCD(es); ok {
			return eta
		}
		return m.normalizeLeft(es)
	default:
		return m.normalizeLeft(es)
	}
}

// normalizeLeft divides by the leftmost nonzero weight (classic QMDD rule;
// Algorithm 2 when the ring is Q[ω]). The pivot weight is set to an exact
// one, so no division residue can break redundancy detection on the pivot
// itself.
func (m *Manager[T]) normalizeLeft(es []Edge[T]) T {
	i := 0
	for m.R.IsZero(es[i].W) {
		i++
	}
	eta := es[i].W
	es[i].W = m.R.One()
	// Division by an exact 1 is the identity in every ring (bit-exact even
	// for complex128), and trivial pivots dominate in practice — skip the
	// whole division pass for them.
	if m.R.IsOne(eta) {
		return eta
	}
	for j := i + 1; j < len(es); j++ {
		if !m.R.IsZero(es[j].W) {
			es[j].W = m.arith.Div(es[j].W, eta)
		}
	}
	return eta
}

// normalizeMax divides by the leftmost weight of largest squared magnitude,
// which keeps all weights at magnitude ≤ 1 (the numerically stabilized rule
// of [29], at the cost of one magnitude scan per node).
func (m *Manager[T]) normalizeMax(es []Edge[T]) T {
	best, bestAbs := -1, 0.0
	for i, e := range es {
		if m.R.IsZero(e.W) {
			continue
		}
		if a := m.R.Abs2(e.W); best < 0 || a > bestAbs {
			best, bestAbs = i, a
		}
	}
	eta := es[best].W
	es[best].W = m.R.One()
	if m.R.IsOne(eta) {
		return eta
	}
	for j := range es {
		if j != best && !m.R.IsZero(es[j].W) {
			es[j].W = m.arith.Div(es[j].W, eta)
		}
	}
	return eta
}

// normalizeGCD implements Algorithm 3: factor out a greatest common divisor
// of the weights, unit-adjusted so that the leftmost nonzero weight becomes
// its canonical associate. Unlike the field schemes the pivot weight does
// not become 1 in general. ok is false when the coefficient ring does not
// support GCDs or the weights left the GCD subring.
func (m *Manager[T]) normalizeGCD(es []Edge[T]) (T, bool) {
	gr, ok := any(m.R).(coeff.GCDRing[T])
	if !ok {
		var zero T
		return zero, false
	}
	ws := make([]T, len(es))
	for i, e := range es {
		ws[i] = e.W
	}
	eta, ok := gr.GCD(ws)
	if !ok {
		return eta, false
	}
	for j := range es {
		if m.R.IsZero(es[j].W) {
			continue
		}
		q, ok := gr.DivExact(es[j].W, eta)
		if !ok {
			panic("core: GCD normalization factor does not divide a weight")
		}
		es[j].W = q
	}
	return eta, true
}

package core

import (
	"fmt"
)

// Project applies the projector |outcome⟩⟨outcome| on the given qubit
// (0-based, qubit 0 = top level) to a vector diagram and returns the
// *unnormalized* projected state together with the outcome probability
// (‖Pψ‖²/‖ψ‖²). Out-of-range arguments and structurally invalid diagrams
// return an error (the latter wrapping ErrMalformedDiagram); a budget trip
// while building the projected diagram surfaces as a *BudgetError.
//
// The result is deliberately not renormalized: the factor 1/√p generally
// lies outside D[ω], so renormalizing would either leave the exact ring or
// silently reintroduce floating point. Callers that need a unit vector can
// track the norm separately (probabilities and further projections are
// unaffected) — the same convention exact QMDD measurement uses.
func (m *Manager[T]) Project(v Edge[T], n, qubit, outcome int) (proj Edge[T], p float64, err error) {
	if qubit < 0 || qubit >= n {
		return m.ZeroEdge(), 0, fmt.Errorf("core: Project qubit %d out of range [0,%d)", qubit, n)
	}
	if outcome != 0 && outcome != 1 {
		return m.ZeroEdge(), 0, fmt.Errorf("core: Project outcome must be 0 or 1, got %d", outcome)
	}
	if !m.IsZero(v) {
		if v.N == nil || v.N.Level != n {
			got := 0
			if v.N != nil {
				got = v.N.Level
			}
			return m.ZeroEdge(), 0, fmt.Errorf("%w: root at level %d for a %d-qubit Project",
				ErrMalformedDiagram, got, n)
		}
	}
	defer RecoverTo(&err) // budget trips inside MakeNode/Scale
	before := m.Norm2(v)
	level := n - qubit
	proj, err = m.projectRec(v, level, outcome, make(map[*Node[T]]Edge[T]))
	if err != nil {
		return m.ZeroEdge(), 0, err
	}
	if before == 0 {
		return proj, 0, nil
	}
	return proj, m.Norm2(proj) / before, nil
}

func (m *Manager[T]) projectRec(e Edge[T], level, outcome int, memo map[*Node[T]]Edge[T]) (Edge[T], error) {
	if m.IsZero(e) {
		return m.ZeroEdge(), nil
	}
	if e.N == nil || e.N.Level < level {
		got := 0
		if e.N != nil {
			got = e.N.Level
		}
		return m.ZeroEdge(), fmt.Errorf("%w: level %d reached where level ≥ %d was expected in Project",
			ErrMalformedDiagram, got, level)
	}
	if len(e.N.E) != VectorArity {
		return m.ZeroEdge(), fmt.Errorf("%w: matrix node (arity %d) in Project", ErrMalformedDiagram, len(e.N.E))
	}
	if sub, ok := memo[e.N]; ok {
		return m.Scale(sub, e.W), nil
	}
	if e.N.Level == level {
		// Memoized like every other level: a target-level node shared by many
		// parents is projected once, not once per incoming edge.
		kept := e.N.E[outcome]
		var es [2]Edge[T]
		es[outcome] = kept
		es[1-outcome] = m.ZeroEdge()
		sub := m.MakeVectorNode(level, es[0], es[1])
		memo[e.N] = sub
		return m.Scale(sub, e.W), nil
	}
	es := make([]Edge[T], len(e.N.E))
	for i, c := range e.N.E {
		var err error
		if es[i], err = m.projectRec(c, level, outcome, memo); err != nil {
			return m.ZeroEdge(), err
		}
	}
	sub := m.MakeNode(e.N.Level, es)
	memo[e.N] = sub
	return m.Scale(sub, e.W), nil
}

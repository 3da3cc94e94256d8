package core

// Measurement-related queries. Probabilities are computed in float64 — they
// feed sampling and diagnostics, not the exact representation itself.

// masses returns, for each node of order (as walk returned it with pos),
// Σ_i |amplitude_i|² of the sub-vector rooted at that node under a unit
// incoming weight: the one probability-mass pass that Norm2, the Sampler
// and Approximate share.
func (m *Manager[T]) masses(order []*Node[T], pos map[*Node[T]]int) []float64 {
	mass := make([]float64, len(order))
	for i, n := range order {
		s := 0.0
		for _, c := range n.E {
			s += m.edgeMass(c, pos, mass)
		}
		mass[i] = s
	}
	return mass
}

// edgeMass returns |W|² times the mass of the node e points to (the
// terminal's mass is 1), reading node masses from a masses result.
func (m *Manager[T]) edgeMass(e Edge[T], pos map[*Node[T]]int, mass []float64) float64 {
	if m.R.IsZero(e.W) {
		return 0
	}
	if e.N == nil {
		return m.R.Abs2(e.W)
	}
	return m.R.Abs2(e.W) * mass[pos[e.N]]
}

// Norm2 returns Σ|amplitude|² of a vector diagram as a float64. For a valid
// quantum state this is 1 up to the representation's accuracy; the paper's
// ε-collapse failures show up here as values near 0.
func (m *Manager[T]) Norm2(v Edge[T]) float64 {
	order, pos := walk(v)
	return m.edgeMass(v, pos, m.masses(order, pos))
}

// Probability returns |⟨idx|v⟩|².
func (m *Manager[T]) Probability(v Edge[T], n int, idx uint64) float64 {
	return m.R.Abs2(m.Amplitude(v, n, idx))
}

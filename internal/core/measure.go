package core

// Measurement-related queries. Probabilities are computed in float64 — they
// feed sampling and diagnostics, not the exact representation itself.

// mass returns Σ_i |amplitude_i|² of the sub-vector rooted at n (weight 1),
// memoized per node.
func (m *Manager[T]) mass(n *Node[T], memo map[*Node[T]]float64) float64 {
	if n == nil {
		return 1
	}
	if v, ok := memo[n]; ok {
		return v
	}
	s := 0.0
	for _, c := range n.E {
		if m.R.IsZero(c.W) {
			continue
		}
		s += m.R.Abs2(c.W) * m.mass(c.N, memo)
	}
	memo[n] = s
	return s
}

// Norm2 returns Σ|amplitude|² of a vector diagram as a float64. For a valid
// quantum state this is 1 up to the representation's accuracy; the paper's
// ε-collapse failures show up here as values near 0.
func (m *Manager[T]) Norm2(v Edge[T]) float64 {
	if m.IsZero(v) {
		return 0
	}
	return m.R.Abs2(v.W) * m.mass(v.N, make(map[*Node[T]]float64))
}

// Probability returns |⟨idx|v⟩|².
func (m *Manager[T]) Probability(v Edge[T], n int, idx uint64) float64 {
	return m.R.Abs2(m.Amplitude(v, n, idx))
}

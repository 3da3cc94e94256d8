package core

// Operations on QMDDs. All of them are memoized in the compute table and all
// of them produce canonical (normalized, hash-consed) results, so the
// complexity is polynomial in the diagram sizes rather than in the
// exponential dimension of the represented objects. Memoization keys are
// integer tuples over node IDs and interned weight IDs — never strings.

// Add returns the element-wise sum of two equally-shaped diagrams
// (two vectors or two matrices over the same number of qubits).
func (m *Manager[T]) Add(x, y Edge[T]) Edge[T] {
	if m.IsZero(x) {
		return y
	}
	if m.IsZero(y) {
		return x
	}
	if x.N == nil && y.N == nil {
		return m.Terminal(m.R.Add(x.W, y.W))
	}
	if x.N == nil || y.N == nil {
		panic("core: Add of diagrams with different shapes")
	}
	if x.N.Level != y.N.Level || len(x.N.E) != len(y.N.E) {
		panic("core: Add of diagrams with different levels/arities")
	}
	// Addition is commutative; canonicalize the operand order by
	// (node ID, weight ID) for CT hits.
	xw, yw := m.WID(x.W), m.WID(y.W)
	if y.N.ID < x.N.ID || (y.N.ID == x.N.ID && yw < xw) {
		x, y, xw, yw = y, x, yw, xw
	}
	k := ctKey{op: ctAdd, aID: x.N.ID, aWID: xw, bID: y.N.ID, bWID: yw}
	if r, ok := m.ct.get(k); ok {
		return r
	}
	arity := len(x.N.E)
	var sums [MatrixArity]Edge[T]
	for i := 0; i < arity; i++ {
		sums[i] = m.Add(m.weightedChild(x, i), m.weightedChild(y, i))
	}
	r := m.MakeNode(x.N.Level, sums[:arity])
	m.ct.put(k, r)
	return r
}

// Mul multiplies the matrix x with the matrix or vector y (both over the
// same number of qubits): matrix-matrix or matrix-vector multiplication.
func (m *Manager[T]) Mul(x, y Edge[T]) Edge[T] {
	if m.IsZero(x) || m.IsZero(y) {
		return m.ZeroEdge()
	}
	if x.N == nil && y.N == nil {
		return m.Terminal(m.arith.Mul(x.W, y.W))
	}
	if x.N == nil || y.N == nil {
		panic("core: Mul of diagrams with different shapes")
	}
	if x.N.Level != y.N.Level {
		panic("core: Mul of diagrams with different levels")
	}
	if len(x.N.E) != MatrixArity {
		panic("core: Mul requires a matrix as the left operand")
	}
	w := m.arith.Mul(x.W, y.W)
	sub := m.mulNodes(x.N, y.N)
	return m.Scale(sub, w)
}

// mulNodes multiplies weight-one edges to the two nodes.
func (m *Manager[T]) mulNodes(xn, yn *Node[T]) Edge[T] {
	key := ctKey{op: ctMul, aID: xn.ID, bID: yn.ID}
	if r, ok := m.ct.get(key); ok {
		return r
	}
	level := xn.Level
	var res Edge[T]
	if len(yn.E) == MatrixArity {
		var es [MatrixArity]Edge[T]
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				s := m.ZeroEdge()
				for k := 0; k < 2; k++ {
					s = m.Add(s, m.mulEdges(xn.E[2*i+k], yn.E[2*k+j], level-1))
				}
				es[2*i+j] = s
			}
		}
		res = m.MakeNode(level, es[:])
	} else {
		var es [VectorArity]Edge[T]
		for i := 0; i < 2; i++ {
			s := m.ZeroEdge()
			for k := 0; k < 2; k++ {
				s = m.Add(s, m.mulEdges(xn.E[2*i+k], yn.E[k], level-1))
			}
			es[i] = s
		}
		res = m.MakeNode(level, es[:])
	}
	m.ct.put(key, res)
	return res
}

// mulEdges multiplies two child edges whose targets live at the given level.
func (m *Manager[T]) mulEdges(a, b Edge[T], level int) Edge[T] {
	if m.IsZero(a) || m.IsZero(b) {
		return m.ZeroEdge()
	}
	if level == 0 {
		return m.Terminal(m.arith.Mul(a.W, b.W))
	}
	if a.N == nil || b.N == nil {
		panic("core: malformed diagram: nonzero terminal above level 0")
	}
	w := m.arith.Mul(a.W, b.W)
	sub := m.mulNodes(a.N, b.N)
	return m.Scale(sub, w)
}

// Kron returns the Kronecker product x ⊗ y: x occupies the upper levels,
// y the lower ones.
func (m *Manager[T]) Kron(x, y Edge[T]) Edge[T] {
	if m.IsZero(x) || m.IsZero(y) {
		return m.ZeroEdge()
	}
	if y.N == nil { // scalar on the right
		return m.Scale(x, y.W)
	}
	if x.N == nil { // scalar on the left
		return m.Scale(y, x.W)
	}
	sub := m.kronNodes(x.N, y.N)
	return m.Scale(sub, m.arith.Mul(x.W, y.W))
}

func (m *Manager[T]) kronNodes(xn, yn *Node[T]) Edge[T] {
	k := ctKey{op: ctKron, aID: xn.ID, bID: yn.ID}
	if r, ok := m.ct.get(k); ok {
		return r
	}
	var es [MatrixArity]Edge[T]
	arity := len(xn.E)
	for i, c := range xn.E {
		switch {
		case m.R.IsZero(c.W):
			es[i] = m.ZeroEdge()
		case c.N == nil:
			es[i] = Edge[T]{W: c.W, N: yn}
		default:
			sub := m.kronNodes(c.N, yn)
			es[i] = m.Scale(sub, c.W)
		}
	}
	res := m.MakeNode(xn.Level+yn.Level, es[:arity])
	m.ct.put(k, res)
	return res
}

// Adjoint returns the conjugate transpose of a matrix diagram, or the
// element-wise conjugate of a vector diagram (the bra of a ket).
func (m *Manager[T]) Adjoint(x Edge[T]) Edge[T] {
	if x.N == nil {
		return m.Terminal(m.R.Conj(x.W))
	}
	sub := m.adjointNode(x.N)
	return m.Scale(sub, m.R.Conj(x.W))
}

func (m *Manager[T]) adjointNode(n *Node[T]) Edge[T] {
	k := ctKey{op: ctAdjoint, aID: n.ID}
	if r, ok := m.ct.get(k); ok {
		return r
	}
	var res Edge[T]
	if len(n.E) == MatrixArity {
		var es [MatrixArity]Edge[T]
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				es[2*i+j] = m.Adjoint(n.E[2*j+i])
			}
		}
		res = m.MakeNode(n.Level, es[:])
	} else {
		var es [VectorArity]Edge[T]
		for i := range es {
			es[i] = m.Adjoint(n.E[i])
		}
		res = m.MakeNode(n.Level, es[:])
	}
	m.ct.put(k, res)
	return res
}

// Transpose returns the transpose of a matrix diagram (no conjugation).
func (m *Manager[T]) Transpose(x Edge[T]) Edge[T] {
	if x.N == nil {
		return x
	}
	sub := m.transposeNode(x.N)
	return m.Scale(sub, x.W)
}

func (m *Manager[T]) transposeNode(n *Node[T]) Edge[T] {
	k := ctKey{op: ctTranspose, aID: n.ID}
	if r, ok := m.ct.get(k); ok {
		return r
	}
	var res Edge[T]
	if len(n.E) == MatrixArity {
		var es [MatrixArity]Edge[T]
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				es[2*i+j] = m.Transpose(n.E[2*j+i])
			}
		}
		res = m.MakeNode(n.Level, es[:])
	} else {
		var es [VectorArity]Edge[T]
		copy(es[:], n.E)
		res = m.MakeNode(n.Level, es[:])
	}
	m.ct.put(k, res)
	return res
}

// InnerProduct returns ⟨x|y⟩ = Σᵢ conj(xᵢ)·yᵢ for two vector diagrams.
func (m *Manager[T]) InnerProduct(x, y Edge[T]) T {
	return m.ipEdges(x, y, max(x.Level(), y.Level()))
}

func (m *Manager[T]) ipEdges(a, b Edge[T], level int) T {
	if m.IsZero(a) || m.IsZero(b) {
		return m.R.Zero()
	}
	if level == 0 {
		return m.R.Mul(m.R.Conj(a.W), b.W)
	}
	if a.N == nil || b.N == nil {
		panic("core: malformed diagram in InnerProduct")
	}
	w := m.R.Mul(m.R.Conj(a.W), b.W)
	k := ctKey{op: ctInner, aID: a.N.ID, bID: b.N.ID}
	if r, ok := m.ct.get(k); ok {
		return m.R.Mul(w, r.W)
	}
	s := m.R.Zero()
	for i := range a.N.E {
		s = m.R.Add(s, m.ipEdges(a.N.E[i], b.N.E[i], level-1))
	}
	m.ct.put(k, m.Terminal(s))
	return m.R.Mul(w, s)
}

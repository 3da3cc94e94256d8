package core

// Identity-skipping local gate application, after "Stripping Quantum
// Decision Diagrams of their Identity" (arXiv 2406.11959). A single-target
// gate with k controls acts non-trivially on at most k+1 levels of an
// n-level diagram; the classic pipeline (gates.BuildDD + Mul) nevertheless
// materializes an n-level identity-padded matrix diagram and recurses
// through every one of its levels. ApplyLocal consumes the gate in its local
// description instead — the 2×2 base block, the target level, the control
// levels — and walks the state (or matrix) diagram directly:
//
//   - above the topmost affected level the recursion passes through,
//     rebuilding the node with gate-applied children;
//   - at an above-target control level only the active branch is descended,
//     the inactive branch is shared unchanged;
//   - at the target level the 2×2 block combines the two halves
//     (new_i = Σ_k U[i][k] · e_k), or — when controls sit *below* the
//     target — the split form new_i = P̄(e_i) + Σ_k U[i][k] · P(e_k),
//     with P the below-control projector (keep the branches where every
//     below control fires) and P̄ its complement. The two parts have
//     disjoint support, so their sum costs no ring arithmetic, and the
//     untouched subspace is shared, never rebuilt;
//   - below the lowest affected level sub-diagrams are returned as-is.
//
// No identity structure is ever constructed, and every level the gate does
// not touch costs nothing. Results are canonical (MakeNode normalizes and
// hash-conses), so ApplyLocal agrees with the BuildDD+Mul oracle exactly on
// exact rings — the differential tests in apply_test.go assert it.

// LocalControl is a control line of a local gate in level coordinates
// (level l = n − qubit; see gates.Local for the qubit-indexed entry point).
// The gate fires where the control level's bit is 1 (Neg = false) or 0
// (Neg = true).
type LocalControl struct {
	Level int
	Neg   bool
}

// Control classification per level, precomputed by PrepareLocal.
const (
	ctrlNone uint8 = iota
	ctrlPos
	ctrlNeg
)

// LocalGate is a gate prepared for ApplyLocal: the canonical base block, the
// affected levels, and a per-manager registry ID under which applications
// are memoized in the compute table. A LocalGate stores ring values (never
// weight IDs), so it stays valid across Prune; it is bound to the manager
// that prepared it.
type LocalGate[T any] struct {
	id uint64 // compute-table key (ctApply/ctProject*, node ID, gate ID)

	// U is the base block, row-major — divided by scale when hasScale is
	// set, so its leading nonzero entry is an exact 1. Mirroring the edge
	// weight factoring of canonical gate diagrams keeps the target-level
	// combine adding unit-weighted children (an H combine is e₀ ± e₁, not
	// e₀/√2 ± e₁/√2), which the normalization would otherwise undo with a
	// ring division per node.
	U        [2][2]T
	scale    T    // factored-out leading coefficient of the base block
	hasScale bool // scale ≠ 1; applied once at each target-level result

	target   int     // level of the target qubit
	topLevel int     // highest affected level: max(target, control levels)
	belowMin int     // lowest below-target control level (target if none)
	hasBelow bool    // any control strictly below the target
	ctrl     []uint8 // level → ctrlNone/ctrlPos/ctrlNeg, len topLevel+1
	identity bool    // base block is exactly the ring identity
}

// Target returns the gate's target level.
func (g *LocalGate[T]) Target() int { return g.target }

// TopLevel returns the highest level the gate affects; diagrams it is
// applied to must reach at least this level.
func (g *LocalGate[T]) TopLevel() int { return g.topLevel }

// IsIdentity reports whether the gate is the identity operation — a base
// block equal (in the ring's sense) to the 2×2 identity. Controls do not
// matter: a controlled identity is still the identity. Callers may skip
// applying such gates entirely; sim.Simulator does.
func (g *LocalGate[T]) IsIdentity() bool { return g.identity }

// PrepareLocal validates and preprocesses a local gate description for
// ApplyLocal: controls are classified per level and the gate receives a
// fresh registry ID for memoization. Prepare once, apply many times.
func (m *Manager[T]) PrepareLocal(base [2][2]T, target int, ctrls []LocalControl) *LocalGate[T] {
	if target < 1 {
		panic("core: PrepareLocal: target level < 1")
	}
	top := target
	for _, c := range ctrls {
		if c.Level < 1 {
			panic("core: PrepareLocal: control level < 1")
		}
		if c.Level == target {
			panic("core: PrepareLocal: control equals target")
		}
		if c.Level > top {
			top = c.Level
		}
	}
	m.gateSeq++
	g := &LocalGate[T]{
		id:       m.gateSeq,
		U:        base,
		target:   target,
		topLevel: top,
		belowMin: target,
		ctrl:     make([]uint8, top+1),
	}
	for _, c := range ctrls {
		if g.ctrl[c.Level] != ctrlNone {
			panic("core: PrepareLocal: duplicate control")
		}
		if c.Neg {
			g.ctrl[c.Level] = ctrlNeg
		} else {
			g.ctrl[c.Level] = ctrlPos
		}
		if c.Level < target {
			g.hasBelow = true
			if c.Level < g.belowMin {
				g.belowMin = c.Level
			}
		}
	}
	g.identity = m.R.IsOne(base[0][0]) && m.R.IsZero(base[0][1]) &&
		m.R.IsZero(base[1][0]) && m.R.IsOne(base[1][1])
	// Factor the leading nonzero coefficient out of the block (U = η·U′,
	// pivot of U′ exactly 1). Skipped when controls sit below the target:
	// the split form mixes U-scaled and unscaled (P̄) terms, which a common
	// factor cannot cross.
	g.scale = m.R.One()
	if !g.hasBelow && !g.identity {
		eta, found := m.R.Zero(), false
		for i := 0; i < 2; i++ {
			for j := 0; j < 2 && !found; j++ {
				if !m.R.IsZero(base[i][j]) {
					eta, found = base[i][j], true
				}
			}
		}
		if found && !m.R.IsOne(eta) {
			g.scale, g.hasScale = eta, true
			for i := range g.U {
				for j := range g.U[i] {
					if !m.R.IsZero(g.U[i][j]) {
						g.U[i][j] = m.R.Div(g.U[i][j], eta)
					}
				}
			}
		}
	}
	return g
}

// ApplyLocal applies a prepared local gate to a state-vector or matrix
// diagram (for matrices the gate multiplies from the left, acting on the row
// space — exactly Mul(BuildDD(...), e)). Identity gates return e unchanged.
func (m *Manager[T]) ApplyLocal(g *LocalGate[T], e Edge[T]) Edge[T] {
	if g.identity || m.IsZero(e) {
		return e
	}
	if e.Level() < g.topLevel {
		panic("core: ApplyLocal: gate extends above the diagram's top level")
	}
	return m.applyEdge(g, e)
}

// applyEdge applies g below an edge, exploiting linearity:
// apply(w·sub) = w·apply(sub), so memoization is per node.
func (m *Manager[T]) applyEdge(g *LocalGate[T], e Edge[T]) Edge[T] {
	if m.IsZero(e) {
		return m.ZeroEdge()
	}
	if e.N == nil {
		panic("core: malformed diagram: nonzero terminal above the target level")
	}
	return m.Scale(m.applyNode(g, e.N), e.W)
}

// applyNode applies g to the weight-one edge of n (n.Level ≥ g.target).
func (m *Manager[T]) applyNode(g *LocalGate[T], n *Node[T]) Edge[T] {
	k := ctKey{op: ctApply, aID: n.ID, bID: g.id}
	if r, ok := m.ct.get(k); ok {
		return r
	}
	level := n.Level
	arity := len(n.E)
	cols := arity / 2 // 1 for vector nodes, 2 for matrix nodes
	var es [MatrixArity]Edge[T]
	if level > g.target {
		// Pass-through or above-target control. The first index of a child
		// (row block, for matrices) is this level's bit on the gate's input
		// side, so controls select which row block the gate descends into;
		// the inactive block is shared untouched.
		var c uint8 = ctrlNone
		if level < len(g.ctrl) {
			c = g.ctrl[level]
		}
		for j := 0; j < cols; j++ {
			switch c {
			case ctrlNone:
				es[j] = m.applyEdge(g, n.E[j])
				es[cols+j] = m.applyEdge(g, n.E[cols+j])
			case ctrlPos:
				es[j] = n.E[j]
				es[cols+j] = m.applyEdge(g, n.E[cols+j])
			case ctrlNeg:
				es[j] = m.applyEdge(g, n.E[j])
				es[cols+j] = n.E[cols+j]
			}
		}
	} else {
		// Target level: combine the two halves through the 2×2 block.
		if !g.hasBelow {
			// new_i = Σ_k U[i][k] · e_k
			for t := 0; t < arity; t++ {
				i, j := t/cols, t%cols
				a := m.Scale(n.E[0*cols+j], g.U[i][0])
				b := m.Scale(n.E[1*cols+j], g.U[i][1])
				es[t] = m.Add(a, b)
			}
		} else {
			// Below-target controls: split form
			// new_i = P̄(e_i) + Σ_k U[i][k] · P(e_k), with P the
			// below-control projector and P̄ its complement. P̄(e_i) and the
			// projected sum have disjoint support, so the outer addition
			// never does ring arithmetic — crucially avoiding the
			// cancellation work the delta form e_i + Σ (U−I)[i][k]·P(e_k)
			// would spend proving e_i − P(e_i) = P̄(e_i) term by term.
			for t := 0; t < arity; t++ {
				i, j := t/cols, t%cols
				a := m.Scale(m.projectEdge(g, n.E[0*cols+j]), g.U[i][0])
				b := m.Scale(m.projectEdge(g, n.E[1*cols+j]), g.U[i][1])
				rest := m.projectCompEdge(g, n.E[i*cols+j])
				es[t] = m.Add(m.Add(a, b), rest)
			}
		}
	}
	res := m.MakeNode(level, es[:arity])
	// Every root-to-terminal path crosses the target level exactly once, so
	// re-applying the factored-out block coefficient here restores U = η·U′.
	if g.hasScale && level == g.target {
		res = m.Scale(res, g.scale)
	}
	m.ct.put(k, res)
	return res
}

// projectEdge applies the below-control projector of g: branches where every
// below-target control is active pass unchanged, all others are zeroed. For
// matrix diagrams the projector acts on the row space. Linear, memoized per
// node; below the lowest control level it is the identity, so untouched
// sub-diagrams are shared.
func (m *Manager[T]) projectEdge(g *LocalGate[T], e Edge[T]) Edge[T] {
	if m.IsZero(e) {
		return m.ZeroEdge()
	}
	if e.N == nil || e.N.Level < g.belowMin {
		return e
	}
	return m.Scale(m.projectNode(g, e.N), e.W)
}

func (m *Manager[T]) projectNode(g *LocalGate[T], n *Node[T]) Edge[T] {
	k := ctKey{op: ctProject, aID: n.ID, bID: g.id}
	if r, ok := m.ct.get(k); ok {
		return r
	}
	arity := len(n.E)
	cols := arity / 2
	var es [MatrixArity]Edge[T]
	for j := 0; j < cols; j++ {
		switch g.ctrl[n.Level] {
		case ctrlNone:
			es[j] = m.projectEdge(g, n.E[j])
			es[cols+j] = m.projectEdge(g, n.E[cols+j])
		case ctrlPos:
			es[j] = m.ZeroEdge()
			es[cols+j] = m.projectEdge(g, n.E[cols+j])
		case ctrlNeg:
			es[j] = m.projectEdge(g, n.E[j])
			es[cols+j] = m.ZeroEdge()
		}
	}
	res := m.MakeNode(n.Level, es[:arity])
	m.ct.put(k, res)
	return res
}

// projectCompEdge applies the complement of projectEdge: branches where at
// least one below-target control is inactive pass unchanged, the
// all-controls-active part is zeroed — so P(e) + P̄(e) = e, and the two
// images never share support. Below the lowest control level P is the
// identity, hence P̄ is zero.
func (m *Manager[T]) projectCompEdge(g *LocalGate[T], e Edge[T]) Edge[T] {
	if m.IsZero(e) || e.N == nil || e.N.Level < g.belowMin {
		return m.ZeroEdge()
	}
	return m.Scale(m.projectCompNode(g, e.N), e.W)
}

func (m *Manager[T]) projectCompNode(g *LocalGate[T], n *Node[T]) Edge[T] {
	k := ctKey{op: ctProjectC, aID: n.ID, bID: g.id}
	if r, ok := m.ct.get(k); ok {
		return r
	}
	arity := len(n.E)
	cols := arity / 2
	var es [MatrixArity]Edge[T]
	for j := 0; j < cols; j++ {
		switch g.ctrl[n.Level] {
		case ctrlNone:
			es[j] = m.projectCompEdge(g, n.E[j])
			es[cols+j] = m.projectCompEdge(g, n.E[cols+j])
		case ctrlPos:
			// Control bit 0: no deeper control can rescue this branch — the
			// whole sub-diagram is in the complement, shared untouched.
			es[j] = n.E[j]
			es[cols+j] = m.projectCompEdge(g, n.E[cols+j])
		case ctrlNeg:
			es[j] = m.projectCompEdge(g, n.E[j])
			es[cols+j] = n.E[cols+j]
		}
	}
	res := m.MakeNode(n.Level, es[:arity])
	m.ct.put(k, res)
	return res
}

package core

import (
	"errors"
	"fmt"
)

// Rand01 is the uniform source sampling consumes: Float64 must return a
// value in [0, 1). *math/rand.Rand satisfies it, as does sim's deterministic
// splitmix64 generator.
type Rand01 interface {
	Float64() float64
}

// ErrZeroVector is returned when a sample is requested from a diagram whose
// total probability mass is zero (or has collapsed to zero numerically).
var ErrZeroVector = errors.New("core: cannot sample a zero-mass vector diagram")

// ErrMalformedDiagram is wrapped by errors reporting a structurally invalid
// vector diagram (skipped levels, matrix nodes, terminals above level 0).
var ErrMalformedDiagram = errors.New("core: malformed vector diagram")

// ErrStaleSampler is returned by Draw when the manager has been
// pruned or reset since the sampler was built: the sampler's node pointers
// and mass memo may reference swept nodes, so using them would read garbage.
// Build a fresh Sampler from the live state.
var ErrStaleSampler = errors.New("core: sampler invalidated by a Prune or Reset; rebuild it from the live state")

// Sampler draws basis-state outcomes from the distribution induced by one
// vector diagram. Construction runs a single validating mass pass over the
// diagram's nodes (O(nodes)); every Draw afterwards walks one root-to-
// terminal path (O(n), allocation-free), so many draws from one state cost
// one mass pass, not one per draw. The diagram need not be exactly
// normalized: probabilities are renormalized level by level.
//
// A Sampler holds node pointers into its manager; it is invalidated by
// Prune and Reset (it captures the manager's prune generation at
// construction, and Draw returns ErrStaleSampler once the generations
// diverge). It is not safe for concurrent use (the draws advance the
// caller's RNG anyway).
type Sampler[T any] struct {
	m    *Manager[T]
	root Edge[T]
	n    int
	gen  uint64 // manager prune generation at construction
	mass map[*Node[T]]float64
}

// NewSampler validates the diagram rooted at v as an n-qubit vector and
// precomputes the subtree mass of every node. It returns ErrZeroVector for
// a zero-mass state and an ErrMalformedDiagram-wrapped error for structural
// violations; both checks make later Draw calls infallible in practice.
func (m *Manager[T]) NewSampler(v Edge[T], n int) (*Sampler[T], error) {
	if n < 1 {
		return nil, fmt.Errorf("core: NewSampler: need at least one qubit, got %d", n)
	}
	s := &Sampler[T]{m: m, root: v, n: n, gen: m.pruneGen, mass: make(map[*Node[T]]float64)}
	total, err := s.edgeMass(v, n)
	if err != nil {
		return nil, err
	}
	if !(total > 0) { // catches 0, negatives and NaN in one test
		return nil, ErrZeroVector
	}
	return s, nil
}

// edgeMass returns |W|² times the subtree mass of the node e points to,
// validating the structure expected at the given level on the way down.
func (s *Sampler[T]) edgeMass(e Edge[T], level int) (float64, error) {
	if s.m.R.IsZero(e.W) {
		return 0, nil // zero stub, no structural requirements below it
	}
	if e.N == nil {
		if level != 0 {
			return 0, fmt.Errorf("%w: non-zero edge to terminal at level %d", ErrMalformedDiagram, level)
		}
		return s.m.R.Abs2(e.W), nil
	}
	if level == 0 {
		return 0, fmt.Errorf("%w: node below the terminal level", ErrMalformedDiagram)
	}
	if e.N.Level != level {
		return 0, fmt.Errorf("%w: node at level %d where level %d was expected", ErrMalformedDiagram, e.N.Level, level)
	}
	if len(e.N.E) != VectorArity {
		return 0, fmt.Errorf("%w: matrix node (arity %d) in a vector diagram", ErrMalformedDiagram, len(e.N.E))
	}
	nm, err := s.nodeMass(e.N)
	if err != nil {
		return 0, err
	}
	return s.m.R.Abs2(e.W) * nm, nil
}

// nodeMass memoizes Σ|amplitude|² of the sub-vector rooted at node (unit
// incoming weight).
func (s *Sampler[T]) nodeMass(n *Node[T]) (float64, error) {
	if v, ok := s.mass[n]; ok {
		return v, nil
	}
	sum := 0.0
	for _, c := range n.E {
		v, err := s.edgeMass(c, n.Level-1)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	s.mass[n] = sum
	return sum, nil
}

// branchMass returns the precomputed |W|²·mass of a child edge (level-1
// children point either at the terminal or at memoized nodes).
func (s *Sampler[T]) branchMass(e Edge[T]) float64 {
	if s.m.R.IsZero(e.W) {
		return 0
	}
	if e.N == nil {
		return s.m.R.Abs2(e.W)
	}
	return s.m.R.Abs2(e.W) * s.mass[e.N]
}

// Draw samples one basis-state index, consuming exactly one uniform from
// rng per qubit level (top to bottom) regardless of the diagram's shape —
// a fixed consumption pattern that keeps seeded runs reproducible across
// diagram representations. The diagram need not be normalized; branch
// probabilities are renormalized level by level.
func (s *Sampler[T]) Draw(rng Rand01) (uint64, error) {
	if s.gen != s.m.pruneGen {
		return 0, ErrStaleSampler
	}
	var idx uint64
	e := s.root
	for l := s.n; l >= 1; l-- {
		// The walk only descends branches with positive mass, and the root
		// had positive mass, so e.N is a validated level-l vector node.
		p0, p1 := s.branchMass(e.N.E[0]), s.branchMass(e.N.E[1])
		sum := p0 + p1
		if !(sum > 0) {
			return 0, ErrZeroVector // numeric collapse mid-walk
		}
		i := 0
		if rng.Float64()*sum >= p0 {
			i = 1
		}
		idx |= uint64(i) << (l - 1)
		e = e.N.E[i]
	}
	return idx, nil
}

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
// and masses may reference swept nodes, so using them would read garbage.
// Build a fresh Sampler from the live state.
var ErrStaleSampler = errors.New("core: sampler invalidated by a Prune or Reset; rebuild it from the live state")

// Sampler draws basis-state outcomes from the distribution induced by one
// vector diagram. Construction validates the diagram and runs the mass pass
// over its nodes once (O(nodes)); every Draw afterwards walks one root-to-
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
	pos  map[*Node[T]]int
	mass []float64 // mass[pos[nd]]: Σ|amplitude|² below nd (see masses)
}

// NewSampler validates the diagram rooted at v as an n-qubit vector and
// precomputes the subtree mass of every node. It returns ErrZeroVector for
// a zero-mass state and an ErrMalformedDiagram-wrapped error for structural
// violations; both checks make later Draw calls infallible in practice.
func (m *Manager[T]) NewSampler(v Edge[T], n int) (*Sampler[T], error) {
	if n < 1 {
		return nil, fmt.Errorf("core: NewSampler: need at least one qubit, got %d", n)
	}
	if m.R.IsZero(v.W) {
		return nil, ErrZeroVector
	}
	if v.Level() != n {
		return nil, fmt.Errorf("%w: root at level %d for %d qubits", ErrMalformedDiagram, v.Level(), n)
	}
	// Local checks suffice: by induction from the root, every node a nonzero
	// path reaches sits one level below its parent. Zero stubs carry no
	// requirement.
	order, pos := walk(v)
	for _, nd := range order {
		if len(nd.E) != VectorArity {
			return nil, fmt.Errorf("%w: matrix node (arity %d) in a vector diagram", ErrMalformedDiagram, len(nd.E))
		}
		for _, c := range nd.E {
			if !m.R.IsZero(c.W) && c.Level() != nd.Level-1 {
				return nil, fmt.Errorf("%w: level-%d node has a child at level %d", ErrMalformedDiagram, nd.Level, c.Level())
			}
		}
	}
	s := &Sampler[T]{m: m, root: v, n: n, gen: m.pruneGen, pos: pos, mass: m.masses(order, pos)}
	if total := m.edgeMass(v, pos, s.mass); !(total > 0) { // catches 0, negatives and NaN in one test
		return nil, ErrZeroVector
	}
	return s, nil
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
		p0, p1 := s.m.edgeMass(e.N.E[0], s.pos, s.mass), s.m.edgeMass(e.N.E[1], s.pos, s.mass)
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

package sim

import (
	"errors"
	"math"

	"repro/internal/circuit"
	"repro/internal/core"
)

// Fidelity-bounded graceful degradation. When a run would die on a memory
// budget, the simulator can instead shed the lowest-contribution parts of the
// live state (core.Approximate) and keep going, as long as the product of
// per-event fidelities stays above a caller-chosen floor. The policy is off
// by default: an unconfigured simulator fails on budget pressure exactly as
// before.

// DefaultMaxApproxEvents bounds the number of approximation events per run
// when ApproxPolicy.MaxEvents is left zero.
const DefaultMaxApproxEvents = 8

// ApproxPolicy configures fidelity-bounded approximation.
type ApproxPolicy struct {
	// MinFidelity is the floor for the run-wide retained fidelity (the
	// product of per-event fidelities). Must be in (0, 1); 0 disables
	// approximation, and 1 leaves no mass to shed.
	MinFidelity float64
	// MaxEvents caps approximation events per run (0 means
	// DefaultMaxApproxEvents). The cap keeps a hopelessly tight budget from
	// degenerating into an approximate-retry loop.
	MaxEvents int
}

// ApproxState is the run-local approximation accounting.
type ApproxState struct {
	// Events counts approximation events so far in this run.
	Events int
	// Fidelity is the product of the per-event retained fidelities — a
	// guaranteed floor on the fidelity of the current state against the
	// ideal (each event's fidelity is exact for the state it acted on;
	// the product composes those per-step guarantees). 1 when no event
	// has fired.
	Fidelity float64
	// Exact reports that every contributing per-event fidelity was computed
	// with exact ring arithmetic. Vacuously true while Events is 0.
	Exact bool
}

// EnableApproximation installs the approximation policy. Like
// EnableAutoPrune it is a configuration call: the policy persists across
// Reset, while the accounting (Approximation) is cleared per run.
func (s *Simulator[T]) EnableApproximation(p ApproxPolicy) {
	s.approxPolicy = p
	s.approxState = freshApproxState()
}

// Approximation returns the approximation accounting for the current run.
func (s *Simulator[T]) Approximation() ApproxState { return s.approxState }

func freshApproxState() ApproxState { return ApproxState{Fidelity: 1, Exact: true} }

// approxRetries is the number of shed-then-retry attempts applyWithFallback
// makes for one refused gate: the first sheds down to √remaining (half the
// remaining fidelity budget, log-scale), the second spends the rest.
const approxRetries = 2

// applyWithFallback is Apply plus the budget-pressure relief valve: when a
// gate is refused on a memory limit (a *BudgetError: nodes, weights or
// bytes — never a context error, which approximation cannot buy back), the
// live state is approximated within the remaining fidelity budget and the
// gate retried, at most approxRetries times.
func (s *Simulator[T]) applyWithFallback(g circuit.Gate) error {
	err := s.Apply(g)
	if err == nil || s.approxPolicy.MinFidelity <= 0 {
		return err
	}
	for attempt := 1; attempt <= approxRetries; attempt++ {
		var be *core.BudgetError
		if !errors.As(err, &be) {
			return err
		}
		if !s.shedLoad(attempt == approxRetries) {
			return err
		}
		if err = s.Apply(g); err == nil {
			return nil
		}
	}
	return err
}

// shedLoad runs one approximation event on the live state: it sheds the
// lowest-contribution edges down to a per-event target chosen so the
// run-wide product stays above MinFidelity, then prunes the replaced nodes.
// With spendAll the event may use the entire remaining fidelity budget;
// otherwise it targets √remaining, keeping headroom for a second event.
// Returns false when no event fired (policy off, caps hit, no remaining
// budget, or nothing shed-able at the target).
func (s *Simulator[T]) shedLoad(spendAll bool) bool {
	p := s.approxPolicy
	if p.MinFidelity <= 0 || p.MinFidelity >= 1 {
		return false
	}
	maxEvents := p.MaxEvents
	if maxEvents <= 0 {
		maxEvents = DefaultMaxApproxEvents
	}
	if s.approxState.Events >= maxEvents {
		return false
	}
	// remaining is the fidelity this event may still give up: the floor
	// divided by what previous events already spent.
	remaining := p.MinFidelity / s.approxState.Fidelity
	if remaining >= 1 {
		return false // budget exhausted by earlier events
	}
	target := remaining
	if !spendAll {
		target = math.Sqrt(remaining)
	}
	approx, res, err := s.M.Approximate(s.State, s.N, target)
	if err != nil || res.ZeroedEdges == 0 {
		return false
	}
	s.State = approx
	s.approxState.Events++
	s.approxState.Fidelity *= res.Fidelity
	if !res.Exact {
		s.approxState.Exact = false
	}
	s.pruneNow()
	return true
}

// pruneNow sweeps everything not reachable from the live state — the
// originals replaced by an approximation event are exactly what it collects.
func (s *Simulator[T]) pruneNow() int {
	return s.M.Prune(s.State)
}

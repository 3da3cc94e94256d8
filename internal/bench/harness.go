// Package bench is the experiment harness that regenerates every figure of
// the paper's evaluation (Section V): it runs one benchmark circuit under a
// list of numerical tolerances ε and under the exact algebraic
// representation in lockstep, sampling after every stride gates the three
// quantities the paper plots — QMDD size (node count), accuracy
// (‖v_num/‖v_num‖ − v_alg‖₂), and cumulative run time — plus the
// algebraic-only statistics (coefficient bit widths, trivial-weight
// fraction) behind the paper's overhead discussion.
//
// Every run is governed: the Config's core.Budget is installed into each
// run's manager, so a run that would blow up (ε = 0 on GSE, say) is refused
// with partial samples and a failure note instead of exhausting memory, and
// the context passed to Execute cancels runs cooperatively — between
// gates and inside individual diagram operations — returning whatever was
// measured up to that point.
package bench

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/accuracy"
	"repro/internal/alg"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/num"
	"repro/internal/sim"
)

// Sample is one measured point of one run.
type Sample struct {
	Gate       int     // number of gates applied so far
	Nodes      int     // QMDD size of the state
	CumSeconds float64 // cumulative simulation time (this run only)
	Error      float64 // ‖v_num − v_alg‖₂; 0 (exact) for the algebraic run
	MaxBits    int     // max coefficient bit width (algebraic runs; 0 numeric)
	Norm       float64 // ‖state‖₂ as seen by the representation
}

// Run is one full simulation trace.
type Run struct {
	Label   string
	Eps     float64 // −1 for algebraic runs
	Norm    core.NormScheme
	Samples []Sample
	// PeakNodes is the largest state size observed: exact (every gate) when
	// Config.TrackPeak is set, otherwise the maximum over the strided
	// samples (which can miss a between-samples peak — the bug the exact
	// mode exists to fix).
	PeakNodes int
	Total     time.Duration
	Stats     core.Stats // manager counters at the end of the run
	Failed    bool       // collapsed, diverged, over budget, or cancelled
	FailNote  string     // diagnosis, e.g. "state collapsed to zero vector"
}

// Config parameterizes a trade-off experiment.
type Config struct {
	Circuit *circuit.Circuit
	// EpsList are the tolerance settings of the numerical representation
	// (the paper sweeps 0, 1e−20, 1e−15, 1e−10, 1e−5, 1e−3).
	EpsList []float64
	// Algebraic adds the exact run (bold black graphs in Figs. 3–5).
	Algebraic bool
	// AlgNorm is the normalization scheme for the algebraic run.
	AlgNorm core.NormScheme
	// NumNormLeft switches the numerical runs from the default
	// max-magnitude normalization [29] to the classic leftmost rule. Under
	// the leftmost rule large tolerances fail as in the paper's Fig. 2/3
	// extreme — collapse to the all-zero vector — whereas the stabilized
	// rule usually fails by drifting to an O(1)-error state instead.
	NumNormLeft bool
	// Stride is the sampling period in gates (≥ 1).
	Stride int
	// MeasureError computes the accuracy metric at sample points. Requires
	// Algebraic (the exact reference) and expands 2^n amplitudes per sample
	// point, so keep n moderate when it is on.
	MeasureError bool
	// Budget is installed into every run's manager (replacing the old
	// ad-hoc NodeCap): a run that trips any limit is marked Failed with its
	// partial samples kept, never aborted by panic. When Budget.MaxNodes is
	// set, auto-pruning at half the limit keeps stale intermediates from
	// tripping it spuriously.
	Budget core.Budget
	// TrackPeak records the exact per-gate peak state size in
	// Run.PeakNodes, at O(state size) cost per gate instead of per stride.
	TrackPeak bool
	// PeakCap aborts a run as soon as its exact per-gate state size exceeds
	// this many nodes (implies per-gate tracking; 0 = no cap) — the
	// "infeasible run time" regime of the paper.
	PeakCap int
	// Parallel bounds the worker pool that fans the ε cells out to
	// share-nothing managers: 0 resolves to runtime.GOMAXPROCS(0), 1 runs
	// sequentially. The merged Result is identical (modulo timing fields)
	// for every setting — cells are merged by index, never by completion.
	Parallel int
}

// Result bundles all runs of one experiment.
type Result struct {
	Name string
	N    int
	Runs []*Run
}

// Execute runs the experiment under a context. On cancellation the
// partially-measured Result is returned alongside the context error, so
// callers can report whatever completed.
//
// The ε cells run on a share-nothing worker pool bounded by Config.Parallel
// (each cell owns a private manager); results are merged in ε-list order,
// so the Result — and any CSV/figure derived from it — is identical to a
// sequential sweep up to the timing fields. The algebraic run always goes
// first and alone: it produces the exact reference amplitudes every numeric
// cell reads (immutably) for the error metric.
func Execute(ctx context.Context, name string, cfg Config) (*Result, error) {
	if cfg.Stride < 1 {
		cfg.Stride = 1
	}
	c := cfg.Circuit
	res := &Result{Name: name, N: c.N}

	// The algebraic run goes first: it provides the exact reference states,
	// expanded once to amplitude vectors so the numeric workers share only
	// immutable data (a live *Manager[alg.Q] is not safe to share).
	var algAmps [][]alg.Q // amplitudes after each sampled prefix
	if cfg.Algebraic {
		run := &Run{Label: "algebraic/" + cfg.AlgNorm.String(), Eps: -1, Norm: cfg.AlgNorm}
		mAlg := core.NewManager[alg.Q](alg.Ring{}, cfg.AlgNorm)
		s := newGovernedSim(mAlg, c.N, cfg)
		start := time.Now()
		err := s.RunCtx(ctx, c, func(i int, g circuit.Gate) bool {
			nodes, stop := trackGate(run, s.State, i, c, cfg)
			if nodes >= 0 {
				elapsed := time.Since(start).Seconds()
				run.Samples = append(run.Samples, Sample{
					Gate:       i + 1,
					Nodes:      nodes,
					CumSeconds: elapsed,
					MaxBits:    mAlg.MaxWeightBitLen(s.State),
					Norm:       math.Sqrt(mAlg.Norm2(s.State)),
				})
				if cfg.MeasureError {
					algAmps = append(algAmps, mAlg.ToVector(s.State, c.N))
				}
			}
			return !stop
		})
		run.Total = time.Since(start)
		run.Stats = mAlg.Stats()
		cancelled, ferr := noteRunError(run, err)
		if ferr != nil {
			return nil, fmt.Errorf("bench: algebraic run: %w", ferr)
		}
		res.Runs = append(res.Runs, run)
		if cancelled {
			return res, ctx.Err()
		}
	}

	runs := make([]*Run, len(cfg.EpsList))
	pool := Pool{Workers: cfg.Parallel}
	err := pool.Run(ctx, len(cfg.EpsList), func(ctx context.Context, i int) error {
		run, err := executeNumeric(ctx, c, cfg.EpsList[i], cfg, algAmps)
		runs[i] = run // sole writer of this slot
		return err
	})
	// Merge in ε-list order, independent of completion order. Under
	// cancellation, cells that never started leave nil slots.
	for _, run := range runs {
		if run != nil {
			res.Runs = append(res.Runs, run)
		}
	}
	if err != nil {
		if isCtxErr(err) {
			return res, ctx.Err()
		}
		return nil, err
	}
	return res, nil
}

// newGovernedSim builds a simulator with the config's budget installed; when
// the budget caps live nodes, auto-pruning at half the cap keeps stale
// intermediates from tripping it before the live working set does.
func newGovernedSim[T any](m *core.Manager[T], n int, cfg Config) *sim.Simulator[T] {
	s := sim.New(m, n)
	if !cfg.Budget.IsZero() {
		m.SetBudget(cfg.Budget)
		if cfg.Budget.MaxNodes > 1 {
			s.EnableAutoPrune(cfg.Budget.MaxNodes / 2)
		}
	}
	return s
}

// trackGate implements the per-gate bookkeeping shared by both run kinds:
// exact peak tracking (when requested), the peak cap, and the stride test.
// It returns the node count to sample (−1 when this gate is not a sample
// point) and whether the run must stop.
func trackGate[T any](run *Run, state core.Edge[T], i int, c *circuit.Circuit, cfg Config) (nodes int, stop bool) {
	nodes = -1
	sampling := (i+1)%cfg.Stride == 0 || i == c.Len()-1
	if cfg.TrackPeak || cfg.PeakCap > 0 || sampling {
		nodes = state.NodeCount()
		if nodes > run.PeakNodes {
			run.PeakNodes = nodes
		}
		if cfg.PeakCap > 0 && nodes > cfg.PeakCap {
			run.Failed = true
			run.FailNote = fmt.Sprintf("node cap %d exceeded", cfg.PeakCap)
			stop = true
		}
	}
	if !sampling {
		nodes = -1
	}
	return nodes, stop
}

// noteRunError folds a run error into the Run record: governor outcomes
// (budget exceeded, cancellation) mark the run Failed and keep its partial
// samples; hook stops are normal; anything else is a real error.
func noteRunError(run *Run, err error) (cancelled bool, fatal error) {
	switch {
	case err == nil:
		return false, nil
	case errors.Is(err, sim.ErrStopped):
		return false, nil // PeakCap stop; run already annotated
	case errors.Is(err, core.ErrBudgetExceeded):
		run.Failed = true
		run.FailNote = err.Error()
		return false, nil
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		run.Failed = true
		run.FailNote = "cancelled: " + err.Error()
		return true, nil
	default:
		return false, err
	}
}

// executeNumeric runs one ε cell on a private manager. algAmps is read-only
// shared data (the reference amplitudes from the algebraic run). The
// returned error is nil for completed (possibly Failed) runs, the context
// error for cancelled runs (whose partial Run is still returned), and a
// genuine error otherwise.
func executeNumeric(
	ctx context.Context, c *circuit.Circuit, eps float64, cfg Config,
	algAmps [][]alg.Q,
) (*Run, error) {
	// Numerical runs default to the max-magnitude normalization rule [29]:
	// keeping every edge weight at magnitude ≤ 1 is the numerically
	// stabilized state-of-the-art configuration the paper evaluates against.
	norm := core.NormMax
	if cfg.NumNormLeft {
		norm = core.NormLeft
	}
	run := &Run{Label: fmt.Sprintf("eps=%.0e", eps), Eps: eps, Norm: norm}
	if eps == 0 {
		run.Label = "eps=0"
	}
	m := core.NewManager[complex128](num.NewRing(eps), norm)
	s := newGovernedSim(m, c.N, cfg)
	start := time.Now()
	sampleIdx := 0
	err := s.RunCtx(ctx, c, func(i int, g circuit.Gate) bool {
		nodes, stop := trackGate(run, s.State, i, c, cfg)
		if nodes >= 0 {
			elapsed := time.Since(start).Seconds()
			sample := Sample{
				Gate:       i + 1,
				Nodes:      nodes,
				CumSeconds: elapsed,
				Norm:       math.Sqrt(m.Norm2(s.State)),
			}
			if cfg.MeasureError && sampleIdx < len(algAmps) {
				sample.Error = accuracy.VectorError(m.ToVector(s.State, c.N), algAmps[sampleIdx])
			}
			run.Samples = append(run.Samples, sample)
			sampleIdx++
			switch {
			case m.IsZero(s.State) || sample.Norm < 1e-9:
				run.Failed = true
				run.FailNote = "state collapsed to zero vector"
			case sample.Norm < 0.5 || sample.Norm > 2:
				// The paper's other invalid-state symptom: the evolution is
				// no longer norm-preserving (a "non-unitary" result).
				run.Failed = true
				run.FailNote = fmt.Sprintf("state norm diverged to %.3g", sample.Norm)
			}
		}
		return !stop
	})
	run.Total = time.Since(start)
	run.Stats = m.Stats()
	cancelled, ferr := noteRunError(run, err)
	if ferr != nil {
		return nil, fmt.Errorf("bench: numeric run ε=%g: %w", eps, ferr)
	}
	if cancelled {
		return run, ctx.Err()
	}
	return run, nil
}

// Package bench is the experiment harness that regenerates every figure of
// the paper's evaluation (Section V): it runs one benchmark circuit under
// the exact algebraic representation and under a list of numerical
// tolerances ε. Each run's per-gate series — QMDD size, cumulative run time,
// coefficient bit widths and norm — is recorded by sim.Trace every stride
// gates; bench adds only what needs the exact reference, the accuracy
// ‖v_num/‖v_num‖ − v_alg‖₂, and the float runs' invalid-state diagnosis.
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
	"time"

	"repro/internal/accuracy"
	"repro/internal/alg"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/num"
	"repro/internal/sim"
)

// Sample is one measured point of one run: the simulator's per-gate series
// point plus the error against the exact reference.
type Sample struct {
	sim.Point
	Error float64 // ‖v_num − v_alg‖₂; 0 (exact) for the algebraic run
}

// Run is one full simulation trace.
type Run struct {
	Label   string
	Eps     float64 // −1 for algebraic runs
	Norm    core.NormScheme
	Samples []Sample
	// PeakNodes is the trace's peak state size (sim.Trace.PeakNodes):
	// exact per gate when Config.TrackPeak or PeakCap is set, otherwise the
	// maximum over the strided samples.
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
	// tripping it spuriously. It holds sizes only: the time limit is
	// Execute's context, and a run it stops is noted as cancelled.
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
	res := &Result{Name: name, N: cfg.Circuit.N}
	var amps [][]alg.Q
	if cfg.Algebraic {
		run, refAmps, err := reference(ctx, cfg)
		if err != nil && !isCtxErr(err) {
			return nil, fmt.Errorf("bench: algebraic run: %w", err)
		}
		res.Runs = append(res.Runs, run)
		if err != nil {
			return res, ctx.Err()
		}
		amps = refAmps
	}
	runs, err := floatCells(ctx, cfg, amps)
	// Under cancellation, cells that never started leave nil slots.
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

// reference runs the exact algebraic cell. With cfg.MeasureError it also
// expands the state at every sample point to the amplitude vector the float
// cells measure their error against, so the float workers share only
// immutable data (a live *Manager[alg.Q] is not safe to share).
func reference(ctx context.Context, cfg Config) (*Run, [][]alg.Q, error) {
	run := &Run{Label: "algebraic/" + cfg.AlgNorm.String(), Eps: -1, Norm: cfg.AlgNorm}
	m := core.NewManager[alg.Q](alg.Ring{}, cfg.AlgNorm)
	var amps [][]alg.Q
	var atSample func(core.Edge[alg.Q], *Sample)
	if cfg.MeasureError {
		atSample = func(state core.Edge[alg.Q], _ *Sample) {
			amps = append(amps, m.ToVector(state, cfg.Circuit.N))
		}
	}
	err := runCell(ctx, cfg, run, m, atSample)
	return run, amps, err
}

// floatCells runs one float cell per ε of cfg.EpsList on the worker pool and
// returns the runs in ε-list order. amps is the reference's read-only
// amplitude series.
func floatCells(ctx context.Context, cfg Config, amps [][]alg.Q) ([]*Run, error) {
	// Numerical runs default to the max-magnitude normalization rule [29]:
	// keeping every edge weight at magnitude ≤ 1 is the numerically
	// stabilized state-of-the-art configuration the paper evaluates against.
	norm := core.NormMax
	if cfg.NumNormLeft {
		norm = core.NormLeft
	}
	runs := make([]*Run, len(cfg.EpsList))
	pool := Pool{Workers: cfg.Parallel}
	err := pool.Run(ctx, len(cfg.EpsList), func(ctx context.Context, i int) error {
		eps := cfg.EpsList[i]
		run := &Run{Label: fmt.Sprintf("eps=%.0e", eps), Eps: eps, Norm: norm}
		if eps == 0 {
			run.Label = "eps=0"
		}
		runs[i] = run // sole writer of this slot
		m := core.NewManager[complex128](num.NewRing(eps), norm)
		err := runCell(ctx, cfg, run, m, func(state core.Edge[complex128], smp *Sample) {
			if k := len(run.Samples) - 1; cfg.MeasureError && k < len(amps) {
				smp.Error = accuracy.VectorError(m.ToVector(state, cfg.Circuit.N), amps[k])
			}
			switch {
			case smp.Norm < 1e-9:
				run.fail("state collapsed to zero vector")
			case smp.Norm < 0.5 || smp.Norm > 2:
				// The paper's other invalid-state symptom: the evolution is
				// no longer norm-preserving (a "non-unitary" result).
				run.fail(fmt.Sprintf("state norm diverged to %.3g", smp.Norm))
			}
		})
		if err != nil && !isCtxErr(err) {
			return fmt.Errorf("bench: numeric run ε=%g: %w", eps, err)
		}
		return err
	})
	return runs, err
}

// runCell simulates cfg.Circuit on one private manager, recording the
// series into run through a sim.Trace; atSample, when set, fills in the
// bench-specific part of each sample while the sampled state is live.
// Governor outcomes (budget exceeded, cancellation) and the peak cap mark
// the run Failed with its partial samples kept. The returned error is nil
// for a completed (possibly Failed) run, the context error for a cancelled
// one, and a genuine error otherwise.
func runCell[T any](ctx context.Context, cfg Config, run *Run, m *core.Manager[T], atSample func(core.Edge[T], *Sample)) error {
	s := newGovernedSim(m, cfg.Circuit.N, cfg)
	tr := sim.Trace[T]{Stride: cfg.Stride, Peak: cfg.TrackPeak, PeakCap: cfg.PeakCap}
	tr.OnSample = func(p sim.Point) {
		run.Samples = append(run.Samples, Sample{Point: p})
		if atSample != nil {
			atSample(s.State, &run.Samples[len(run.Samples)-1])
		}
	}
	start := time.Now()
	err := s.RunCtx(ctx, cfg.Circuit, tr.Hook(s, cfg.Circuit))
	run.Total = time.Since(start)
	run.Stats = m.Stats()
	run.PeakNodes = tr.PeakNodes
	if tr.Capped {
		run.fail(fmt.Sprintf("node cap %d exceeded", cfg.PeakCap))
	}
	switch {
	case err == nil || errors.Is(err, sim.ErrStopped):
		return nil
	case errors.Is(err, core.ErrBudgetExceeded):
		run.fail(err.Error())
		return nil
	case isCtxErr(err):
		run.fail("cancelled: " + err.Error())
	}
	return err
}

func (r *Run) fail(note string) { r.Failed, r.FailNote = true, note }

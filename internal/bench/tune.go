package bench

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/circuit"
)

// The ε tuner mechanizes the procedure the paper identifies as the hidden
// cost of numerical QMDDs: "an application-specific trade-off … needs to be
// conducted on a case-by-case basis", requiring "time-consuming fine-tuning
// of the corresponding parameters". Tune runs the given circuit once
// exactly (the reference) and then once per candidate ε, accepting the
// largest tolerance that stays within the node and error budgets — and
// reporting the total tuning cost, which is the price the algebraic
// representation never pays.

// TuneTrial is the outcome of one candidate tolerance.
type TuneTrial struct {
	Eps float64
	// PeakNodes is the exact per-gate peak state size of the trial run (not
	// the old strided-sample maximum, which could miss an over-budget peak
	// between samples and wrongly accept the tolerance).
	PeakNodes int
	Error     float64
	Time      time.Duration
	Failed    bool
	FailNote  string
	Accepted  bool
}

// TuneResult aggregates a tuning session.
type TuneResult struct {
	Trials []TuneTrial
	// Best is the accepted tolerance (largest accepted ε), or NaN when no
	// candidate met the budgets.
	Best float64
	// AlgebraicNodes/AlgebraicTime describe the reference run: the
	// configuration-free alternative.
	AlgebraicNodes int
	AlgebraicTime  time.Duration
	// MaxNodes is the node budget the trials were judged against:
	// TuneParams.MaxNodes, or 4× AlgebraicNodes by default.
	MaxNodes int
	// TotalTuningTime is the wall-clock cost of the whole search
	// (reference + every trial).
	TotalTuningTime time.Duration
}

// TuneParams parameterizes a tuning session.
type TuneParams struct {
	// Candidates are the tolerances to try, typically descending from large
	// to small.
	Candidates []float64
	// MaxNodes is the peak-diagram-size acceptance budget; 0 (or less)
	// means 4× the exact reference's peak.
	MaxNodes int
	// MaxError is the final-state error acceptance budget.
	MaxError float64
	// Parallel bounds the worker pool fanning the candidate trials out to
	// share-nothing managers: 0 = GOMAXPROCS, 1 = sequential. The trial
	// table, Best and everything except timing fields are identical for
	// every setting.
	Parallel int
}

// Tune searches the candidate tolerances for the largest ε whose run keeps
// the exact per-gate peak diagram size within the node budget and the
// final state error within p.MaxError. It is one experiment: the exact
// reference runs once, uncapped (it anchors the default node budget and
// every trial's error), then the candidates run as its float cells, each
// stopped once it exceeds 4× the node budget. Best is chosen after the
// cells merge in candidate order, so the session is deterministic for any
// worker count. On cancellation the trials completed so far are returned
// alongside the context error.
func Tune(ctx context.Context, c *circuit.Circuit, p TuneParams) (*TuneResult, error) {
	start := time.Now()
	res := &TuneResult{Best: math.NaN()}
	defer func() { res.TotalTuningTime = time.Since(start) }()

	cfg := Config{
		Circuit:      c,
		EpsList:      p.Candidates,
		Stride:       max(1, c.Len()/16),
		MeasureError: true,
		TrackPeak:    true, // exact peaks: a between-samples spike must count
		Parallel:     p.Parallel,
	}
	ref, amps, err := reference(ctx, cfg)
	res.AlgebraicNodes, res.AlgebraicTime = ref.PeakNodes, ref.Total
	if err != nil {
		if isCtxErr(err) {
			return res, ctx.Err()
		}
		return nil, fmt.Errorf("bench: tuning reference run: %w", err)
	}
	res.MaxNodes = p.MaxNodes
	if res.MaxNodes <= 0 {
		res.MaxNodes = 4 * ref.PeakNodes
	}
	cfg.PeakCap = 4 * res.MaxNodes // abort hopeless runs early

	runs, err := floatCells(ctx, cfg, amps)
	// Merge in candidate order; Best falls out deterministically.
	for _, run := range runs {
		if run == nil {
			continue
		}
		trial := TuneTrial{
			Eps: run.Eps, PeakNodes: run.PeakNodes, Time: run.Total,
			Failed: run.Failed, FailNote: run.FailNote,
		}
		if n := len(run.Samples); n > 0 {
			trial.Error = run.Samples[n-1].Error
		}
		trial.Accepted = !trial.Failed && trial.PeakNodes <= res.MaxNodes && trial.Error <= p.MaxError
		res.Trials = append(res.Trials, trial)
		if trial.Accepted && (math.IsNaN(res.Best) || trial.Eps > res.Best) {
			res.Best = trial.Eps
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

// Report renders the tuning session as a table.
func (r *TuneResult) Report() string {
	out := fmt.Sprintf("%-12s %12s %14s %12s %s\n", "epsilon", "peak nodes", "final error", "time", "verdict")
	for _, t := range r.Trials {
		verdict := "rejected"
		if t.Accepted {
			verdict = "ACCEPTED"
		}
		if t.Failed {
			verdict = "FAILED: " + t.FailNote
		}
		out += fmt.Sprintf("%-12.0e %12d %14.3e %12v %s\n", t.Eps, t.PeakNodes, t.Error, t.Time.Round(time.Millisecond), verdict)
	}
	if math.IsNaN(r.Best) {
		out += "no tolerance met the budgets\n"
	} else {
		out += fmt.Sprintf("chosen ε = %.0e after %v of tuning\n", r.Best, r.TotalTuningTime.Round(time.Millisecond))
	}
	out += fmt.Sprintf("algebraic alternative: %d peak nodes, %v, zero error, zero tuning\n",
		r.AlgebraicNodes, r.AlgebraicTime.Round(time.Millisecond))
	return out
}

package bench

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/alg"
	"repro/internal/core"
	"repro/internal/sim"

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
	// TotalTuningTime is the wall-clock cost of the whole search
	// (reference + every trial).
	TotalTuningTime time.Duration
}

// TuneParams parameterizes a tuning session.
type TuneParams struct {
	// Candidates are the tolerances to try, typically descending from large
	// to small.
	Candidates []float64
	// MaxNodes is the peak-diagram-size acceptance budget.
	MaxNodes int
	// MaxError is the final-state error acceptance budget.
	MaxError float64
	// Parallel bounds the worker pool fanning the candidate trials out to
	// share-nothing managers: 0 = GOMAXPROCS, 1 = sequential. The trial
	// table, Best and everything except timing fields are identical for
	// every setting.
	Parallel int
}

// Tune searches the candidate tolerances (typically descending from large
// to small) for the largest ε whose run keeps the peak diagram size within
// p.MaxNodes and the final state error within p.MaxError. The exact
// reference run goes first (it anchors the node budget), then every
// candidate trial runs as one pool cell with private managers. Trials are
// merged in candidate order and Best is chosen after the merge, so the
// session is deterministic for any worker count. On cancellation the
// trials completed so far are returned alongside the context error.
func Tune(ctx context.Context, c *circuit.Circuit, p TuneParams) (*TuneResult, error) {
	start := time.Now()
	res := &TuneResult{Best: math.NaN()}
	defer func() { res.TotalTuningTime = time.Since(start) }()
	candidates, maxNodes, maxError := p.Candidates, p.MaxNodes, p.MaxError

	// Exact reference run, tracking the exact per-gate peak.
	mAlg := core.NewManager[alg.Q](alg.Ring{}, core.NormLeft)
	sa := sim.New(mAlg, c.N)
	algStart := time.Now()
	peakAlg := 0
	err := sa.RunCtx(ctx, c, func(i int, g circuit.Gate) bool {
		if n := sa.State.NodeCount(); n > peakAlg {
			peakAlg = n
		}
		return true
	})
	res.AlgebraicTime = time.Since(algStart)
	res.AlgebraicNodes = peakAlg
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return res, ctx.Err()
		}
		return nil, fmt.Errorf("bench: tuning reference run: %w", err)
	}

	trials := make([]*TuneTrial, len(candidates))
	pool := Pool{Workers: p.Parallel}
	perr := pool.Run(ctx, len(candidates), func(ctx context.Context, i int) error {
		eps := candidates[i]
		r, err := Execute(ctx, fmt.Sprintf("tune-%g", eps), Config{
			Circuit:      c,
			EpsList:      []float64{eps},
			Algebraic:    true, // reference for the error metric
			Stride:       maxInt(1, c.Len()/16),
			MeasureError: true,
			TrackPeak:    true,         // exact peaks: a between-samples spike must count
			PeakCap:      maxNodes * 4, // abort hopeless runs early
			Parallel:     1,            // one pool: the cell is the unit of fan-out
		})
		cancelled := err != nil && isCtxErr(err)
		if err != nil && !cancelled {
			return err
		}
		if r != nil && len(r.Runs) > 0 {
			run := r.Runs[len(r.Runs)-1] // the numeric run (or partial reference)
			if run.Eps >= 0 {            // only record actual numeric trials
				trial := &TuneTrial{
					Eps: eps, PeakNodes: run.PeakNodes, Time: run.Total,
					Failed: run.Failed, FailNote: run.FailNote,
				}
				for _, s := range run.Samples {
					trial.Error = s.Error
				}
				trial.Accepted = !trial.Failed && trial.PeakNodes <= maxNodes && trial.Error <= maxError
				trials[i] = trial // sole writer of this slot
			}
		}
		if cancelled {
			return ctx.Err()
		}
		return nil
	})
	// Merge in candidate order; Best falls out deterministically.
	for _, trial := range trials {
		if trial == nil {
			continue
		}
		res.Trials = append(res.Trials, *trial)
		if trial.Accepted && (math.IsNaN(res.Best) || trial.Eps > res.Best) {
			res.Best = trial.Eps
		}
	}
	if perr != nil {
		if isCtxErr(perr) {
			return res, ctx.Err()
		}
		return nil, perr
	}
	return res, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
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

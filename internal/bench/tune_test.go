package bench

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/num"
	"repro/internal/sim"
)

// peakCircuit builds a 32-gate circuit whose state-size peak falls after an
// odd gate count: a 15-gate GHZ ramp (peak after gate 15), its 15-gate
// inverse, and two padding gates. Tune samples this circuit with stride
// 32/16 = 2 — even gate counts only — so the true peak sits exactly between
// two sample points.
func peakCircuit() *circuit.Circuit {
	const n = 15
	c := circuit.New("peak", n)
	c.H(0)
	for q := 1; q < n; q++ {
		c.CX(q-1, q)
	}
	for q := n - 1; q >= 1; q-- {
		c.CX(q-1, q)
	}
	c.H(0)
	c.X(0)
	c.X(0)
	return c
}

// TestTuneExactPeakRegression is the regression test for the strided-peak
// bug: TuneTrial.PeakNodes used to be the maximum over the strided samples,
// so a diagram spike between two sample points went unseen and an
// over-budget tolerance was wrongly accepted. The tuner must observe the
// exact per-gate peak and reject the candidate.
func TestTuneExactPeakRegression(t *testing.T) {
	c := peakCircuit()
	if c.Len() != 32 {
		t.Fatalf("circuit has %d gates, want 32", c.Len())
	}
	stride := max(1, c.Len()/16)

	// Ground truth: the exact and strided peaks of the (deterministic) trial
	// run. sim's recorder tests check the exact peak against a plain per-gate
	// NodeCount.
	m := core.NewManager[complex128](num.NewRing(1e-12), core.NormMax)
	s := sim.New(m, c.N)
	tr := sim.Trace[complex128]{Stride: stride, Peak: true}
	if err := s.Run(c, tr.Hook(s, c)); err != nil {
		t.Fatal(err)
	}
	truePeak, stridedPeak := tr.PeakNodes, 0
	for _, p := range tr.Points {
		stridedPeak = max(stridedPeak, p.Nodes)
	}
	if truePeak <= stridedPeak {
		t.Fatalf("test circuit does not peak between samples (true %d, strided %d)", truePeak, stridedPeak)
	}

	// Budget between the two: the strided view fits, the real run does not.
	res, err := Tune(context.Background(), c, TuneParams{Candidates: []float64{1e-12}, MaxNodes: stridedPeak, MaxError: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 1 {
		t.Fatalf("trials: %d", len(res.Trials))
	}
	trial := res.Trials[0]
	if trial.PeakNodes != truePeak {
		t.Fatalf("trial peak = %d, want exact per-gate peak %d (strided max %d)",
			trial.PeakNodes, truePeak, stridedPeak)
	}
	if trial.Accepted {
		t.Fatalf("over-budget tolerance accepted: peak %d > budget %d", trial.PeakNodes, stridedPeak)
	}
	if !math.IsNaN(res.Best) {
		t.Fatalf("Best = %v, want NaN (no acceptable candidate)", res.Best)
	}
}

// TestExecuteCtxCancelledReturnsPartial: a cancelled context ends the
// experiment with the context error and whatever runs completed, each
// annotated as cancelled rather than silently truncated.
func TestExecuteCtxCancelledReturnsPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Execute(ctx, "cancelled", Config{
		Circuit: peakCircuit(),
		EpsList: []float64{1e-10},
		Stride:  4,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res == nil || len(res.Runs) == 0 {
		t.Fatal("no partial result returned")
	}
	run := res.Runs[len(res.Runs)-1]
	if !run.Failed || run.FailNote == "" {
		t.Fatalf("cancelled run not annotated: %+v", run)
	}
}

// TestTuneCtxCancelledReturnsPartial: same contract for the tuner.
func TestTuneCtxCancelledReturnsPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Tune(ctx, peakCircuit(), TuneParams{Candidates: []float64{1e-3, 1e-10}, MaxNodes: 1000, MaxError: 1e-6})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res == nil {
		t.Fatal("no partial result returned")
	}
	if !math.IsNaN(res.Best) {
		t.Fatalf("cancelled session chose ε = %v", res.Best)
	}
}

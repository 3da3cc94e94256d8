package bench

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// TestPoolRunsEveryCellOnce: every cell index is executed exactly once.
func TestPoolRunsEveryCellOnce(t *testing.T) {
	const n = 64
	var ran [n]atomic.Int32
	p := Pool{Workers: 4}
	err := p.Run(context.Background(), n, func(ctx context.Context, i int) error {
		ran[i].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if got := ran[i].Load(); got != 1 {
			t.Fatalf("cell %d ran %d times", i, got)
		}
	}
}

// TestPoolFatalErrorSmallestIndex: when several cells fail, Run reports the
// failure with the smallest index — the one the sequential sweep would have
// hit first — regardless of completion order, and stops dispatching.
func TestPoolFatalErrorSmallestIndex(t *testing.T) {
	const n = 32
	errLow := errors.New("low")
	errHigh := errors.New("high")
	var started atomic.Int32
	p := Pool{Workers: 4}
	err := p.Run(context.Background(), n, func(ctx context.Context, i int) error {
		started.Add(1)
		switch i {
		case 9:
			// Fail late so the higher-index failure is recorded first.
			time.Sleep(20 * time.Millisecond)
			return errLow
		case 10:
			return errHigh
		default:
			time.Sleep(time.Millisecond)
			return nil
		}
	})
	if !errors.Is(err, errLow) {
		t.Fatalf("want smallest-index error %v, got %v", errLow, err)
	}
	if got := started.Load(); got == n {
		t.Fatalf("fatal error did not stop dispatch: all %d cells started", got)
	}
}

// TestPoolCtxErrorsAreNotFatal: a cell that comes back with a context error
// (the governed "this run was cancelled" outcome the harness folds into the
// run record) must not abort its siblings.
func TestPoolCtxErrorsAreNotFatal(t *testing.T) {
	const n = 16
	var ran atomic.Int32
	p := Pool{Workers: 4}
	err := p.Run(context.Background(), n, func(ctx context.Context, i int) error {
		ran.Add(1)
		if i == 3 {
			return fmt.Errorf("cell: %w", context.Canceled)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("ctx-shaped cell error escalated to fatal: %v", err)
	}
	if got := ran.Load(); got != n {
		t.Fatalf("only %d/%d cells ran", got, n)
	}
}

// TestPoolCancellationDrains: cancelling the context stops dispatch, the
// in-flight cells observe it, and Run returns only after they unwound.
func TestPoolCancellationDrains(t *testing.T) {
	const n = 64
	ctx, cancel := context.WithCancel(context.Background())
	var started, unwound atomic.Int32
	p := Pool{Workers: 4}
	err := p.Run(ctx, n, func(ctx context.Context, i int) error {
		started.Add(1)
		defer unwound.Add(1)
		if i == 2 {
			cancel()
		}
		<-ctx.Done() // every in-flight cell sees the cancellation
		return ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if s, u := started.Load(), unwound.Load(); s != u {
		t.Fatalf("Run returned with %d of %d cells still in flight", s-u, s)
	}
	if started.Load() == n {
		t.Fatal("cancellation did not stop dispatch")
	}
}

// sameRuns compares two run slices on everything the CSV and figures derive
// from diagram arithmetic — labels, per-sample node counts, errors, bit
// widths, norms, peaks, failure verdicts, manager counters — ignoring only
// the wall-clock fields (CumSeconds, Total), which legitimately vary.
func sameRuns(t *testing.T, seq, par []*Run) {
	t.Helper()
	if len(seq) != len(par) {
		t.Fatalf("run counts differ: %d vs %d", len(seq), len(par))
	}
	for k := range seq {
		a, b := seq[k], par[k]
		if a.Label != b.Label || a.Eps != b.Eps || a.Norm != b.Norm {
			t.Fatalf("run %d identity differs: %q/%v/%v vs %q/%v/%v",
				k, a.Label, a.Eps, a.Norm, b.Label, b.Eps, b.Norm)
		}
		if a.PeakNodes != b.PeakNodes || a.Failed != b.Failed || a.FailNote != b.FailNote {
			t.Fatalf("run %q verdict differs: peak %d/%d failed %v/%v note %q/%q",
				a.Label, a.PeakNodes, b.PeakNodes, a.Failed, b.Failed, a.FailNote, b.FailNote)
		}
		if a.Stats != b.Stats {
			t.Fatalf("run %q manager counters differ:\nseq: %+v\npar: %+v", a.Label, a.Stats, b.Stats)
		}
		if len(a.Samples) != len(b.Samples) {
			t.Fatalf("run %q sample counts differ: %d vs %d", a.Label, len(a.Samples), len(b.Samples))
		}
		for i := range a.Samples {
			sa, sb := a.Samples[i], b.Samples[i]
			if sa.Gate != sb.Gate || sa.Nodes != sb.Nodes || sa.Error != sb.Error ||
				sa.MaxBits != sb.MaxBits || sa.Norm != sb.Norm {
				t.Fatalf("run %q sample %d differs:\nseq: %+v\npar: %+v", a.Label, i, sa, sb)
			}
		}
	}
}

// TestExecuteParallelDeterminism is the pool's core guarantee: the merged
// Result of a parallel sweep is identical to the sequential one in every
// field the CSV and figures use — only timing may differ.
func TestExecuteParallelDeterminism(t *testing.T) {
	p := smallParams()
	p.GroverQubits = 6
	cfg := Config{
		Circuit:      GroverCircuit(p),
		EpsList:      []float64{0, 1e-10, 1e-3},
		Algebraic:    true,
		AlgNorm:      core.NormLeft,
		Stride:       16,
		MeasureError: true,
	}
	cfg.Parallel = 1
	seq, err := Execute(context.Background(), "det", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallel = 4
	par, err := Execute(context.Background(), "det", cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameRuns(t, seq.Runs, par.Runs)
}

// TestTuneWithParallelDeterminism: the tuner's verdicts and chosen ε are
// identical whether candidates run sequentially or on the pool.
func TestTuneWithParallelDeterminism(t *testing.T) {
	c := GroverCircuit(smallParams())
	params := TuneParams{Candidates: []float64{1e-3, 1e-10}, MaxNodes: 100, MaxError: 1e-10}
	seq, err := Tune(context.Background(), c, params)
	if err != nil {
		t.Fatal(err)
	}
	params.Parallel = 2
	par, err := Tune(context.Background(), c, params)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Best != par.Best {
		t.Fatalf("chosen ε differs: %v vs %v", seq.Best, par.Best)
	}
	if len(seq.Trials) != len(par.Trials) {
		t.Fatalf("trial counts differ: %d vs %d", len(seq.Trials), len(par.Trials))
	}
	for i := range seq.Trials {
		a, b := seq.Trials[i], par.Trials[i]
		if a.Eps != b.Eps || a.Accepted != b.Accepted || a.PeakNodes != b.PeakNodes ||
			a.Error != b.Error || a.FailNote != b.FailNote {
			t.Fatalf("trial %d differs:\nseq: %+v\npar: %+v", i, a, b)
		}
	}
}

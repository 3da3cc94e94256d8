package main

// -bench-json: single-run wall-clock benchmarks for the identity-skipping
// local apply path, written as one JSON report. Unlike the figure sweeps
// (which measure the paper's quantities), this mode measures the
// *implementation*: for each workload it times
//
//   - "mul"   — the classic pipeline, gates.BuildDD + Mul (the pre-local
//               baseline, kept in-tree as the differential-test oracle);
//   - "local" — core.ApplyLocal.
//
// Both produce identical states (asserted below via CrossEqual); only the
// time/allocation profile differs. Every variant is run repeat
// times on a fresh manager and the best (minimum) wall time is reported —
// single-run benchmarks are noisy, the minimum is the least-noisy robust
// statistic for "how fast can this go".

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/alg"
	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/sim"
)

// benchRepeat is the per-variant repetition count (best-of is reported).
const benchRepeat = 3

type benchVariant struct {
	Name       string  `json:"name"`
	Seconds    float64 `json:"seconds"` // best of benchRepeat runs
	AllocBytes uint64  `json:"alloc_bytes"`
	Mallocs    uint64  `json:"mallocs"`
	PeakNodes  int     `json:"peak_nodes"`
	FinalNodes int     `json:"final_nodes"`
}

type benchFigure struct {
	Figure   string         `json:"figure"`
	Workload string         `json:"workload"`
	Qubits   int            `json:"qubits"`
	Gates    int            `json:"gates"`
	Variants []benchVariant `json:"variants"`
	// SpeedupLocalVsMul is mul_seconds / local_seconds: the win of
	// identity-skipping application over BuildDD+Mul.
	SpeedupLocalVsMul float64 `json:"speedup_local_vs_mul"`
}

type benchReport struct {
	GeneratedUnix  int64         `json:"generated_unix"`
	NumCPU         int           `json:"num_cpu"`
	GOMAXPROCS     int           `json:"gomaxprocs"`
	Representation string        `json:"representation"`
	Figures        []benchFigure `json:"figures"`
}

// runBenchJSON runs the single-run benchmarks and writes the report to path.
func runBenchJSON(ctx context.Context, p bench.FigureParams, path string) error {
	gse, err := bench.GSECircuit(p)
	if err != nil {
		return err
	}
	workloads := []struct {
		figure, name string
		c            *circuit.Circuit
	}{
		{"fig3", "grover", bench.GroverCircuit(p)},
		{"fig4", "bwt", bench.BWTCircuit(p)},
		{"fig5", "gse", gse},
	}
	rep := benchReport{
		GeneratedUnix:  time.Now().Unix(),
		NumCPU:         runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		Representation: "alg/left",
	}
	for _, w := range workloads {
		fig, err := benchOne(ctx, w.figure, w.name, w.c, p)
		if err != nil {
			return fmt.Errorf("bench-json %s/%s: %w", w.figure, w.name, err)
		}
		rep.Figures = append(rep.Figures, *fig)
		fmt.Printf("bench-json %s-%s: mul %.3fs  local %.3fs  (local/mul %.2fx)\n",
			w.figure, w.name, fig.Variants[0].Seconds, fig.Variants[1].Seconds,
			fig.SpeedupLocalVsMul)
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// benchOne benchmarks all variants on one circuit and cross-checks that they
// agree on the final state.
func benchOne(ctx context.Context, figure, name string, c *circuit.Circuit, p bench.FigureParams) (*benchFigure, error) {
	fig := &benchFigure{Figure: figure, Workload: name, Qubits: c.N, Gates: c.Len()}

	variants := []struct {
		name    string
		mulPath bool
	}{
		{"mul", true},
		{"local", false},
	}
	// One reference manager keeps each variant's final state for the
	// cross-check: every path must land on the same canonical diagram.
	var refM *core.Manager[alg.Q]
	var refState core.Edge[alg.Q]
	for _, v := range variants {
		best := benchVariant{Name: v.name}
		for rep := 0; rep < benchRepeat; rep++ {
			m := core.NewManager[alg.Q](alg.Ring{}, core.NormLeft)
			m.SetBudget(p.Budget)
			r, err := benchRun(ctx, m, c, v.mulPath)
			if err != nil {
				return nil, err
			}
			if rep == 0 || r.Seconds < best.Seconds {
				r.Name = v.name
				best = r.benchVariant
			}
			if refM == nil {
				refM, refState = m, r.state
			} else if !core.CrossEqual(refM, refState, m, r.state) {
				return nil, fmt.Errorf("variant %s diverged from %s", v.name, variants[0].name)
			}
		}
		fig.Variants = append(fig.Variants, best)
	}
	if s := fig.Variants[1].Seconds; s > 0 {
		fig.SpeedupLocalVsMul = fig.Variants[0].Seconds / s
	}
	return fig, nil
}

// benchRunResult carries the measured quantities plus the final state for
// the cross-variant equality check.
type benchRunResult struct {
	benchVariant
	state core.Edge[alg.Q]
}

// benchRun simulates the circuit once on a fresh manager, via either the
// classic BuildDD+Mul pipeline or the local apply path, and measures wall
// time, allocation, and the exact per-gate peak state size.
func benchRun(ctx context.Context, m *core.Manager[alg.Q], c *circuit.Circuit, mulPath bool) (benchRunResult, error) {
	var r benchRunResult
	s := sim.New(m, c.N)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if mulPath {
		// The pre-local pipeline, gate diagram + matrix-vector Mul.
		for i, g := range c.Gates {
			if i%64 == 0 {
				if err := ctx.Err(); err != nil {
					return r, err
				}
			}
			dd, err := s.GateDD(g)
			if err != nil {
				return r, err
			}
			s.State = m.Mul(dd, s.State)
			if n := s.State.NodeCount(); n > r.PeakNodes {
				r.PeakNodes = n
			}
		}
	} else {
		err := s.RunCtx(ctx, c, func(i int, g circuit.Gate) bool {
			if n := s.State.NodeCount(); n > r.PeakNodes {
				r.PeakNodes = n
			}
			return true
		})
		if err != nil {
			return r, err
		}
	}
	r.Seconds = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	r.AllocBytes = after.TotalAlloc - before.TotalAlloc
	r.Mallocs = after.Mallocs - before.Mallocs
	r.FinalNodes = s.State.NodeCount()
	r.state = s.State
	return r, nil
}

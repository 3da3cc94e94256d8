package main

// -bench-json: single-run wall-clock benchmarks for the identity-skipping
// local apply path (core.ApplyLocal), written as one JSON report. Unlike the
// figure sweeps (which measure the paper's quantities), this mode measures
// the *implementation*. Each workload is run benchRepeat times on a fresh
// manager and the best (minimum) wall time is reported — single-run
// benchmarks are noisy, the minimum is the least-noisy robust statistic for
// "how fast can this go". The BuildDD+Mul pipeline this path replaced is
// the differential oracle of internal/sim's tests.

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

// benchRepeat is the repetition count (best-of is reported).
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
		fmt.Printf("bench-json %s-%s: local %.3fs\n", w.figure, w.name, fig.Variants[0].Seconds)
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

// benchOne benchmarks the local apply path on one circuit.
func benchOne(ctx context.Context, figure, name string, c *circuit.Circuit, p bench.FigureParams) (*benchFigure, error) {
	var best benchVariant
	for rep := 0; rep < benchRepeat; rep++ {
		m := core.NewManager[alg.Q](alg.Ring{}, core.NormLeft)
		m.SetBudget(p.Budget)
		r, err := benchRun(ctx, m, c)
		if err != nil {
			return nil, err
		}
		if rep == 0 || r.Seconds < best.Seconds {
			best = r
		}
	}
	return &benchFigure{Figure: figure, Workload: name, Qubits: c.N, Gates: c.Len(),
		Variants: []benchVariant{best}}, nil
}

// benchRun simulates the circuit once on a fresh manager and measures wall
// time, allocation, and the exact per-gate peak state size.
func benchRun(ctx context.Context, m *core.Manager[alg.Q], c *circuit.Circuit) (benchVariant, error) {
	r := benchVariant{Name: "local"}
	s := sim.New(m, c.N)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := s.RunCtx(ctx, c, func(i int, g circuit.Gate) bool {
		if n := s.State.NodeCount(); n > r.PeakNodes {
			r.PeakNodes = n
		}
		return true
	})
	if err != nil {
		return r, err
	}
	r.Seconds = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	r.AllocBytes = after.TotalAlloc - before.TotalAlloc
	r.Mallocs = after.Mallocs - before.Mallocs
	r.FinalNodes = s.State.NodeCount()
	return r, nil
}

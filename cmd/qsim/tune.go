package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
)

// cmdTune is `qsim tune [flags]`: the per-application ε fine-tuning that
// the paper identifies as the hidden cost of numerical QMDDs. It sweeps
// candidate tolerances over a workload, accepts the largest ε meeting the
// size and accuracy budgets, and reports the total tuning time next to the
// tuning-free exact algebraic run.
func cmdTune(args []string) {
	fs := flag.NewFlagSet("qsim tune", flag.ExitOnError)
	var w workload
	w.register(fs, workload{alg: "grover", n: 8, depth: 5, steps: 24})
	var (
		maxNodes = fs.Int("max-nodes", 0, "node budget (default: 4× the exact size)")
		maxErr   = fs.Float64("maxerror", 1e-10, "final-state error budget")
		epsFlag  = fs.String("eps", "1e-3,1e-5,1e-10,1e-13,1e-15", "candidate tolerances, largest first")
		timeout  = fs.Duration("timeout", 0, "wall-clock budget for the whole tuning session (0 = none); partial trials are reported on expiry")
		parallel = fs.Int("parallel", 0, "worker pool for the candidate trials, each on private managers (0 = GOMAXPROCS, 1 = sequential); the trial table is identical for every setting")
	)
	parse(fs, args)
	c, err := w.build(os.Stdout)
	if err != nil {
		fatal(err)
	}
	var candidates []float64
	for _, part := range strings.Split(*epsFlag, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			fatal(fmt.Errorf("bad -eps entry %q: %v", part, err))
		}
		candidates = append(candidates, v)
	}

	fmt.Printf("tuning ε for %s (%d qubits, %d gates), budgets: error ≤ %.0e\n",
		c.Name, c.N, c.Len(), *maxErr)

	// SIGINT or -timeout cancels the tuning session; the trials completed
	// so far are still reported.
	ctx, stop := governorContext(*timeout)
	defer stop()

	res, err := bench.Tune(ctx, c, bench.TuneParams{
		Candidates: candidates,
		MaxNodes:   *maxNodes,
		MaxError:   *maxErr,
		Parallel:   *parallel,
	})
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		fmt.Printf("qsim: tuning stopped early (%v); partial trials below\n", err)
	case err != nil:
		fatal(err)
	case *maxNodes <= 0:
		fmt.Printf("node budget: 4 × exact size = %d\n", res.MaxNodes)
	}
	fmt.Print(res.Report())
}

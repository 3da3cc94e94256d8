// Command qbench regenerates the experiments of the paper's evaluation
// section: the accuracy/compactness trade-off sweeps of Figs. 2–5 and the
// normalization-scheme comparison of Section V-B. It prints a per-run
// summary plus ASCII series and optionally writes tidy CSV files.
//
// Usage examples:
//
//	qbench -fig 3                       # Grover trade-off (Fig. 3a/b/c)
//	qbench -fig 5 -phasebits 4 -skdepth 2   # heavier GSE (Fig. 5)
//	qbench -fig norms                   # Algorithm 2 vs Algorithm 3
//	qbench -fig all -out results/       # everything, with CSVs
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/buildinfo"
)

func main() {
	var (
		fig         = flag.String("fig", "3", "figure to regenerate: 2, 3, 4, 5, norms, all")
		outDir      = flag.String("out", "", "directory for CSV output (optional)")
		grover      = flag.Int("grover", 0, "override Grover qubit count (paper: 15)")
		bwtDepth    = flag.Int("bwtdepth", 0, "override BWT tree depth")
		bwtSteps    = flag.Int("bwtsteps", 0, "override BWT walk steps")
		phaseBits   = flag.Int("phasebits", 0, "override GSE phase register size")
		skDepth     = flag.Int("skdepth", -1, "override GSE Solovay–Kitaev depth")
		netLen      = flag.Int("netlen", 0, "override synthesizer net length")
		stride      = flag.Int("stride", 0, "override sampling stride")
		noError     = flag.Bool("noerror", false, "skip the per-sample accuracy metric (faster)")
		maxNodes    = flag.Int("max-nodes", 0, "budget: max live QMDD nodes per run (0 = default 200000)")
		maxMem      = flag.Int64("max-mem", 0, "budget: approximate max bytes of nodes+weights per run (0 = unlimited)")
		timeout     = flag.Duration("timeout", 0, "wall-clock limit for the whole invocation (0 = none); partial results are printed on expiry")
		epsFlag     = flag.String("eps", "", "comma-separated ε list (default: paper sweep)")
		width       = flag.Int("width", 60, "ASCII chart width")
		numNorm     = flag.String("numnorm", "max", "numeric normalization: max (stabilized [29]) or left (classic)")
		parallel    = flag.Int("parallel", 0, "worker pool for the sweep cells, each on a private manager (0 = GOMAXPROCS, 1 = sequential); output is identical for every setting")
		cpuProf     = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf     = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
		benchJSON   = flag.String("bench-json", "", "single-run implementation benchmark instead of a figure sweep: time each workload under the local apply path, and write the JSON report to this path")
		prefixBench = flag.Int("prefix-bench", 0, "shared-prefix batch benchmark instead of a figure sweep: submit this many Grover variants once through POST /v1/batches (prefix simulated exactly once, variants warm-started from its checkpoint) and once as independent cold jobs, assert byte-identical amplitudes in both representations, and write the JSON report")
		prefixJSON  = flag.String("prefix-json", "BENCH_prefix.json", "report path for -prefix-bench")
	)
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("qbench", buildinfo.Read())
		return
	}
	numNormLeft := false
	switch *numNorm {
	case "max":
	case "left":
		numNormLeft = true
	default:
		fatal(fmt.Errorf("bad -numnorm %q (want max or left)", *numNorm))
	}

	p := bench.DefaultParams()
	if *grover > 0 {
		p.GroverQubits = *grover
	}
	if *bwtDepth > 0 {
		p.BWTDepth = *bwtDepth
	}
	if *bwtSteps > 0 {
		p.BWTSteps = *bwtSteps
	}
	if *phaseBits > 0 {
		p.GSEPhaseBits = *phaseBits
	}
	if *skDepth >= 0 {
		p.GSESKDepth = *skDepth
	}
	if *netLen > 0 {
		p.SynthNetLen = *netLen
	}
	if *stride > 0 {
		p.Stride = *stride
	}
	if *noError {
		p.MeasureError = false
	}
	if *maxNodes > 0 {
		p.Budget.MaxNodes = *maxNodes
	}
	if *maxMem > 0 {
		p.Budget.MaxBytes = *maxMem
	}
	p.NumNormLeft = numNormLeft
	p.Parallel = *parallel
	if *epsFlag != "" {
		var eps []float64
		for _, part := range strings.Split(*epsFlag, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				fatal(fmt.Errorf("bad -eps entry %q: %v", part, err))
			}
			eps = append(eps, v)
		}
		p.EpsList = eps
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fatal(err)
		}
	}

	// SIGINT (and -timeout) cancel the experiment cooperatively: completed
	// runs and partial samples are still summarized below instead of dying.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	figs := []string{*fig}
	if *fig == "all" {
		figs = []string{"2", "3", "4", "5", "norms"}
	}
	var runErr error
	switch {
	case *prefixBench > 0:
		runErr = runPrefixBench(ctx, p, *prefixBench, *prefixJSON)
	case *benchJSON != "":
		runErr = runBenchJSON(ctx, p, *benchJSON)
	default:
		for _, f := range figs {
			if runErr = runOne(ctx, f, p, *outDir, *width); runErr != nil {
				break
			}
		}
	}
	if runErr != nil && (errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded)) {
		fmt.Printf("qbench: stopped early (%v); partial results above\n", runErr)
		runErr = nil
	}

	// Flush the profiles before reporting any error: a profile of a partial
	// run is still a useful profile.
	if *cpuProf != "" {
		pprof.StopCPUProfile()
	}
	if *memProf != "" {
		if err := writeHeapProfile(*memProf); err != nil && runErr == nil {
			runErr = err
		}
	}
	if runErr != nil {
		fatal(runErr)
	}
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // materialize up-to-date allocation statistics
	return pprof.WriteHeapProfile(f)
}

func runOne(ctx context.Context, fig string, p bench.FigureParams, outDir string, width int) error {
	var (
		res *bench.Result
		err error
	)
	if fig == "norms" {
		res, err = bench.NormSchemeComparison(ctx, bench.BWTCircuit(p), p.Stride, p.Parallel)
	} else {
		res, err = bench.Figure(ctx, fig, p)
	}
	if err != nil && !(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return err
	}
	if res == nil || len(res.Runs) == 0 {
		return err
	}
	cancelErr := err
	fmt.Println(bench.Summary(res))
	fmt.Println(bench.StatsSummary(res))
	fmt.Println(bench.Series(res, "nodes", width))
	if fig != "2" && fig != "norms" {
		fmt.Println(bench.Series(res, "error", width))
		fmt.Println(bench.Series(res, "time", width))
	}
	if fig == "norms" || fig == "5" {
		fmt.Println(bench.Series(res, "bits", width))
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(outDir, res.Name+".csv")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := bench.WriteCSV(f, res); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return cancelErr
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qbench:", err)
	os.Exit(1)
}

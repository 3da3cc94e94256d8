// Command qsim simulates a quantum circuit on a QMDD using either the
// state-of-the-art numerical representation (complex128 with tolerance ε) or
// the paper's exact algebraic representation over Q[ω].
//
// Usage examples:
//
//	qsim -alg grover -n 10                         # exact algebraic run
//	qsim -alg grover -n 10 -repr num -eps 1e-10    # numerical run
//	qsim -alg gse -phasebits 4 -skdepth 1          # Clifford+T-compiled GSE
//	qsim -file circuit.qasm -repr num -eps 0       # OpenQASM input
//	qsim -alg bwt -depth 8 -steps 100 -norm gcd    # GCD normalization
package main

import (
	"context"
	"flag"
	"fmt"
	"math/cmplx"
	"os"
	"os/signal"
	"sort"
	"time"

	"repro/internal/alg"
	"repro/internal/algorithms"
	"repro/internal/buildinfo"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/ddio"
	"repro/internal/dense"
	"repro/internal/num"
	"repro/internal/prefix"
	"repro/internal/qasm"
	"repro/internal/qcache"
	"repro/internal/sim"
	"repro/internal/synth"
)

func main() {
	var (
		algName   = flag.String("alg", "", "built-in workload: grover, bwt, gse, ghz")
		file      = flag.String("file", "", "OpenQASM 2.0 circuit file (alternative to -alg)")
		repr      = flag.String("repr", "alg", "number representation: alg (exact) or num (float64)")
		eps       = flag.Float64("eps", 0, "comparison tolerance ε for -repr num")
		normFlag  = flag.String("norm", "left", "normalization scheme: left, max, gcd")
		n         = flag.Int("n", 8, "grover: data qubits")
		marked    = flag.Uint64("marked", 0, "grover: marked element (default 2^n−2)")
		depth     = flag.Int("depth", 6, "bwt: welded tree depth")
		steps     = flag.Int("steps", 50, "bwt: walk steps")
		phaseBits = flag.Int("phasebits", 3, "gse: phase register size")
		trotter   = flag.Int("trotter", 2, "gse: Trotter steps")
		skDepth   = flag.Int("skdepth", 1, "gse: Solovay–Kitaev recursion depth")
		netLen    = flag.Int("netlen", 10, "gse: synthesizer base-net word length")
		shots     = flag.Int("shots", 0, "measure the circuit this many times and print the histogram (required for dynamic circuits)")
		samples   = flag.Int("samples", 0, "deprecated alias for -shots")
		seed      = flag.Int64("seed", 1, "deterministic RNG seed for -shots (same seed, same histogram)")
		strategy  = flag.String("strategy", "auto", "shots strategy: auto, sample (one simulation, N draws), resimulate (per-shot replay with collapse)")
		topK      = flag.Int("top", 8, "print the K most probable outcomes")
		stats     = flag.Bool("stats", false, "print manager statistics")
		ctSize    = flag.Int("ctsize", core.DefaultCTSize, "compute-table slots (rounded up to a power of two)")
		intraW    = flag.Int("intra-workers", 1, "intra-operation worker goroutines (1 = sequential; output is identical for every setting; -repr num with -eps > 0 stays sequential)")
		prune     = flag.Int("prune", 0, "garbage-collect when the unique table exceeds this many nodes (0 = never)")
		timeout   = flag.Duration("timeout", 0, "wall-clock budget (0 = none); on expiry partial stats are printed, not a crash")
		maxNodes  = flag.Int("max-nodes", 0, "budget: max live QMDD nodes (0 = unlimited)")
		maxMem    = flag.Int64("max-mem", 0, "budget: approximate max bytes of nodes+weights (0 = unlimited)")
		minFid    = flag.Float64("min-fidelity", 0, "degrade gracefully under budget pressure: approximate the state (shedding lowest-contribution amplitudes) as long as retained fidelity stays above this floor (0 = fail fast, exact only)")
		verify    = flag.Bool("verify", false, "cross-check against the dense array simulator (n ≤ 16)")
		expand    = flag.Bool("expand", false, "expand multi-controlled gates over ancillas before simulating")
		writeQASM = flag.String("writeqasm", "", "write the (possibly expanded) circuit to this OpenQASM file")
		cacheDir  = flag.String("cache-dir", "", "warm-start directory: prefix checkpoints and the final state are cached here, keyed by the circuit's prefix-hash chain and representation, so a repeat — or extended — invocation resumes from the longest cached prefix")
		cacheMax  = flag.Int64("cache-max-bytes", 0, "evict least-recently-used -cache-dir entries when the tier exceeds this many bytes (0 = unbounded)")
		ckptEvery = flag.Int("checkpoint-every", 64, "with -cache-dir: checkpoint the state every K gates and at node-count doublings (<= 0 disables checkpointing and warm start)")
		ckptBytes = flag.Int64("checkpoint-bytes", 4<<20, "with -cache-dir: skip any checkpoint whose serialized size exceeds this many bytes (0 = unlimited)")
	)
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("qsim", buildinfo.Read())
		return
	}

	c, err := buildCircuit(*algName, *file, buildOpts{
		n: *n, marked: *marked, depth: *depth, steps: *steps,
		phaseBits: *phaseBits, trotter: *trotter, skDepth: *skDepth, netLen: *netLen,
	})
	if err != nil {
		fatal(err)
	}
	if *expand {
		c, err = circuit.ExpandMultiControls(c)
		if err != nil {
			fatal(err)
		}
	}
	fmt.Printf("circuit %s: %d qubits, %d gates %v\n", c.Name, c.N, c.Len(), c.CountByName())
	if *writeQASM != "" {
		f, err := os.Create(*writeQASM)
		if err != nil {
			fatal(err)
		}
		if err := qasm.Write(f, c); err != nil {
			f.Close()
			fatal(fmt.Errorf("%w (hint: -expand rewrites multi-controlled gates into QASM-expressible form)", err))
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *writeQASM)
	}

	nshots := *shots
	if nshots == 0 && *samples > 0 {
		fmt.Fprintln(os.Stderr, "qsim: -samples is deprecated; use -shots")
		nshots = *samples
	}
	if *minFid < 0 || *minFid > 1 {
		fatal(fmt.Errorf("-min-fidelity must be in [0, 1], got %v", *minFid))
	}
	if *minFid > 0 && nshots > 0 {
		fatal(fmt.Errorf("-min-fidelity is incompatible with -shots: a histogram drawn from an approximated state would be silently biased"))
	}
	if c.Dynamic() && nshots == 0 {
		fatal(fmt.Errorf("circuit %q contains mid-circuit measurement, reset or classical control; run it with -shots N", c.Name))
	}
	// Amplitude mode describes the pre-measurement state: strip any trailing
	// read-out block (and the classical register) so the run — and its
	// warm-start cache identity — matches the measure-free twin.
	ampCirc := c
	if nshots == 0 {
		ampCirc = c.StripReadout()
	}

	norm, err := core.ParseNormScheme(*normFlag)
	if err != nil {
		fatal(err)
	}
	if *ctSize < 1 {
		fatal(fmt.Errorf("-ctsize must be positive, got %d", *ctSize))
	}

	// The run governor: a resource budget installed into the manager plus a
	// context cancelled by SIGINT or -timeout. Either way the run ends with
	// the statistics collected so far instead of an OOM, a hang or a panic.
	budget := core.Budget{MaxNodes: *maxNodes, MaxBytes: *maxMem}
	if *timeout > 0 {
		budget.Deadline = time.Now().Add(*timeout)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var cache *qcache.Cache
	if *cacheDir != "" {
		if cache, err = qcache.NewBounded(0, *cacheDir, *cacheMax); err != nil {
			fatal(err)
		}
	}
	ckpt := checkpointConfig{every: *ckptEvery, maxBytes: *ckptBytes}

	switch *repr {
	case "alg":
		m := core.NewManager[alg.Q](alg.Ring{}, norm, core.WithComputeTableSize(*ctSize))
		m.SetIntraWorkers(*intraW)
		m.SetBudget(budget)
		if nshots > 0 {
			runShots(ctx, m, c, sim.ShotOptions{Shots: nshots, Seed: *seed, Strategy: *strategy, AutoPrune: *prune}, *stats)
			return
		}
		var ps *prefix.Store[alg.Q]
		if ckpt.every > 0 {
			ps = prefix.NewStore(cache, "alg", 0, norm, ddio.Codec[alg.Q](ddio.AlgCodec{}))
		}
		runAndReport(ctx, m, ampCirc, *topK, *stats, true, *verify, *prune, *minFid, ps, ckpt)
	case "num":
		m := core.NewManager[complex128](num.NewRing(*eps), norm, core.WithComputeTableSize(*ctSize))
		m.SetIntraWorkers(*intraW)
		m.SetBudget(budget)
		if nshots > 0 {
			runShots(ctx, m, c, sim.ShotOptions{Shots: nshots, Seed: *seed, Strategy: *strategy, AutoPrune: *prune}, *stats)
			return
		}
		var ps *prefix.Store[complex128]
		if ckpt.every > 0 {
			ps = prefix.NewStore(cache, "float", *eps, norm, ddio.Codec[complex128](ddio.NumCodec{}))
		}
		runAndReport(ctx, m, ampCirc, *topK, *stats, false, *verify, *prune, *minFid, ps, ckpt)
	default:
		fatal(fmt.Errorf("unknown representation %q (want alg or num)", *repr))
	}
}

// checkpointConfig carries the -checkpoint-every/-checkpoint-bytes pair into
// the run loop.
type checkpointConfig struct {
	every    int
	maxBytes int64
}

// runShots measures the circuit through the sim shots engine and prints
// the histogram. The strategy line reports what actually ran, so "auto"
// invocations show whether the circuit sampled one final state or
// re-simulated per shot.
func runShots[T any](ctx context.Context, m *core.Manager[T], c *circuit.Circuit, opt sim.ShotOptions, stats bool) {
	start := time.Now()
	res, err := sim.SampleShotsCtx(ctx, m, c, opt)
	if err != nil {
		if governed(err) {
			fmt.Printf("shots run stopped early: %v\n", err)
			printStats(m)
			return
		}
		fatal(err)
	}
	fmt.Printf("histogram (%d shots, seed %d, strategy %s) in %v:\n",
		res.Shots, opt.Seed, res.Strategy, time.Since(start).Round(time.Millisecond))
	printHistogram(res.Counts)
	if stats {
		printStats(m)
	}
}

// verifyDense cross-checks all QMDD amplitudes against the flat-array
// simulator and prints the maximum deviation.
func verifyDense[T any](m *core.Manager[T], s *sim.Simulator[T], c *circuit.Circuit) {
	if c.N > 16 {
		fmt.Println("verify: skipped (more than 16 qubits)")
		return
	}
	ref := dense.New(c.N)
	if err := ref.Run(c); err != nil {
		fmt.Println("verify: dense simulator cannot run this circuit:", err)
		return
	}
	maxDev := 0.0
	for i := range ref.Amp {
		got := m.R.Complex128(m.Amplitude(s.State, c.N, uint64(i)))
		d := cmplx.Abs(got - ref.Amp[i])
		if d > maxDev {
			maxDev = d
		}
	}
	fmt.Printf("verify: max amplitude deviation from dense simulation: %.3e\n", maxDev)
}

type buildOpts struct {
	n         int
	marked    uint64
	depth     int
	steps     int
	phaseBits int
	trotter   int
	skDepth   int
	netLen    int
}

func buildCircuit(algName, file string, o buildOpts) (*circuit.Circuit, error) {
	switch {
	case file != "":
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		return qasm.Parse(string(src), file)
	case algName == "grover":
		marked := o.marked
		if marked == 0 {
			marked = uint64(1)<<uint(o.n) - 2
		}
		return algorithms.Grover(o.n, marked, 0), nil
	case algName == "bwt":
		return algorithms.BWT(o.depth, o.steps), nil
	case algName == "gse":
		raw := algorithms.GSE(algorithms.GSEConfig{
			Hamiltonian: algorithms.H2Hamiltonian(),
			PhaseBits:   o.phaseBits,
			Time:        0.75,
			Trotter:     o.trotter,
			PrepareX:    []int{0},
		})
		s := synth.New(o.netLen)
		ct, synthErr, err := algorithms.CompileCliffordT(raw, s, o.skDepth)
		if err != nil {
			return nil, err
		}
		fmt.Printf("gse: compiled to Clifford+T, accumulated synthesis error bound %.3g\n", synthErr)
		return ct, nil
	case algName == "ghz":
		c := circuit.New("ghz", o.n)
		c.H(0)
		for q := 1; q < o.n; q++ {
			c.CX(q-1, q)
		}
		return c, nil
	}
	return nil, fmt.Errorf("choose a workload with -alg {grover,bwt,gse,ghz} or -file <qasm>")
}

func runAndReport[T any](ctx context.Context, m *core.Manager[T], c *circuit.Circuit, topK int, stats, exact, verify bool, prune int, minFid float64, ps *prefix.Store[T], ckpt checkpointConfig) {
	s := sim.New(m, c.N)
	if prune > 0 {
		s.EnableAutoPrune(prune)
	}
	if minFid > 0 && minFid < 1 {
		s.EnableApproximation(sim.ApproxPolicy{MinFidelity: minFid})
	}
	start := time.Now()
	from := 0
	var hook func(i int, g circuit.Gate) bool
	var stored, storedBytes int64
	if ps != nil {
		plan := prefix.PlanOf(c)
		if k, e, ok := ps.Probe(m, plan, c.N); ok {
			s.State = e
			from = k
			fmt.Printf("warm start: checkpoint after gate %d/%d restored in %v; %d nodes\n",
				k, c.Len(), time.Since(start).Round(time.Millisecond), s.State.NodeCount())
		}
		tracker := prefix.Policy{EveryK: ckpt.every, MaxBytes: ckpt.maxBytes}.NewTracker(m.Stats().UniqueNodes)
		hook = func(i int, _ circuit.Gate) bool {
			k := i + 1 // the hook fires after gate i: the state is H_{i+1}'s
			nodes := m.Stats().UniqueNodes
			if !tracker.Should(k, plan.Boundary, nodes) {
				return true
			}
			if s.Approximation().Events > 0 {
				// An approximate state is not the prefix's exact result: it
				// must never warm-start a future exact run.
				return true
			}
			if n, err := ps.Store(m, s.State, plan.Links[k], c.N, ckpt.maxBytes); err == nil && n > 0 {
				tracker.Stored(nodes)
				stored++
				storedBytes += int64(n)
			}
			return true
		}
	}
	if from == c.Len() {
		fmt.Printf("warm start is the full circuit: simulation skipped; ‖ψ‖ = %.12f\n", m.Norm2(s.State))
	} else {
		if err := s.RunFromCtx(ctx, c, from, hook); err != nil {
			if governed(err) {
				// A refused/interrupted run is a graceful outcome: report the
				// partial statistics and exit cleanly.
				fmt.Printf("run stopped early: %v\n", err)
				fmt.Printf("partial state after %v: %d nodes; %s\n",
					time.Since(start).Round(time.Millisecond), s.State.NodeCount(), m.Peak())
				printStats(m)
				return
			}
			fatal(err)
		}
		elapsed := time.Since(start)
		fmt.Printf("simulated in %v; state QMDD has %d nodes; ‖ψ‖ = %.12f\n",
			elapsed, s.State.NodeCount(), m.Norm2(s.State))
		if ap := s.Approximation(); ap.Events > 0 {
			kind := "float estimate"
			if ap.Exact {
				kind = "exact"
			}
			fmt.Printf("approximated under budget pressure: %d events, retained fidelity %.6f (%s)\n",
				ap.Events, ap.Fidelity, kind)
		}
		if stored > 0 {
			fmt.Printf("checkpointed %d prefix states (%d bytes)\n", stored, storedBytes)
		}
	}
	if exact {
		fmt.Printf("max coefficient bit width: %d; trivial-weight fraction: %.2f\n",
			m.MaxWeightBitLen(s.State), m.TrivialWeightFraction(s.State))
	}
	if verify {
		verifyDense(m, s, c)
	}

	if topK > 0 {
		printTop(m, s, c.N, topK)
	}
	if stats {
		printStats(m)
	}
}

// governed reports whether err is a run-governor outcome — budget exceeded,
// deadline, SIGINT — rather than a genuine failure.
func governed(err error) bool { return sim.Governed(err) }

func printStats[T any](m *core.Manager[T]) {
	st := m.Stats()
	fmt.Printf("manager: %d unique nodes, %d/%d unique hits, %d/%d CT hits\n",
		st.UniqueNodes, st.UniqueHits, st.UniqueLookups, st.CTHits, st.CTLookups)
	fmt.Printf("         %d interned weights, CT load %.1f%% (%d/%d), %d prunes (%d nodes)\n",
		st.InternedWeights, 100*st.CTLoadFactor(), st.CTEntries, st.CTCapacity,
		st.Prunes, st.PrunedNodes)
	fmt.Printf("         %d/%d scalar-op hits (exact Mul/Div memo)\n", st.ScalarHits, st.ScalarLookups)
}

func printTop[T any](m *core.Manager[T], s *sim.Simulator[T], n, k int) {
	// Sparse traversal: touches only the state's support, so this works for
	// any qubit count as long as the diagram is compact.
	idxs, probs := m.TopOutcomes(s.State, n, k)
	fmt.Printf("most probable outcomes (support %d):\n", m.SupportSize(s.State, n))
	for i, idx := range idxs {
		if probs[i] < 1e-12 {
			break
		}
		fmt.Printf("  |%0*b⟩  %.6f\n", n, idx, probs[i])
	}
}

func printHistogram(counts map[string]int) {
	type kv struct {
		key string
		c   int
	}
	var all []kv
	for k, c := range counts {
		all = append(all, kv{k, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		return all[i].key < all[j].key
	})
	for i, o := range all {
		if i >= 10 {
			fmt.Printf("  … and %d more outcomes\n", len(all)-10)
			break
		}
		fmt.Printf("  |%s⟩  %d\n", o.key, o.c)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qsim:", err)
	os.Exit(1)
}

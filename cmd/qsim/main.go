// Command qsim simulates a quantum circuit on a QMDD using either the
// state-of-the-art numerical representation (complex128 with tolerance ε) or
// the paper's exact algebraic representation over Q[ω]. Its subcommands are
// views over the same simulator: verify checks two circuits for
// equivalence, view renders a diagram, tune runs the ε fine-tuning loop.
//
// Usage examples:
//
//	qsim -alg grover -n 10                         # exact algebraic run
//	qsim -alg grover -n 10 -repr num -eps 1e-10    # numerical run
//	qsim -alg gse -phasebits 4 -skdepth 1          # Clifford+T-compiled GSE
//	qsim -file circuit.qasm -repr num -eps 0       # OpenQASM input
//	qsim -alg bwt -depth 8 -steps 100 -norm gcd    # GCD normalization
//	qsim verify -phase a.qasm b.qasm               # equivalence up to global phase
//	qsim view -alg ghz -n 3 -out ghz.dot           # Graphviz DOT of the GHZ state
//	qsim tune -alg bwt -depth 5 -steps 24          # ε fine-tuning report
package main

import (
	"context"
	"flag"
	"fmt"
	"math/cmplx"
	"os"
	"sort"
	"time"

	"repro/internal/alg"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/ddio"
	"repro/internal/dense"
	"repro/internal/load"
	"repro/internal/num"
	"repro/internal/prefix"
	"repro/internal/qasm"
	"repro/internal/qcache"
	"repro/internal/sim"
)

func main() {
	if len(os.Args) > 1 {
		cmd, args := os.Args[1], os.Args[2:]
		switch cmd {
		case "verify":
			os.Exit(cmdVerify(args))
		case "view":
			cmdView(args)
			return
		case "tune":
			cmdTune(args)
			return
		}
	}
	cmdSimulate(os.Args[1:])
}

// cmdSimulate is the bare `qsim -flags …` command: simulate one circuit and
// report its amplitudes or a shots histogram.
func cmdSimulate(args []string) {
	fs := flag.NewFlagSet("qsim", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: qsim [flags]\n       qsim verify|view|tune [flags]   (qsim <command> -h lists its flags)\n\nflags:")
		fs.PrintDefaults()
	}
	var w workload
	w.register(fs, workload{n: 8, depth: 6, steps: 50})
	var o model
	o.register(fs)
	var (
		shots     = fs.Int("shots", 0, "measure the circuit this many times and print the histogram (required for dynamic circuits)")
		seed      = fs.Int64("seed", 1, "deterministic RNG seed for -shots (same seed, same histogram)")
		topK      = fs.Int("top", 8, "print the K most probable outcomes")
		stats     = fs.Bool("stats", false, "print manager statistics")
		ctSize    = fs.Int("ctsize", core.DefaultCTSize, "compute-table logical slots (rounded up to a power of two, at most 2^36); the table's memory grows with the slots a run fills")
		prune     = fs.Int("prune", 0, "garbage-collect when the unique table exceeds this many nodes (0 = never)")
		minFid    = fs.Float64("min-fidelity", 0, "degrade gracefully under budget pressure: approximate the state (shedding lowest-contribution amplitudes) as long as retained fidelity stays above this floor (0 = fail fast, exact only)")
		verify    = fs.Bool("verify", false, "cross-check against the dense array simulator (n ≤ 16)")
		writeQASM = fs.String("writeqasm", "", "write the circuit to this OpenQASM 2.0 file, lowered exactly over appended ancillas where it uses more controls than OpenQASM can spell")
		cacheDir  = fs.String("cache-dir", "", "warm-start directory: prefix checkpoints and the final state are cached here, keyed by the circuit's prefix-hash chain and representation, so a repeat — or extended — invocation resumes from the longest cached prefix")
		cacheMax  = fs.Int64("cache-max-bytes", 0, "evict least-recently-used -cache-dir entries when the tier exceeds this many bytes (0 = unbounded)")
		ckptEvery = fs.Int("checkpoint-every", 64, "with -cache-dir: checkpoint the state every K gates and at node-count doublings (<= 0 disables checkpointing and warm start)")
		ckptBytes = fs.Int64("checkpoint-bytes", 4<<20, "with -cache-dir: skip any checkpoint whose serialized size exceeds this many bytes (0 = unlimited)")
	)
	parse(fs, args)

	c, err := w.build(os.Stdout)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("circuit %s: %d qubits, %d gates %v\n", c.Name, c.N, c.Len(), c.CountByName())
	if *writeQASM != "" {
		if err := writeLowered(*writeQASM, c); err != nil {
			fatal(err)
		}
	}

	if *minFid < 0 || *minFid > 1 {
		fatal(fmt.Errorf("-min-fidelity must be in [0, 1], got %v", *minFid))
	}
	if *minFid > 0 && *shots > 0 {
		fatal(fmt.Errorf("-min-fidelity is incompatible with -shots: a histogram drawn from an approximated state would be silently biased"))
	}
	if c.Dynamic() && *shots == 0 {
		fatal(fmt.Errorf("circuit %q contains mid-circuit measurement, reset or classical control; run it with -shots N", c.Name))
	}
	// Amplitude mode describes the pre-measurement state: strip any trailing
	// read-out block (and the classical register) so the run — and its
	// warm-start cache identity — matches the measure-free twin.
	ampCirc := c
	if *shots == 0 {
		ampCirc = c.StripReadout()
	}

	if *ctSize < 1 || *ctSize > 1<<36 {
		fatal(fmt.Errorf("-ctsize must be in [1, 2^36], got %d", *ctSize))
	}
	// The run governor: a resource budget installed into the manager plus a
	// context cancelled by SIGINT or -timeout. Either way the run ends with
	// the statistics collected so far instead of an OOM, a hang or a panic.
	norm, budget, err := o.setup()
	if err != nil {
		fatal(err)
	}
	ctx, stop := governorContext(o.timeout)
	defer stop()

	var cache *qcache.Cache
	if *cacheDir != "" {
		if cache, err = qcache.NewBounded(0, *cacheDir, *cacheMax); err != nil {
			fatal(err)
		}
	}
	ckpt := prefix.Policy{EveryK: *ckptEvery, MaxBytes: *ckptBytes}

	switch o.repr {
	case "alg":
		m := core.NewManager[alg.Q](alg.Ring{}, norm, core.WithComputeTableSize(*ctSize))
		m.SetBudget(budget)
		if *shots > 0 {
			runShots(ctx, m, c, sim.ShotOptions{Shots: *shots, Seed: *seed, AutoPrune: *prune}, *stats)
			return
		}
		var ps *prefix.Store[alg.Q]
		if ckpt.EveryK > 0 {
			ps = prefix.NewStore(cache, "alg", 0, norm, ddio.Codec[alg.Q](ddio.AlgCodec{}))
		}
		runAndReport(ctx, m, ampCirc, *topK, *stats, true, *verify, *prune, *minFid, ps, ckpt)
	default: // "num"
		m := core.NewManager[complex128](num.NewRing(o.eps), norm, core.WithComputeTableSize(*ctSize))
		m.SetBudget(budget)
		if *shots > 0 {
			runShots(ctx, m, c, sim.ShotOptions{Shots: *shots, Seed: *seed, AutoPrune: *prune}, *stats)
			return
		}
		var ps *prefix.Store[complex128]
		if ckpt.EveryK > 0 {
			ps = prefix.NewStore(cache, "float", o.eps, norm, ddio.Codec[complex128](ddio.NumCodec{}))
		}
		runAndReport(ctx, m, ampCirc, *topK, *stats, false, *verify, *prune, *minFid, ps, ckpt)
	}
}

// runShots measures the circuit through the sim shots engine and prints
// the histogram. The strategy is picked from the circuit's shape
// (sim.ResolveStrategy), and the header line reports which one ran: one
// final state sampled, or a re-simulation per shot.
func runShots[T any](ctx context.Context, m *core.Manager[T], c *circuit.Circuit, opt sim.ShotOptions, stats bool) {
	start := time.Now()
	res, err := sim.SampleShotsCtx(ctx, m, c, opt)
	if err != nil {
		if sim.Governed(err) {
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

func runAndReport[T any](ctx context.Context, m *core.Manager[T], c *circuit.Circuit, topK int, stats, exact, verify bool, prune int, minFid float64, ps *prefix.Store[T], ckpt prefix.Policy) {
	s := sim.New(m, c.N)
	if prune > 0 {
		s.EnableAutoPrune(prune)
	}
	if minFid > 0 && minFid < 1 {
		s.EnableApproximation(sim.ApproxPolicy{MinFidelity: minFid})
	}
	start := time.Now()
	var stored, storedBytes int64
	from, hook := prefix.Resume(ps, s, c, prefix.Plan{}, ckpt, func(n int) {
		stored++
		storedBytes += int64(n)
	})
	if from > 0 {
		fmt.Printf("warm start: checkpoint after gate %d/%d restored in %v; %d nodes\n",
			from, c.Len(), time.Since(start).Round(time.Millisecond), s.State.NodeCount())
	}
	if from == c.Len() {
		fmt.Printf("warm start is the full circuit: simulation skipped; ‖ψ‖ = %.12f\n", m.Norm2(s.State))
	} else {
		if err := s.RunFromCtx(ctx, c, from, hook); err != nil {
			if sim.Governed(err) {
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

func printStats[T any](m *core.Manager[T]) {
	st := m.Stats()
	fmt.Printf("manager: %d unique nodes, %d/%d unique hits, %d/%d CT hits\n",
		st.UniqueNodes, st.UniqueHits, st.UniqueLookups, st.CTHits, st.CTLookups)
	fmt.Printf("         %d interned weights, CT load %.1f%% (%d/%d), %d prunes (%d nodes)\n",
		st.InternedWeights, 100*st.CTLoadFactor(), st.CTEntries, st.CTCapacity,
		st.Prunes, st.PrunedNodes)
	fmt.Printf("         %d/%d scalar-op hits (exact Mul/Div/Add memo)\n", st.ScalarHits, st.ScalarLookups)
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

// writeLowered writes load.Lower(c) to path. A circuit OpenQASM 2.0 can
// already spell is written as is; otherwise the file holds the exact
// lowering over appended ancillas, whose amplitude at index i·2^a equals
// the original's at i.
func writeLowered(path string, c *circuit.Circuit) error {
	low, err := load.Lower(c)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := qasm.Write(f, low); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if low == c {
		fmt.Printf("wrote %s\n", path)
	} else {
		fmt.Printf("wrote %s (lowered: %d qubits incl. %d ancillas, %d gates)\n", path, low.N, low.N-c.N, low.Len())
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qsim:", err)
	os.Exit(1)
}

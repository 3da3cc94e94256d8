package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"repro/internal/algorithms"
	"repro/internal/buildinfo"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/qasm"
	"repro/internal/synth"
)

// workload is the circuit-selection flag group: a built-in generator or an
// OpenQASM file. Every subcommand that takes one circuit builds it here.
type workload struct {
	alg, file                                         string
	n                                                 int
	marked                                            uint64
	depth, steps, phaseBits, trotter, skDepth, netLen int
}

// register adds the workload flags to fs. d holds the subcommand's defaults
// for -alg, -n, -depth and -steps.
func (w *workload) register(fs *flag.FlagSet, d workload) {
	fs.StringVar(&w.alg, "alg", d.alg, "built-in workload: grover, bwt, gse, ghz, bell, dj, bv")
	fs.StringVar(&w.file, "file", "", "OpenQASM 2.0 circuit file (alternative to -alg)")
	fs.IntVar(&w.n, "n", d.n, "grover/dj/bv: data qubits; ghz: qubits")
	fs.Uint64Var(&w.marked, "marked", 0, "grover: marked element (default 2^n−2)")
	fs.IntVar(&w.depth, "depth", d.depth, "bwt: welded tree depth")
	fs.IntVar(&w.steps, "steps", d.steps, "bwt: walk steps")
	fs.IntVar(&w.phaseBits, "phasebits", 3, "gse: phase register size")
	fs.IntVar(&w.trotter, "trotter", 2, "gse: Trotter steps")
	fs.IntVar(&w.skDepth, "skdepth", 1, "gse: Solovay–Kitaev recursion depth")
	fs.IntVar(&w.netLen, "netlen", 10, "gse: synthesizer base-net word length")
}

// build constructs the selected circuit. The GSE compiler's synthesis-error
// note goes to note.
func (w *workload) build(note io.Writer) (*circuit.Circuit, error) {
	if w.file != "" {
		return readQASM(w.file)
	}
	mask := uint64(1)<<uint(w.n) - 2
	switch w.alg {
	case "grover":
		marked := mask
		if w.marked != 0 {
			marked = w.marked
		}
		return algorithms.Grover(w.n, marked, 0), nil
	case "bwt":
		return algorithms.BWT(w.depth, w.steps), nil
	case "gse":
		raw := algorithms.GSE(algorithms.GSEConfig{
			Hamiltonian: algorithms.H2Hamiltonian(),
			PhaseBits:   w.phaseBits,
			Time:        0.75,
			Trotter:     w.trotter,
			PrepareX:    []int{0},
		})
		ct, synthErr, err := algorithms.CompileCliffordT(raw, synth.New(w.netLen), w.skDepth)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(note, "gse: compiled to Clifford+T, accumulated synthesis error bound %.3g\n", synthErr)
		return ct, nil
	case "ghz":
		c := circuit.New("ghz", w.n)
		c.H(0)
		for q := 1; q < w.n; q++ {
			c.CX(q-1, q)
		}
		return c, nil
	case "bell":
		return circuit.New("bell", 2).H(0).CX(0, 1), nil
	case "dj":
		return algorithms.DeutschJozsa(w.n, mask), nil
	case "bv":
		return algorithms.BernsteinVazirani(w.n, mask), nil
	case "":
		return nil, fmt.Errorf("choose a workload with -alg {grover,bwt,gse,ghz,bell,dj,bv} or -file <qasm>")
	}
	return nil, fmt.Errorf("unknown workload %q (want grover, bwt, gse, ghz, bell, dj or bv)", w.alg)
}

func readQASM(path string) (*circuit.Circuit, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return qasm.Parse(string(src), path)
}

// model is the representation and run-governor flag group: -repr, -eps and
// -norm choose the manager, -timeout, -max-nodes and -max-mem its budget.
type model struct {
	repr, norm string
	eps        float64
	timeout    time.Duration
	maxNodes   int
	maxMem     int64
}

func (o *model) register(fs *flag.FlagSet) {
	fs.StringVar(&o.repr, "repr", "alg", "number representation: alg (exact) or num (float64)")
	fs.Float64Var(&o.eps, "eps", 0, "comparison tolerance ε for -repr num")
	fs.StringVar(&o.norm, "norm", "left", "normalization scheme: left, max, gcd")
	fs.DurationVar(&o.timeout, "timeout", 0, "wall-clock limit (0 = none); on expiry the run is reported as cancelled with partial stats, not a crash")
	fs.IntVar(&o.maxNodes, "max-nodes", 0, "budget: max live QMDD nodes (0 = unlimited)")
	fs.Int64Var(&o.maxMem, "max-mem", 0, "budget: approximate max bytes of nodes+weights (0 = unlimited)")
}

// setup validates the flags and returns the normalization scheme and the
// size budget. -timeout is not part of it: governorContext carries it.
func (o *model) setup() (core.NormScheme, core.Budget, error) {
	norm, err := core.ParseNormScheme(o.norm)
	if err != nil {
		return norm, core.Budget{}, err
	}
	if o.repr != "alg" && o.repr != "num" {
		return norm, core.Budget{}, fmt.Errorf("unknown representation %q (want alg or num)", o.repr)
	}
	return norm, core.Budget{MaxNodes: o.maxNodes, MaxBytes: o.maxMem}, nil
}

// governorContext is the context a subcommand runs under: cancelled by
// SIGINT and, when timeout is positive, after timeout. Either way the run
// ends with what it has so far instead of dying.
func governorContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	if timeout <= 0 {
		return ctx, stop
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	return ctx, func() { cancel(); stop() }
}

// parse adds the shared -version flag to fs and parses args.
func parse(fs *flag.FlagSet, args []string) {
	version := fs.Bool("version", false, "print version and exit")
	fs.Parse(args) // ExitOnError: a bad flag exits with status 2
	if *version {
		fmt.Println("qsim", buildinfo.Read())
		os.Exit(0)
	}
}

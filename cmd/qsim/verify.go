package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/alg"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/num"
	"repro/internal/sim"
)

// cmdVerify is `qsim verify [flags] a.qasm b.qasm`: it checks two circuits
// for functional equivalence via canonical QMDDs — the design task the
// paper names as a direct beneficiary of exact diagrams: "checking
// equivalence of two matrices or vectors then boils down to comparing the
// root nodes of the corresponding QMDDs (which can be done in O(1))". Both
// unitaries are built in one manager, so the comparison is of root edges.
//
// It returns the exit status: 0 when equivalent, 1 when not, 2 on errors
// and when the run governor stopped the check before it decided.
func cmdVerify(args []string) int {
	fs := flag.NewFlagSet("qsim verify", flag.ExitOnError)
	var o model
	o.register(fs)
	phase := fs.Bool("phase", false, "compare up to a global phase")
	parse(fs, args)
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "qsim verify:", err)
		return 2
	}
	if fs.NArg() != 2 {
		return fail(fmt.Errorf("need exactly two OpenQASM files"))
	}
	a, err := readQASM(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	b, err := readQASM(fs.Arg(1))
	if err != nil {
		return fail(err)
	}
	if a.N != b.N {
		fmt.Printf("NOT EQUIVALENT: different qubit counts (%d vs %d)\n", a.N, b.N)
		return 1
	}
	norm, budget, err := o.setup()
	if err != nil {
		return fail(err)
	}
	ctx, stop := governorContext(o.timeout)
	defer stop()
	start := time.Now()
	var eq bool
	if o.repr == "alg" {
		eq, err = equivalent(ctx, core.NewManager[alg.Q](alg.Ring{}, norm), budget, a, b, *phase)
	} else {
		eq, err = equivalent(ctx, core.NewManager[complex128](num.NewRing(o.eps), norm), budget, a, b, *phase)
	}
	if sim.Governed(err) {
		// The diagrams outgrew the budget, or the deadline or SIGINT came,
		// before the comparison finished: "undecided", not a crash.
		fmt.Printf("UNDECIDED: %v\n", err)
		return 2
	}
	if err != nil {
		return fail(err)
	}
	rel := "exactly"
	if *phase {
		rel = "up to global phase"
	}
	verdict, status := "EQUIVALENT", 0
	if !eq {
		verdict, status = "NOT EQUIVALENT", 1
	}
	fmt.Printf("%s (%s, %s representation, %v)\n", verdict, rel, o.repr, time.Since(start).Round(time.Millisecond))
	return status
}

func equivalent[T any](ctx context.Context, m *core.Manager[T], budget core.Budget, a, b *circuit.Circuit, phase bool) (bool, error) {
	m.SetBudget(budget)
	m.SetContext(ctx)
	if phase {
		return sim.EquivalentUpToPhase(m, a, b)
	}
	return sim.Equivalent(m, a, b)
}

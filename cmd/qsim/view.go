package main

import (
	"context"
	"flag"
	"io"
	"os"

	"repro/internal/alg"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/ddio"
	"repro/internal/num"
	"repro/internal/sim"
)

// cmdView is `qsim view [flags]`: it renders the QMDD of a circuit's final
// state or of its unitary as Graphviz DOT, for inspecting the diagrams the
// way the paper's Fig. 1 does.
func cmdView(args []string) {
	fs := flag.NewFlagSet("qsim view", flag.ExitOnError)
	var w workload
	w.register(fs, workload{alg: "ghz", n: 3, depth: 3, steps: 8})
	var o model
	o.register(fs)
	var (
		state = fs.Bool("state", true, "render the final state (false: the circuit unitary)")
		out   = fs.String("out", "", "output file (default stdout)")
		save  = fs.String("save", "", "also serialize the diagram to this file (ddio format)")
	)
	parse(fs, args)
	c, err := w.build(os.Stderr) // stdout carries the DOT
	if err != nil {
		fatal(err)
	}
	norm, budget, err := o.setup()
	if err != nil {
		fatal(err)
	}
	ctx, stop := governorContext(o.timeout)
	defer stop()
	dst := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		dst = f
	}
	if o.repr == "alg" {
		m := core.NewManager[alg.Q](alg.Ring{}, norm)
		m.SetBudget(budget)
		err = render(ctx, m, c, *state, dst, *save, ddio.AlgCodec{})
	} else {
		m := core.NewManager[complex128](num.NewRing(o.eps), norm)
		m.SetBudget(budget)
		err = render(ctx, m, c, *state, dst, *save, ddio.NumCodec{})
	}
	if err != nil {
		fatal(err)
	}
}

func render[T any](ctx context.Context, m *core.Manager[T], c *circuit.Circuit, state bool, w io.Writer, save string, codec ddio.Codec[T]) error {
	var e core.Edge[T]
	if state {
		s := sim.New(m, c.N)
		if err := s.RunCtx(ctx, c, nil); err != nil {
			return err
		}
		e = s.State
	} else {
		m.SetContext(ctx)
		u, err := sim.BuildUnitary(m, c)
		if err != nil {
			return err
		}
		e = u
	}
	if save != "" {
		f, err := os.Create(save)
		if err != nil {
			return err
		}
		if err := ddio.Write(f, m, codec, e, c.N); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return m.DOT(w, e, c.Name)
}

package bench

import (
	"context"
	"fmt"

	"repro/internal/algorithms"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/synth"
)

// PaperEpsList is the tolerance sweep of the paper's Figs. 3–5.
var PaperEpsList = []float64{0, 1e-20, 1e-15, 1e-10, 1e-5, 1e-3}

// FigureParams scales an experiment: the paper's sizes take hours on its
// 3.8 GHz testbed; the defaults here reproduce the *shapes* in seconds.
// Pass the paper's sizes explicitly to reproduce at full scale.
type FigureParams struct {
	GroverQubits int // paper: 15
	BWTDepth     int
	BWTSteps     int
	GSEPhaseBits int
	GSETrotter   int
	GSESKDepth   int // Solovay–Kitaev recursion depth for GSE compilation
	SynthNetLen  int // base-net word length for the synthesizer
	Stride       int
	MeasureError bool
	// Budget governs every run's manager (max live nodes / interned
	// weights / approximate bytes / deadline); replaces the old ad-hoc
	// node cap. A run that trips it is reported Failed with partial
	// samples, never aborted by panic or OOM.
	Budget  core.Budget
	EpsList []float64
	// NumNormLeft switches the numerical runs to the classic leftmost
	// normalization (see Config.NumNormLeft).
	NumNormLeft bool
	// Parallel bounds the worker pool fanning the sweep cells out to
	// share-nothing managers (see Config.Parallel): 0 = GOMAXPROCS,
	// 1 = sequential. Output is identical for every setting.
	Parallel int
}

// DefaultParams returns CI-scale parameters.
func DefaultParams() FigureParams {
	return FigureParams{
		GroverQubits: 8,
		BWTDepth:     6,
		BWTSteps:     60,
		GSEPhaseBits: 3,
		GSETrotter:   2,
		GSESKDepth:   1,
		SynthNetLen:  10,
		Stride:       16,
		MeasureError: true,
		Budget:       core.Budget{MaxNodes: 200000},
		EpsList:      PaperEpsList,
	}
}

// GroverCircuit builds the Fig. 3 workload.
func GroverCircuit(p FigureParams) *circuit.Circuit {
	marked := uint64(1)<<uint(p.GroverQubits) - 2 // arbitrary non-trivial element
	return algorithms.Grover(p.GroverQubits, marked, 0)
}

// BWTCircuit builds the Fig. 4 workload.
func BWTCircuit(p FigureParams) *circuit.Circuit {
	return algorithms.BWT(p.BWTDepth, p.BWTSteps)
}

// GSECircuit builds the Figs. 2/5 workload: phase estimation over the H₂
// Hamiltonian compiled to Clifford+T with the Solovay–Kitaev synthesizer.
func GSECircuit(p FigureParams) (*circuit.Circuit, error) {
	raw := algorithms.GSE(algorithms.GSEConfig{
		Hamiltonian: algorithms.H2Hamiltonian(),
		PhaseBits:   p.GSEPhaseBits,
		Time:        0.75,
		Trotter:     p.GSETrotter,
		PrepareX:    []int{0},
	})
	s := synth.New(p.SynthNetLen)
	ct, _, err := algorithms.CompileCliffordT(raw, s, p.GSESKDepth)
	return ct, err
}

// Figure runs one of the paper's experiments by figure number:
// "2" (GSE size-vs-ε), "3" (Grover), "4" (BWT), "5" (GSE, full panels).
func Figure(fig string, p FigureParams) (*Result, error) {
	return FigureCtx(context.Background(), fig, p)
}

// FigureCtx is Figure under a context; on cancellation the partial Result
// is returned alongside the context error.
func FigureCtx(ctx context.Context, fig string, p FigureParams) (*Result, error) {
	mk := func(name string, c *circuit.Circuit, measureErr bool) (*Result, error) {
		return ExecuteCtx(ctx, name, Config{
			Circuit:      c,
			EpsList:      p.EpsList,
			Algebraic:    true,
			AlgNorm:      core.NormLeft,
			Stride:       p.Stride,
			MeasureError: measureErr,
			Budget:       p.Budget,
			NumNormLeft:  p.NumNormLeft,
			Parallel:     p.Parallel,
		})
	}
	switch fig {
	case "2":
		c, err := GSECircuit(p)
		if err != nil {
			return nil, err
		}
		// Fig. 2 only plots sizes; skip the error expansion for speed.
		return mk("fig2-gse-size-vs-eps", c, false)
	case "3":
		return mk("fig3-grover", GroverCircuit(p), p.MeasureError)
	case "4":
		return mk("fig4-bwt", BWTCircuit(p), p.MeasureError)
	case "5":
		c, err := GSECircuit(p)
		if err != nil {
			return nil, err
		}
		return mk("fig5-gse", c, p.MeasureError)
	}
	return nil, fmt.Errorf("bench: unknown figure %q (want 2, 3, 4 or 5)", fig)
}

// NormSchemeComparison runs the same circuit under the two algebraic
// normalization schemes of Section IV-B (Q[ω] inverses vs D[ω] GCDs) plus
// the max-magnitude variant, reproducing the paper's Section V-B
// observation that the GCD scheme never wins.
func NormSchemeComparison(c *circuit.Circuit, stride int) (*Result, error) {
	return NormSchemeComparisonCtx(context.Background(), c, stride, 1)
}

// NormSchemeComparisonCtx is NormSchemeComparison under a context, with the
// three scheme runs fanned out as an ExecuteBatch over share-nothing
// managers (parallel: 0 = GOMAXPROCS, 1 = sequential). The merged runs are
// always in scheme order — left, max, gcd — whatever the worker count.
func NormSchemeComparisonCtx(ctx context.Context, c *circuit.Circuit, stride, parallel int) (*Result, error) {
	schemes := []core.NormScheme{core.NormLeft, core.NormMax, core.NormGCD}
	items := make([]BatchItem, len(schemes))
	for i, norm := range schemes {
		items[i] = BatchItem{
			Name: fmt.Sprintf("norm-%s", norm),
			Config: Config{
				Circuit:   c,
				Algebraic: true,
				AlgNorm:   norm,
				Stride:    stride,
			},
		}
	}
	results, stats, err := ExecuteBatch(ctx, items, parallel)
	res := &Result{Name: "norm-schemes", N: c.N}
	for _, r := range results {
		if r != nil {
			res.Runs = append(res.Runs, r.Runs...)
		}
	}
	if len(stats) > 1 {
		res.Workers = stats
	}
	return res, err
}

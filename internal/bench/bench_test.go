package bench

import (
	"context"
	"strings"
	"testing"
)

// smallParams keeps the harness tests fast while preserving the phenomena.
func smallParams() FigureParams {
	p := DefaultParams()
	p.GroverQubits = 7
	p.BWTDepth = 5
	p.BWTSteps = 24
	p.GSEPhaseBits = 2
	p.GSETrotter = 1
	p.GSESKDepth = 1
	p.SynthNetLen = 10
	p.Stride = 32
	p.EpsList = []float64{0, 1e-10, 1e-3}
	return p
}

// TestFig3ShapesGrover asserts the qualitative claims of Fig. 3: ε = 0
// cannot exploit redundancies (node blowup), a moderate ε matches the
// algebraic size with small error, and ε = 10⁻³ corrupts the state.
func TestFig3ShapesGrover(t *testing.T) {
	res, err := Figure(context.Background(), "3", smallParams())
	if err != nil {
		t.Fatal(err)
	}
	runs := byLabel(res)
	algRun := runs["algebraic/left"]
	e0 := runs["eps=0"]
	eMid := runs["eps=1e-10"]
	eBig := runs["eps=1e-03"]
	if algRun == nil || e0 == nil || eMid == nil || eBig == nil {
		t.Fatalf("missing runs: %v", runs)
	}
	peak := func(r *Run) int {
		p := 0
		for _, s := range r.Samples {
			if s.Nodes > p {
				p = s.Nodes
			}
		}
		return p
	}
	finalErr := func(r *Run) float64 { return r.Samples[len(r.Samples)-1].Error }

	if peak(e0) < 3*peak(algRun) {
		t.Fatalf("ε=0 did not blow up: %d vs algebraic %d", peak(e0), peak(algRun))
	}
	if peak(eMid) > 2*peak(algRun) {
		t.Fatalf("ε=1e-10 not compact: %d vs algebraic %d", peak(eMid), peak(algRun))
	}
	if finalErr(e0) > 1e-10 || finalErr(eMid) > 1e-10 {
		t.Fatalf("small-ε runs inaccurate: %v, %v", finalErr(e0), finalErr(eMid))
	}
	if !eBig.Failed && finalErr(eBig) < 1e-4 {
		t.Fatalf("ε=1e-3 run neither failed nor inaccurate (err %v)", finalErr(eBig))
	}
	// The algebraic run is exact by construction.
	for _, s := range algRun.Samples {
		if s.Error != 0 {
			t.Fatal("algebraic run reported nonzero error")
		}
	}
	// Bit widths grow over the algebraic run (the Section V-B statistic).
	if algRun.Samples[len(algRun.Samples)-1].MaxBits <= algRun.Samples[0].MaxBits {
		t.Fatalf("coefficient bit widths did not grow: %d → %d",
			algRun.Samples[0].MaxBits, algRun.Samples[len(algRun.Samples)-1].MaxBits)
	}
}

// TestFig4ShapesBWT: same harness on the welded-tree walk; the algebraic
// diagram must stay compact relative to the ε = 0 numeric run.
func TestFig4ShapesBWT(t *testing.T) {
	res, err := Figure(context.Background(), "4", smallParams())
	if err != nil {
		t.Fatal(err)
	}
	runs := byLabel(res)
	algRun := runs["algebraic/left"]
	e0 := runs["eps=0"]
	if algRun == nil || e0 == nil {
		t.Fatalf("missing runs: %v", runs)
	}
	if lastErr := e0.Samples[len(e0.Samples)-1].Error; lastErr > 1e-10 {
		t.Fatalf("ε=0 BWT error unexpectedly large: %v", lastErr)
	}
}

// TestFig2And5GSE: the Clifford+T-compiled GSE circuit runs under both
// representations; the algebraic coefficients grow much wider than on
// Grover-like workloads.
func TestFig2And5GSE(t *testing.T) {
	p := smallParams()
	res, err := Figure(context.Background(), "5", p)
	if err != nil {
		t.Fatal(err)
	}
	runs := byLabel(res)
	algRun := runs["algebraic/left"]
	if algRun == nil {
		t.Fatalf("missing algebraic run: %v", runs)
	}
	maxBits := 0
	for _, s := range algRun.Samples {
		if s.MaxBits > maxBits {
			maxBits = s.MaxBits
		}
	}
	if maxBits < 16 {
		t.Fatalf("GSE bit widths suspiciously small: %d", maxBits)
	}
	// Figure "2" variant (sizes only) also runs.
	res2, err := Figure(context.Background(), "2", p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Runs) != len(p.EpsList)+1 {
		t.Fatalf("fig2 produced %d runs", len(res2.Runs))
	}
}

// TestNormSchemeComparison reproduces the Section V-B claim on a small BWT:
// all schemes yield identical (canonical) sizes, and the Q[ω]-inverse scheme
// keeps at least half of the edge weights trivial.
func TestNormSchemeComparison(t *testing.T) {
	p := smallParams()
	res, err := NormSchemeComparison(context.Background(), BWTCircuit(p), 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 3 {
		t.Fatalf("expected 3 runs, got %d", len(res.Runs))
	}
	var sizes []int
	for _, r := range res.Runs {
		sizes = append(sizes, r.Samples[len(r.Samples)-1].Nodes)
	}
	if sizes[0] != sizes[1] || sizes[1] != sizes[2] {
		t.Fatalf("normalization schemes disagree on canonical size: %v", sizes)
	}
}

func TestCSVAndSummaryOutput(t *testing.T) {
	p := smallParams()
	p.EpsList = []float64{1e-10}
	p.MeasureError = false
	res, err := Figure(context.Background(), "4", p)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteCSV(&sb, res); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "experiment,run,gates,nodes") {
		t.Fatalf("CSV header missing:\n%s", out[:80])
	}
	if strings.Count(out, "\n") < 3 {
		t.Fatal("CSV suspiciously short")
	}
	sum := Summary(res)
	if !strings.Contains(sum, "algebraic/left") || !strings.Contains(sum, "peak nodes") {
		t.Fatalf("summary malformed:\n%s", sum)
	}
	chart := Series(res, "nodes", 40)
	if !strings.Contains(chart, "nodes over applied gates") {
		t.Fatalf("series chart malformed:\n%s", chart)
	}
}

// TestNodeCapAbortsRun: the harness stops runs that exceed the cap, marking
// them as the paper's "infeasible run time" regime.
func TestNodeCapAbortsRun(t *testing.T) {
	p := smallParams()
	res, err := Execute(context.Background(), "cap", Config{
		Circuit: GroverCircuit(p),
		EpsList: []float64{0},
		Stride:  8,
		PeakCap: 10, // absurdly low: must trip immediately
	})
	if err != nil {
		t.Fatal(err)
	}
	run := res.Runs[0]
	if !run.Failed || !strings.Contains(run.FailNote, "node cap") {
		t.Fatalf("cap did not trip: %+v", run.FailNote)
	}
}

func TestExecuteRejectsNothing(t *testing.T) {
	if _, err := Figure(context.Background(), "9", smallParams()); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

// TestInvalidStateFailure reproduces the paper's most dramatic failure mode
// (Fig. 2 / Example 5): with the classic leftmost normalization and a large
// tolerance, the numerical simulation produces an invalid quantum state —
// either the all-zero vector ("perfectly compact but obviously wrong") or a
// state whose norm has diverged (a non-unitary evolution). Which of the two
// symptoms appears depends on the instance size.
func TestInvalidStateFailure(t *testing.T) {
	p := smallParams()
	// 8 qubits: enough Grover iterations for ε = 10⁻³ rounding to snowball
	// into the zero vector. (At 7 qubits the nearest-representative interning
	// rule keeps the state merely inaccurate, norm ≈ 0.9, not invalid.)
	p.GroverQubits = 8
	res, err := Execute(context.Background(), "collapse", Config{
		Circuit:     GroverCircuit(p),
		EpsList:     []float64{1e-3},
		Stride:      16,
		NumNormLeft: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := res.Runs[0]
	if !run.Failed {
		t.Fatalf("expected an invalid-state failure, got none (final norm %v)",
			run.Samples[len(run.Samples)-1].Norm)
	}
	if !strings.Contains(run.FailNote, "zero vector") && !strings.Contains(run.FailNote, "norm diverged") {
		t.Fatalf("unexpected failure note %q", run.FailNote)
	}
}

// TestTuneFindsWorkableEpsilon: the tuner accepts a mid-range ε on Grover,
// rejects the too-coarse one, and reports the exact reference.
func TestTuneFindsWorkableEpsilon(t *testing.T) {
	c := GroverCircuit(smallParams())
	res, err := Tune(context.Background(), c, TuneParams{Candidates: []float64{1e-3, 1e-10}, MaxNodes: 100, MaxError: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 2 {
		t.Fatalf("trials: %d", len(res.Trials))
	}
	if res.Trials[0].Accepted {
		t.Fatalf("ε=1e-3 accepted: %+v", res.Trials[0])
	}
	if !res.Trials[1].Accepted {
		t.Fatalf("ε=1e-10 rejected: %+v", res.Trials[1])
	}
	if res.Best != 1e-10 {
		t.Fatalf("chosen ε = %v", res.Best)
	}
	if res.AlgebraicNodes == 0 || res.AlgebraicTime == 0 {
		t.Fatal("reference statistics missing")
	}
	if !strings.Contains(res.Report(), "ACCEPTED") {
		t.Fatal("report missing verdicts")
	}
}

// byLabel indexes a result's runs by their labels.
func byLabel(res *Result) map[string]*Run {
	runs := make(map[string]*Run, len(res.Runs))
	for _, r := range res.Runs {
		runs[r.Label] = r
	}
	return runs
}

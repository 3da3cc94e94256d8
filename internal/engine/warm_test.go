package engine

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/load"
	"repro/internal/qasm"
)

// figureQASM lowers a figure circuit to the OpenQASM a client would send.
func figureQASM(t testing.TB, c *circuit.Circuit) string {
	t.Helper()
	low, err := load.Lower(c)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := qasm.Write(&sb, low); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// envelope is a job's result envelope with its wall-clock fields blanked.
func envelope(t *testing.T, v JobView) string {
	t.Helper()
	res := *v.Result
	res.ElapsedMS = 0
	if res.Stats != nil {
		st := *res.Stats
		st.ElapsedSeconds = 0
		res.Stats = &st
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestWarmWorkerEnvelopeMatchesFresh: a job's envelope is a function of the
// job alone. On a one-worker engine (so every job shares the warm managers)
// a Grover-8 job run after a BWT and a GSE job in the same representation
// must return the envelope a fresh engine gives — amplitudes, exact
// encodings and stats — in alg, float at ε = 0, and float at ε = 1e-10,
// where the ε-table of the float ring is path-dependent.
func TestWarmWorkerEnvelopeMatchesFresh(t *testing.T) {
	p := bench.DefaultParams()
	p.GroverQubits = 8
	p.BWTDepth, p.BWTSteps = 4, 12
	p.GSEPhaseBits, p.GSETrotter, p.GSESKDepth = 2, 1, 1
	gse, err := bench.GSECircuit(p)
	if err != nil {
		t.Fatal(err)
	}
	grover := figureQASM(t, bench.GroverCircuit(p))
	before := []string{figureQASM(t, bench.BWTCircuit(p)), figureQASM(t, gse)}

	for _, tc := range []struct {
		name, repr string
		eps        float64
	}{{"alg", "alg", 0}, {"float0", "float", 0}, {"float", "float", 1e-10}} {
		t.Run(tc.name, func(t *testing.T) {
			req := func(src string) JobRequest {
				return JobRequest{QASM: src, Representation: tc.repr, Eps: tc.eps, TopK: 8}
			}
			warm := newTestEngine(t, Config{Workers: 1})
			for _, src := range before {
				runJob(t, warm, req(src))
			}
			got := envelope(t, runJob(t, warm, req(grover)))
			fresh := newTestEngine(t, Config{Workers: 1})
			want := envelope(t, runJob(t, fresh, req(grover)))
			if got != want {
				t.Errorf("warm envelope differs from a fresh engine's:\nwarm  %s\nfresh %s", got, want)
			}
		})
	}
}

// TestFinishedJobKeepsNoCircuit: a finished record keeps its result, not the
// circuit or its source — whether it ran or was answered from the cache.
func TestFinishedJobKeepsNoCircuit(t *testing.T) {
	e := newTestEngine(t, Config{CacheBytes: 1 << 20})
	for i, want := range []bool{false, true} {
		j, serr := e.Submit(JobRequest{QASM: testBase, Representation: "alg"})
		if serr != nil {
			t.Fatal(serr)
		}
		<-j.Done()
		if v := j.View(true); v.Cached != want || v.Result == nil {
			t.Fatalf("submission %d: cached %v, result %v; want cached %v and a result", i, v.Cached, v.Result != nil, want)
		}
		if j.circ != nil || j.req.QASM != "" {
			t.Errorf("submission %d: finished record keeps its circuit (%v) or source (%d bytes)", i, j.circ != nil, len(j.req.QASM))
		}
	}

	// Batch jobs carry the prefix plan computed at submit; their finished
	// records drop it with the circuit.
	b, serr := e.SubmitBatch(BatchRequest{Base: testBase, Suffixes: []string{testSuffix(0), testSuffix(1)}}, "")
	if serr != nil {
		t.Fatal(serr)
	}
	<-b.Done()
	jobs := []*Job{b.prefixJob}
	for _, c := range b.children {
		jobs = append(jobs, c.job)
	}
	for i, j := range jobs {
		if j == nil {
			t.Fatalf("batch job %d was refused", i-1)
		}
		if j.circ != nil || j.plan.Links != nil {
			t.Errorf("batch job %d: finished record keeps its circuit (%v) or plan (%d links)", i-1, j.circ != nil, len(j.plan.Links))
		}
	}
}

package engine

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/prefix"
	"repro/internal/qcache"
)

const testBase = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
t q[2];
h q[2];
`

const testBaseGates = 5

// testSuffix returns a per-variant phase tail over the same register.
func testSuffix(i int) string {
	gate := "s"
	if i%2 == 1 {
		gate = "t"
	}
	return fmt.Sprintf("OPENQASM 2.0;\nqreg q[3];\n%s q[%d];\nh q[%d];\n", gate, i%3, (i+1)%3)
}

func newTestEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Shutdown(time.Minute) })
	return e
}

func runJob(t *testing.T, e *Engine, req JobRequest) JobView {
	t.Helper()
	j, serr := e.Submit(req)
	if serr != nil {
		t.Fatalf("submit: %v", serr)
	}
	<-j.Done()
	v := j.View(true)
	if v.Status != StatusDone {
		t.Fatalf("job finished %q: %+v", v.Status, v.Error)
	}
	return v
}

func ampJSON(t *testing.T, v JobView) string {
	t.Helper()
	if v.Result == nil || len(v.Result.Amplitudes) == 0 {
		t.Fatal("job has no amplitudes")
	}
	b, err := json.Marshal(v.Result.Amplitudes)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestPrefixWarmStartByteIdentical is the engine-level differential check:
// a run that warm-starts from a prefix checkpoint must produce amplitudes
// byte-identical to a cold run of the same circuit — in both
// representations (ε = 0; tolerance-based interning is path-dependent).
func TestPrefixWarmStartByteIdentical(t *testing.T) {
	extended := testBase + "t q[0];\nh q[1];\ns q[2];\n"
	for _, repr := range []string{"alg", "float"} {
		t.Run(repr, func(t *testing.T) {
			warm := newTestEngine(t, Config{CacheBytes: 1 << 20, CheckpointEvery: 2})
			// Seed the checkpoint store: the base run snapshots its final
			// state under the chain link the extension shares.
			runJob(t, warm, JobRequest{QASM: testBase, Representation: repr, TopK: 8})
			got := ampJSON(t, runJob(t, warm, JobRequest{QASM: extended, Representation: repr, TopK: 8}))
			if hits := warm.PrefixHits(); hits != 1 {
				t.Fatalf("prefix hits = %d, want 1", hits)
			}
			if skipped := warm.PrefixGatesSkipped(); skipped != testBaseGates {
				t.Fatalf("prefix gates skipped = %d, want %d", skipped, testBaseGates)
			}
			if warm.CheckpointsStored() == 0 {
				t.Fatal("no checkpoints stored")
			}

			cold := newTestEngine(t, Config{CheckpointEvery: -1})
			want := ampJSON(t, runJob(t, cold, JobRequest{QASM: extended, Representation: repr, TopK: 8}))
			if got != want {
				t.Errorf("warm-start amplitudes differ from the cold run's:\nwarm %s\ncold %s", got, want)
			}
			if cold.PrefixHits() != 0 || cold.CheckpointsStored() != 0 {
				t.Error("checkpointing ran on an engine with CheckpointEvery < 0")
			}
		})
	}
}

// TestBatchSharedPrefixExactlyOnce pins the batch scheduler: one prefix job,
// every variant warm-started, request ids derived from the submission's.
func TestBatchSharedPrefixExactlyOnce(t *testing.T) {
	e := newTestEngine(t, Config{CacheBytes: 1 << 20})
	const n = 3
	req := BatchRequest{Base: testBase, TopK: 4}
	for i := 0; i < n; i++ {
		req.Suffixes = append(req.Suffixes, testSuffix(i))
	}
	b, serr := e.SubmitBatch(req, "r123")
	if serr != nil {
		t.Fatalf("SubmitBatch: %v", serr)
	}
	<-b.Done()
	v := b.View(true)
	if v.Status != StatusDone {
		t.Fatalf("batch finished %q", v.Status)
	}
	if v.PrefixGates != testBaseGates {
		t.Fatalf("prefix gates = %d, want %d", v.PrefixGates, testBaseGates)
	}
	if v.PrefixKey == "" {
		t.Fatal("batch has no prefix key")
	}
	if v.Prefix == nil || v.Prefix.RequestID != "r123-/prefix" {
		t.Fatalf("prefix job view = %+v, want request id r123-/prefix", v.Prefix)
	}
	if len(v.Variants) != n {
		t.Fatalf("%d variants, want %d", len(v.Variants), n)
	}
	seen := map[string]int{}
	for i, c := range v.Variants {
		if want := fmt.Sprintf("r123-/v%d", i); c.RequestID != want {
			t.Errorf("variant %d request id = %q, want %q", i, c.RequestID, want)
		}
		if c.Job == nil || c.Job.Status != StatusDone {
			t.Fatalf("variant %d did not finish: %+v", i, c)
		}
		seen[ampJSON(t, *c.Job)]++
	}
	if len(seen) != n {
		t.Errorf("only %d distinct variant results, want %d", len(seen), n)
	}
	// Exactly-once prefix work: the prefix job plus one job per variant, and
	// every variant resumed from the prefix checkpoint.
	if started := e.JobsStarted(); started != n+1 {
		t.Errorf("jobs started = %d, want %d", started, n+1)
	}
	if hits := e.PrefixHits(); hits != n {
		t.Errorf("prefix hits = %d, want %d", hits, n)
	}
	if skipped := e.PrefixGatesSkipped(); skipped != n*testBaseGates {
		t.Errorf("prefix gates skipped = %d, want %d", skipped, n*testBaseGates)
	}
}

// TestBatchVariantsFormDiscoversPrefix: in the variants form the engine
// finds the shared prefix through the chain — including across textual
// variants (renamed registers) of the same prefix.
func TestBatchVariantsFormDiscoversPrefix(t *testing.T) {
	// Variant 2 renames the register: the chain is textual-variant-blind, so
	// it still shares the discovered prefix.
	renamed := strings.ReplaceAll(testBase, "q[", "other[")
	if strings.Contains(renamed, "q[") {
		t.Fatal("register rename failed")
	}
	req := BatchRequest{Variants: []string{
		testBase + "t q[0];\n",
		testBase + "s q[0];\n",
		renamed + "h other[1];\n",
	}}

	e := newTestEngine(t, Config{CacheBytes: 1 << 20})
	b, serr := e.SubmitBatch(req, "")
	if serr != nil {
		t.Fatalf("SubmitBatch: %v", serr)
	}
	<-b.Done()
	v := b.View(false)
	if v.PrefixGates != testBaseGates {
		t.Fatalf("discovered prefix = %d gates, want %d", v.PrefixGates, testBaseGates)
	}
	if hits := e.PrefixHits(); hits != 3 {
		t.Errorf("prefix hits = %d, want 3", hits)
	}
	// With no transport request id the batch id is the stem.
	if want := b.ID() + "-/v0"; v.Variants[0].RequestID != want {
		t.Errorf("variant 0 request id = %q, want %q", v.Variants[0].RequestID, want)
	}
}

// TestBatchVariantPlanMatchesPlanOf: the chain a batch hashes once at
// submit (base absorbed once and cloned per suffix, or one chain per
// variant) is the chain prefix.PlanOf computes from the variant's own
// circuit, link for link, with the same unitary boundary, and its last link
// is the variant's fingerprint. Covers both batch forms and a suffix whose
// trailing measures StripReadout removes; the prefix job's plan is checked
// the same way.
func TestBatchVariantPlanMatchesPlanOf(t *testing.T) {
	measured := "OPENQASM 2.0;\nqreg q[3];\ncreg c[2];\nt q[1];\nh q[0];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"
	withCreg := strings.Replace(testBase, "qreg q[3];\n", "qreg q[3];\ncreg c[1];\n", 1)
	renamed := strings.ReplaceAll(testBase, "q[", "other[")
	e := newTestEngine(t, Config{CacheBytes: 1 << 20})
	for _, tc := range []struct {
		name string
		req  BatchRequest
	}{
		{"base+suffixes", BatchRequest{Base: testBase, Suffixes: []string{testSuffix(0), testSuffix(1), measured}}},
		{"variants", BatchRequest{Variants: []string{
			testBase + "t q[0];\n",
			renamed + "h other[1];\n",
			withCreg + "s q[2];\nmeasure q[2] -> c[0];\n",
		}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, variants, prefixLen, serr := e.validateBatch(tc.req)
			if serr != nil {
				t.Fatal(serr)
			}
			if prefixLen != testBaseGates {
				t.Fatalf("shared prefix = %d gates, want %d", prefixLen, testBaseGates)
			}
			check := func(name string, jc jobCircuit) {
				t.Helper()
				want := prefix.PlanOf(jc.circ)
				if jc.plan.Boundary != want.Boundary || len(jc.plan.Links) != len(want.Links) {
					t.Fatalf("%s: plan has %d links, boundary %d; PlanOf has %d, %d",
						name, len(jc.plan.Links), jc.plan.Boundary, len(want.Links), want.Boundary)
				}
				for k := range want.Links {
					if jc.plan.Links[k] != want.Links[k] {
						t.Fatalf("%s: link %d differs from PlanOf", name, k)
					}
				}
				if jc.fp != circuit.Fingerprint(jc.circ) {
					t.Fatalf("%s: fingerprint is not the circuit's", name)
				}
			}
			for i, v := range variants {
				if v.circ.Cbits != 0 || !v.circ.IsUnitary() {
					t.Fatalf("variant %d was not read-out stripped", i)
				}
				check(fmt.Sprintf("variant %d", i), v)
			}
			check("prefix job", prefixJob(variants[0], prefixLen))
		})
	}
}

// TestBatchValidation covers the refusal surface of SubmitBatch.
func TestBatchValidation(t *testing.T) {
	e := newTestEngine(t, Config{MaxBatchVariants: 2})
	dynamicBase := "OPENQASM 2.0;\nqreg q[2];\ncreg c[1];\nh q[0];\nmeasure q[0] -> c[0];\nh q[1];\n"
	cases := []struct {
		name string
		req  BatchRequest
	}{
		{"empty", BatchRequest{}},
		{"both forms", BatchRequest{Base: testBase, Suffixes: []string{testSuffix(0)}, Variants: []string{testBase}}},
		{"base without suffixes", BatchRequest{Base: testBase}},
		{"suffixes without base", BatchRequest{Suffixes: []string{testSuffix(0)}}},
		{"over the cap", BatchRequest{Base: testBase, Suffixes: []string{testSuffix(0), testSuffix(1), testSuffix(2)}}},
		{"width mismatch", BatchRequest{Base: testBase, Suffixes: []string{"OPENQASM 2.0;\nqreg q[2];\nh q[0];\n"}}},
		{"dynamic base", BatchRequest{Base: dynamicBase, Suffixes: []string{testSuffix(0)}}},
		{"parse error", BatchRequest{Base: "OPENQASM 2.0;\nqreg q[", Suffixes: []string{testSuffix(0)}}},
		{"dynamic variant", BatchRequest{Variants: []string{dynamicBase}}},
		{"bad representation", BatchRequest{Base: testBase, Suffixes: []string{testSuffix(0)}, Representation: "nope"}},
	}
	for _, tc := range cases {
		b, serr := e.SubmitBatch(tc.req, "")
		if serr == nil || serr.Reason != RejectInvalid {
			t.Errorf("%s: SubmitBatch = (%v, %v), want RejectInvalid", tc.name, b, serr)
		}
	}
}

// TestSubmitRepeatedOperandIsParseError: a gate applied to one qubit twice
// is rejected as a parse error on its line, never a panic (which would make
// the HTTP server drop the connection instead of answering 400).
func TestSubmitRepeatedOperandIsParseError(t *testing.T) {
	e := newTestEngine(t, Config{})
	for _, stmt := range []string{"cx q[0],q[0];", "swap q[1],q[1];", "ccx q[0],q[0],q[1];", "cswap q[0],q[1],q[1];"} {
		j, serr := e.Submit(JobRequest{QASM: "OPENQASM 2.0;\nqreg q[3];\n" + stmt + "\n"})
		if serr == nil {
			t.Fatalf("%s: accepted as job %v", stmt, j.ID())
		}
		if serr.Reason != RejectInvalid || serr.Body.Kind != KindParseError || serr.Body.Line != 3 {
			t.Errorf("%s: got %+v, want a parse_error on line 3", stmt, serr)
		}
	}
}

// TestBatchPrefixKeyIsCheckpointKey: the prefix_key a batch reports is the
// cache key its prefix checkpoint actually lands under, for both
// representations, under a non-default normalization, and for an alg batch
// that names an ε (the exact representation ignores it).
func TestBatchPrefixKeyIsCheckpointKey(t *testing.T) {
	for _, tc := range []struct {
		name, repr, norm string
		eps              float64
	}{
		{"alg", "alg", "", 0},
		{"alg-eps", "alg", "", 1e-9},
		{"alg-max", "alg", "max", 0},
		{"float", "float", "", 0},
		{"float-eps", "float", "left", 1e-12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newTestEngine(t, Config{CacheBytes: 1 << 20})
			req := BatchRequest{Base: testBase, Representation: tc.repr, Norm: tc.norm, Eps: tc.eps, TopK: 4,
				Suffixes: []string{testSuffix(0), testSuffix(1)}}
			b, serr := e.SubmitBatch(req, "")
			if serr != nil {
				t.Fatalf("SubmitBatch: %v", serr)
			}
			<-b.Done()
			v := b.View(true)
			if v.Status != StatusDone {
				t.Fatalf("batch finished %q", v.Status)
			}
			if v.PrefixKey != b.prefixKey.String() {
				t.Fatalf("view prefix_key %q, batch key %s", v.PrefixKey, b.prefixKey)
			}
			if _, ok := e.cache.Get(b.prefixKey, qcache.Stamp{}); !ok {
				t.Fatalf("no checkpoint under prefix_key %s", v.PrefixKey)
			}
			if hits := e.PrefixHits(); hits != 2 {
				t.Errorf("prefix hits = %d, want 2", hits)
			}
		})
	}
}

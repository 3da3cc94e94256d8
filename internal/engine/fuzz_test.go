package engine

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/circuit"
)

// FuzzJobRequest feeds arbitrary bytes through the job-submission front
// half: the JSON decode the HTTP transport runs on POST /v1/jobs (unknown
// fields refused), then validate. Neither may panic; every refusal must be
// a typed ErrorBody; an accepted request must come back canonical — a
// second validate accepts it unchanged, so equivalent requests share one
// cache key.
func FuzzJobRequest(f *testing.F) {
	progs, err := filepath.Glob(filepath.Join("..", "qasm", "testdata", "*.qasm"))
	if err != nil || len(progs) == 0 {
		f.Fatalf("no seed programs: %v", err)
	}
	for _, p := range progs {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		for _, req := range []JobRequest{
			{QASM: string(src)},
			{QASM: string(src), Representation: "float", Eps: 1e-10, Norm: "max", TopK: 4},
			{QASM: string(src), Shots: 8, Seed: 3},
			{QASM: string(src), Output: "ddio", MinFidelity: 0.9, MaxNodes: 100},
		} {
			b, err := json.Marshal(req)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
		}
	}
	f.Add([]byte(`{"qasm": "OPENQASM 2.0;\nqreg q[1];\nh q[0];\n", "unknown": 1}`))
	f.Add([]byte(`{"qasm": 7}`))
	f.Add([]byte(`{"qasm": "", "shots": -1}`))

	e, err := New(Config{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { e.Shutdown(0) })

	f.Fuzz(func(t *testing.T, body []byte) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var req JobRequest
		if dec.Decode(&req) != nil {
			return // the transport refuses it as invalid_request
		}
		jc, refusal := e.validate(&req)
		circ := jc.circ
		if refusal != nil {
			if refusal.Kind != KindInvalidRequest && refusal.Kind != KindParseError {
				t.Fatalf("refusal of kind %q: %+v", refusal.Kind, refusal)
			}
			if refusal.Message == "" || circ != nil {
				t.Fatalf("malformed refusal %+v (circuit %v)", refusal, circ)
			}
			return
		}
		if circ == nil || circ.N < 1 || circ.N > e.cfg.MaxQubits {
			t.Fatalf("accepted request yielded circuit %v", circ)
		}
		again := req
		if _, refusal := e.validate(&again); refusal != nil {
			t.Fatalf("canonical request refused on revalidation: %+v", refusal)
		}
		if again != req {
			t.Fatalf("validate is not a fixed point:\nfirst:  %+v\nsecond: %+v", req, again)
		}
	})
}

// FuzzBatchRequest feeds arbitrary bytes through the batch-submission front
// half: the strict JSON decode POST /v1/batches runs, then SubmitBatch's
// validation, whose sources go through the parse memo. Neither may panic;
// every refusal must be a typed invalid-request or parse error; an accepted
// batch submitted again (now a memo hit) must yield the same template, the
// same circuits and the same shared prefix.
func FuzzBatchRequest(f *testing.F) {
	progs, err := filepath.Glob(filepath.Join("..", "qasm", "testdata", "*.qasm"))
	if err != nil || len(progs) == 0 {
		f.Fatalf("no seed programs: %v", err)
	}
	srcs := make([]string, len(progs))
	for i, p := range progs {
		raw, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		srcs[i] = string(raw)
	}
	for _, base := range srcs {
		for _, suffix := range srcs {
			b, err := json.Marshal(BatchRequest{Base: base, Suffixes: []string{suffix, suffix}})
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
		}
		b, err := json.Marshal(BatchRequest{Variants: []string{base, base}, Representation: "float", Eps: 1e-10})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"base": "OPENQASM 2.0;\nqreg q[1];\nh q[0];\n", "suffixes": ["OPENQASM 2.0;\nqreg q[1];\nt q[0];\n"], "unknown": 1}`))
	f.Add([]byte(`{"base": "OPENQASM 2.0;\nqreg q[1];\nh q[0];\n", "variants": ["x"]}`))
	f.Add([]byte(`{"variants": []}`))

	e, err := New(Config{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { e.Shutdown(0) })

	f.Fuzz(func(t *testing.T, body []byte) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var req BatchRequest
		if dec.Decode(&req) != nil {
			return // the transport refuses it as invalid_request
		}
		tmpl, variants, k, serr := e.validateBatch(req)
		if serr != nil {
			if serr.Reason != RejectInvalid || serr.Body.Message == "" ||
				(serr.Body.Kind != KindInvalidRequest && serr.Body.Kind != KindParseError) {
				t.Fatalf("untyped refusal %+v", serr)
			}
			if variants != nil {
				t.Fatalf("refusal returned %d circuits", len(variants))
			}
			return
		}
		if len(variants) != len(req.Suffixes)+len(req.Variants) || len(variants) == 0 {
			t.Fatalf("accepted batch has %d circuits for %d sources", len(variants), len(req.Suffixes)+len(req.Variants))
		}
		for i, v := range variants {
			if v.circ.N < 1 || v.circ.N > e.cfg.MaxQubits || k > len(v.circ.Gates) || !v.circ.IsUnitary() {
				t.Fatalf("variant %d: %d qubits, %d gates, prefix %d, unitary %v", i, v.circ.N, len(v.circ.Gates), k, v.circ.IsUnitary())
			}
			if circuit.Fingerprint(v.circ) != v.fp {
				t.Fatalf("variant %d: fingerprint does not match its circuit", i)
			}
		}
		tmpl2, again, k2, serr := e.validateBatch(req)
		if serr != nil {
			t.Fatalf("accepted batch refused on resubmission: %+v", serr)
		}
		if tmpl2 != tmpl || k2 != k || len(again) != len(variants) {
			t.Fatalf("resubmission changed the batch: template %+v/%+v, prefix %d/%d", tmpl, tmpl2, k, k2)
		}
		for i := range again {
			if again[i].fp != variants[i].fp || again[i].circ.N != variants[i].circ.N {
				t.Fatalf("resubmission changed variant %d", i)
			}
		}
	})
}

package engine

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
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
		circ, refusal := e.validate(&req)
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

package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/qasm"
	"repro/internal/qasm/qasmtest"
)

// TestValidateMemoMatchesParse: for every corpus program and request shape,
// validation on a parse-memo miss, on a hit, and on a fresh qasm.Parse give
// the same cache key (qcache.Identity.Key) and the same refusal. A refused
// source never enters the memo.
func TestValidateMemoMatchesParse(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	shapes := []JobRequest{
		{},
		{Representation: "float", Eps: 1e-10, Output: "stats"},
		{Shots: 8, Seed: 3},
	}
	for i, src := range qasmtest.Corpus(t) {
		for si, shape := range shapes {
			t.Run(fmt.Sprintf("%d/%d", i, si), func(t *testing.T) {
				// The fresh path: normalize, parse, check and strip without
				// the memo.
				want := shape
				want.QASM = src
				if eb := e.normalizeRequest(&want); eb != nil {
					t.Fatal(eb)
				}
				var wantErr *ErrorBody
				var wantKey [32]byte
				c, err := qasm.Parse(src, "fresh")
				switch {
				case err != nil:
					wantErr = &ErrorBody{Kind: KindParseError, Message: err.Error()}
					var pe *qasm.ParseError
					if errors.As(err, &pe) {
						wantErr.Line = pe.Line
					}
				default:
					if wantErr = e.checkCircuit(&want, c); wantErr == nil {
						if want.Shots == 0 {
							c = c.StripReadout()
						}
						wantKey = identity(&want, circuit.Fingerprint(c)).Key()
					}
				}

				entries := e.memo.Stats().Entries
				for _, pass := range []string{"first", "repeat"} {
					req := shape
					req.QASM = src
					jc, eb := e.validate(&req)
					if wantErr != nil {
						if eb == nil || *eb != *wantErr {
							t.Fatalf("%s: refusal %+v, want %+v", pass, eb, wantErr)
						}
						if err != nil && e.memo.Stats().Entries != entries {
							t.Fatalf("%s: failed parse entered the memo", pass)
						}
						continue
					}
					if eb != nil {
						t.Fatalf("%s: refused %+v", pass, eb)
					}
					if got := identity(&req, jc.fp).Key(); got != wantKey {
						t.Fatalf("%s: cache key differs from a fresh parse", pass)
					}
					if circuit.Fingerprint(jc.circ) != jc.fp {
						t.Fatalf("%s: memoized fingerprint does not match the job's circuit", pass)
					}
				}
			})
		}
	}
}

// TestCircuitNameNotInResult: the parse-site label of a memoized circuit is
// whichever request parsed the source first; it must reach neither the
// fingerprint nor the result envelope.
func TestCircuitNameNotInResult(t *testing.T) {
	src := qasmtest.Corpus(t)[0]
	const label = "label-that-must-not-leak"
	labelled := newTestEngine(t, Config{Workers: 1})
	p, err := labelled.memo.Parse(src, label)
	if err != nil {
		t.Fatal(err)
	}
	other, err := qasm.Parse(src, "request")
	if err != nil {
		t.Fatal(err)
	}
	if p.Fingerprint() != circuit.Fingerprint(other) {
		t.Fatal("the parse-site label changed the fingerprint")
	}
	envelope := func(e *Engine) string {
		return resultJSON(t, runJob(t, e, JobRequest{QASM: src}).Result)
	}
	got, want := envelope(labelled), envelope(newTestEngine(t, Config{Workers: 1}))
	if got != want {
		t.Fatalf("envelope depends on the memoized label:\n%s\nvs\n%s", got, want)
	}
	if strings.Contains(got, label) {
		t.Fatalf("envelope carries the parse-site label: %s", got)
	}
}

// resultJSON is a result envelope without its wall-clock fields and manager
// counters (which depend on what the worker's warm manager ran before).
func resultJSON(t *testing.T, res *JobResult) string {
	t.Helper()
	r := *res
	r.ElapsedMS, r.Stats = 0, nil
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

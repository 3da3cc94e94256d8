package router

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/qasm"
	"repro/internal/qasm/qasmtest"
	"repro/internal/server"
)

// TestRouteKeyMemoMatchesParse: for every corpus program, routeKey (with and
// without shots) and both
// forms of batchRouteKey derive the same ring key on a parse-memo miss, on
// a hit, and from a fresh qasm.Parse; a source that does not parse falls
// back to the body hash every time and never enters the memo.
func TestRouteKeyMemoMatchesParse(t *testing.T) {
	for i, src := range qasmtest.Corpus(t) {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			rt := memoRouter()
			fresh, err := qasm.Parse(src, "fresh")
			var stripped *circuit.Circuit
			if err == nil {
				stripped = fresh.StripReadout()
			}
			solo := marshalBody(t, map[string]any{"qasm": src})
			shots := marshalBody(t, map[string]any{"qasm": src, "shots": 10})
			base := marshalBody(t, map[string]any{"base": src, "suffixes": []string{src}})
			variants := marshalBody(t, map[string]any{"variants": []string{src, src}})
			hashOf := func(body []byte) []byte { sum := sha256.Sum256(body); return sum[:] }

			wantSolo, wantShots, wantBase, wantVariants := hashOf(solo), hashOf(shots), hashOf(base), hashOf(variants)
			if err == nil {
				fp := circuit.Fingerprint(fresh)
				wantShots = fp[:]
				// A solo job without shots is an amplitude job, cached (and
				// so routed) under its read-out-stripped twin's fingerprint.
				link := circuit.Fingerprint(stripped)
				wantSolo = link[:]
				wantBase = link[:]
				if k := circuit.SharedPrefixLen(stripped, stripped); k > 0 {
					link := circuit.Chain(stripped)[k]
					wantVariants = link[:]
				}
			}
			for _, pass := range []string{"first", "repeat"} {
				if got := rt.routeKey(solo); !bytes.Equal(got, wantSolo) {
					t.Errorf("%s: routeKey differs from a fresh parse", pass)
				}
				if got := rt.routeKey(shots); !bytes.Equal(got, wantShots) {
					t.Errorf("%s: shots routeKey differs from a fresh parse", pass)
				}
				if got := rt.batchRouteKey(base); !bytes.Equal(got, wantBase) {
					t.Errorf("%s: base-form batchRouteKey differs from a fresh parse", pass)
				}
				if got := rt.batchRouteKey(variants); !bytes.Equal(got, wantVariants) {
					t.Errorf("%s: variants-form batchRouteKey differs from a fresh parse", pass)
				}
			}
			st := rt.memo.Stats()
			if err != nil && st.Entries != 0 {
				t.Fatalf("a failed parse entered the memo: %+v", st)
			}
			if err == nil && (st.Entries != 1 || st.Misses != 1) {
				t.Fatalf("one source, four body shapes, two passes: %+v", st)
			}
		})
	}
}

// memoTestQASM is a T-heavy 4-qubit circuit with a trailing read-out, so the
// worker runs the memoized circuit's stripped form.
const memoTestQASM = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
creg c[4];
h q;
cx q[0],q[1];
t q[1];
cx q[1],q[2];
tdg q[2];
ccx q[0],q[2],q[3];
s q[3];
h q[0];
t q[0];
cx q[3],q[0];
measure q -> c;
`

// memoTestReprs are the three representations of the benchmark: exact
// Q[ω], float at ε = 1e-10, and float at ε = 0.
var memoTestReprs = []struct {
	name string
	repr string
	eps  float64
}{{"alg", "alg", 0}, {"float", "float", 1e-10}, {"float0", "float", 0}}

// stableResult is a result envelope without its wall-clock fields and its
// manager counters (which depend on what the worker's warm manager ran
// before), marshalled for byte comparison. It runs on submitting
// goroutines, so it reports with Error.
func stableResult(t *testing.T, res *engine.JobResult) string {
	t.Helper()
	if res == nil {
		t.Error("no result")
		return ""
	}
	r := *res
	r.ElapsedMS, r.Stats = 0, nil
	b, err := json.Marshal(r)
	if err != nil {
		t.Error(err)
	}
	return string(b)
}

// TestConcurrentMemoSubmit: 16 goroutines submit one source in every
// representation, through an engine with the cache off (every submission
// simulates the one shared memoized circuit) and through a router in front
// of two workers. Every result must equal a serial run's byte for byte.
func TestConcurrentMemoSubmit(t *testing.T) {
	const goroutines = 16

	runEngine := func(e *engine.Engine, repr int) string {
		j, serr := e.Submit(engine.JobRequest{QASM: memoTestQASM, Representation: memoTestReprs[repr].repr, Eps: memoTestReprs[repr].eps})
		if serr != nil {
			t.Errorf("submit: %+v", serr.Body)
			return ""
		}
		<-j.Done()
		v := j.View(true)
		if v.Status != engine.StatusDone {
			t.Errorf("job %s: %+v", v.Status, v.Error)
			return ""
		}
		return stableResult(t, v.Result)
	}
	newEngine := func() *engine.Engine {
		e, err := engine.New(engine.Config{Workers: 4, QueueSize: 4 * goroutines})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Shutdown(time.Minute) })
		return e
	}
	serialEngine := newEngine()
	want := make([]string, len(memoTestReprs))
	for r := range memoTestReprs {
		want[r] = runEngine(serialEngine, r)
	}

	concurrent := func(name string, run func(repr int) string) {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			for r := range memoTestReprs {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					if got := run(r); got != want[r] {
						t.Errorf("%s/%s: result differs from the serial run:\n%s\nvs\n%s", name, memoTestReprs[r].name, got, want[r])
					}
				}(r)
			}
		}
		wg.Wait()
	}

	e := newEngine()
	concurrent("engine", func(r int) string { return runEngine(e, r) })

	var workers []string
	for i := 0; i < 2; i++ {
		s, err := server.New(server.Config{Workers: 2, QueueSize: 4 * goroutines, CacheBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s)
		t.Cleanup(func() { ts.Close(); s.Shutdown(time.Minute) })
		workers = append(workers, ts.URL)
	}
	rt, rts := newTestRouter(t, Config{Workers: workers})
	concurrent("router", func(r int) string {
		body := marshalBody(t, map[string]any{
			"qasm": memoTestQASM, "representation": memoTestReprs[r].repr, "eps": memoTestReprs[r].eps, "wait": true,
		})
		resp, err := http.Post(rts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return ""
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		var v engine.JobView
		if resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &v) != nil || v.Status != engine.StatusDone {
			t.Errorf("routed submit: %d %s", resp.StatusCode, strings.TrimSpace(string(raw)))
			return ""
		}
		return stableResult(t, v.Result)
	})
	if st := rt.memo.Stats(); st.Misses == 0 || st.Hits+st.Misses != goroutines*uint64(len(memoTestReprs)) || st.Entries != 1 {
		t.Fatalf("router memo after %d submissions of one source: %+v", goroutines*len(memoTestReprs), st)
	}
}

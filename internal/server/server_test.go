package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/load"
	"repro/internal/qasm"
)

// ghzQASM is an n-qubit GHZ circuit in OpenQASM.
func ghzQASM(n int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "OPENQASM 2.0;\nqreg q[%d];\nh q[0];\n", n)
	for i := 1; i < n; i++ {
		fmt.Fprintf(&sb, "cx q[%d],q[%d];\n", i-1, i)
	}
	return sb.String()
}

// groverQASM is a 2-qubit Grover iteration marking |11⟩; the final state is
// exactly |11⟩ (up to global phase), a sharp end-to-end assertion.
const groverQASM = `OPENQASM 2.0;
qreg q[2];
h q[0]; h q[1];
cz q[0],q[1];
h q[0]; h q[1];
x q[0]; x q[1];
cz q[0],q[1];
x q[0]; x q[1];
h q[0]; h q[1];
`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(10 * time.Second)
	})
	return s, ts
}

// postJob submits a request body and decodes the response, which is either a
// engine.JobView (possibly carrying an error for failed jobs) or an {"error": …}
// envelope for refused submissions.
func postJob(t *testing.T, url string, body string) (*http.Response, engine.JobView, engine.ErrorBody) {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wrapper struct {
		engine.JobView
		Error *engine.ErrorBody `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&wrapper); err != nil {
		t.Fatalf("decoding response (%d): %v", resp.StatusCode, err)
	}
	var eb engine.ErrorBody
	if wrapper.Error != nil {
		eb = *wrapper.Error
	}
	wrapper.JobView.Error = wrapper.Error
	return resp, wrapper.JobView, eb
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s (%d): %v", url, resp.StatusCode, err)
		}
	}
	return resp
}

func TestSubmitWaitGrover(t *testing.T) {
	for _, repr := range []string{"alg", "float"} {
		t.Run(repr, func(t *testing.T) {
			_, ts := newTestServer(t, Config{Workers: 2})
			body := fmt.Sprintf(`{"qasm": %q, "representation": %q, "wait": true}`, groverQASM, repr)
			resp, view, _ := postJob(t, ts.URL, body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d", resp.StatusCode)
			}
			if view.Status != engine.StatusDone || view.Result == nil {
				t.Fatalf("job not done: %+v", view)
			}
			r := view.Result
			if r.Qubits != 2 || len(r.Amplitudes) == 0 {
				t.Fatalf("bad result: %+v", r)
			}
			top := r.Amplitudes[0]
			if top.State != "11" || top.Prob < 1-1e-12 || top.Prob > 1+1e-12 {
				t.Fatalf("Grover top outcome = %+v, want |11⟩ with probability 1", top)
			}
			if top.Exact == "" {
				t.Fatal("missing exact encoding")
			}
			if r.Stats == nil || r.Stats.PeakNodes == 0 {
				t.Fatalf("missing stats: %+v", r.Stats)
			}
		})
	}
}

func TestSubmitPollResult(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, view, _ := postJob(t, ts.URL, fmt.Sprintf(`{"qasm": %q}`, ghzQASM(3)))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	if view.ID == "" {
		t.Fatalf("no job id in %+v", view)
	}
	deadline := time.Now().Add(10 * time.Second)
	var polled engine.JobView
	for {
		if r := getJSON(t, ts.URL+"/v1/jobs/"+view.ID, &polled); r.StatusCode != http.StatusOK {
			t.Fatalf("poll status = %d", r.StatusCode)
		}
		if polled.Status != engine.StatusQueued && polled.Status != engine.StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", polled.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if polled.Status != engine.StatusDone {
		t.Fatalf("terminal status = %q, error = %+v", polled.Status, polled.Error)
	}
	if polled.Result != nil {
		t.Fatal("status poll must not carry the result payload")
	}
	var full engine.JobView
	if r := getJSON(t, ts.URL+"/v1/jobs/"+view.ID+"/result", &full); r.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d", r.StatusCode)
	}
	if full.Result == nil || full.Result.Qubits != 3 {
		t.Fatalf("bad result: %+v", full.Result)
	}
	// GHZ: exactly |000⟩ and |111⟩, probability ½ each.
	if len(full.Result.Amplitudes) != 2 {
		t.Fatalf("GHZ support = %d amplitudes, want 2", len(full.Result.Amplitudes))
	}
}

func TestNotFoundAndNotFinished(t *testing.T) {
	cfg := Config{Workers: 1}
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	cfg.hookRunning = func(*engine.Job) { entered <- struct{}{}; <-release }
	_, ts := newTestServer(t, cfg)
	defer close(release)

	if r := getJSON(t, ts.URL+"/v1/jobs/jdeadbeef", nil); r.StatusCode != http.StatusNotFound {
		t.Fatalf("status for unknown id = %d", r.StatusCode)
	}
	if r := getJSON(t, ts.URL+"/v1/jobs/jdeadbeef/result", nil); r.StatusCode != http.StatusNotFound {
		t.Fatalf("result for unknown id = %d", r.StatusCode)
	}
	// A running job's result is a 409, not a 404 or a hang.
	_, view, _ := postJob(t, ts.URL, fmt.Sprintf(`{"qasm": %q}`, ghzQASM(2)))
	<-entered
	var wrapper struct {
		Error engine.ErrorBody `json:"error"`
	}
	if r := getJSON(t, ts.URL+"/v1/jobs/"+view.ID+"/result", &wrapper); r.StatusCode != http.StatusConflict {
		t.Fatalf("result for running job = %d", r.StatusCode)
	}
	if wrapper.Error.Kind != engine.KindNotFinished {
		t.Fatalf("kind = %q", wrapper.Error.Kind)
	}
}

func TestRequestTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 512})
	big := fmt.Sprintf(`{"qasm": %q}`, ghzQASM(200))
	resp, _, eb := postJob(t, ts.URL, big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if eb.Kind != engine.KindTooLarge {
		t.Fatalf("kind = %q", eb.Kind)
	}
}

func TestQueueFull(t *testing.T) {
	cfg := Config{Workers: 1, QueueSize: 1}
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	cfg.hookRunning = func(*engine.Job) { entered <- struct{}{}; <-release }
	_, ts := newTestServer(t, cfg)
	defer close(release)

	// First job occupies the worker; second fills the queue; third must 429.
	// Distinct circuits — identical ones would be deduplicated onto the
	// first flight instead of consuming queue slots.
	if resp, _, _ := postJob(t, ts.URL, fmt.Sprintf(`{"qasm": %q}`, ghzQASM(2))); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d", resp.StatusCode)
	}
	<-entered
	if resp, _, _ := postJob(t, ts.URL, fmt.Sprintf(`{"qasm": %q}`, ghzQASM(3))); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit = %d", resp.StatusCode)
	}
	resp, _, eb := postJob(t, ts.URL, fmt.Sprintf(`{"qasm": %q}`, ghzQASM(4)))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit = %d, want 429", resp.StatusCode)
	}
	if eb.Kind != engine.KindQueueFull {
		t.Fatalf("kind = %q", eb.Kind)
	}
}

func TestParseErrorBody(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, _, eb := postJob(t, ts.URL, `{"qasm": "OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if eb.Kind != engine.KindParseError || eb.Line != 3 {
		t.Fatalf("error = %+v, want parse_error at line 3", eb)
	}
}

func TestBudgetExceededBody(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body := fmt.Sprintf(`{"qasm": %q, "max_nodes": 1, "wait": true}`, ghzQASM(6))
	resp, view, eb := postJob(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (a governed refusal is not a 5xx)", resp.StatusCode)
	}
	if view.Status != engine.StatusFailed {
		t.Fatalf("status = %q", view.Status)
	}
	if eb.Kind != engine.KindBudgetExceeded || eb.Limit != "nodes" || eb.Peak == nil || eb.Peak.Nodes < 1 {
		t.Fatalf("error = %+v, want budget_exceeded on nodes with peaks", eb)
	}
}

func TestInvalidRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name, body string
	}{
		{"empty qasm", `{"qasm": ""}`},
		{"bad representation", `{"qasm": "OPENQASM 2.0;\nqreg q[1];", "representation": "double"}`},
		{"bad norm", `{"qasm": "OPENQASM 2.0;\nqreg q[1];", "norm": "weird"}`},
		{"bad output", `{"qasm": "OPENQASM 2.0;\nqreg q[1];", "output": "dot"}`},
		{"negative budget", `{"qasm": "OPENQASM 2.0;\nqreg q[1];", "max_nodes": -5}`},
		{"negative eps", `{"qasm": "OPENQASM 2.0;\nqreg q[1];", "representation": "float", "eps": -1}`},
		{"unknown field", `{"qasm": "OPENQASM 2.0;\nqreg q[1];", "qubits": 3}`},
		{"not json", `qasm?`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, _, eb := postJob(t, ts.URL, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d", resp.StatusCode)
			}
			if eb.Kind != engine.KindInvalidRequest {
				t.Fatalf("kind = %q (%+v)", eb.Kind, eb)
			}
		})
	}
}

func TestQubitCap(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxQubits: 4})
	resp, _, eb := postJob(t, ts.URL, fmt.Sprintf(`{"qasm": %q}`, ghzQASM(5)))
	if resp.StatusCode != http.StatusBadRequest || eb.Kind != engine.KindInvalidRequest {
		t.Fatalf("resp = %d %+v", resp.StatusCode, eb)
	}
}

func TestDDIOAndStatsOutputs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, view, _ := postJob(t, ts.URL, fmt.Sprintf(`{"qasm": %q, "output": "ddio", "wait": true}`, ghzQASM(3)))
	if resp.StatusCode != http.StatusOK || view.Result == nil {
		t.Fatalf("ddio job failed: %d %+v", resp.StatusCode, view)
	}
	if !strings.HasPrefix(view.Result.DDIO, "qmdd v1 qomega 3\n") {
		t.Fatalf("ddio output = %q", view.Result.DDIO)
	}
	if len(view.Result.Amplitudes) != 0 {
		t.Fatal("ddio output must not carry amplitudes")
	}

	resp, view, _ = postJob(t, ts.URL, fmt.Sprintf(`{"qasm": %q, "output": "stats", "wait": true}`, ghzQASM(3)))
	if resp.StatusCode != http.StatusOK || view.Result == nil || view.Result.Stats == nil {
		t.Fatalf("stats job failed: %d %+v", resp.StatusCode, view)
	}
	if view.Result.Stats.UniqueLookups == 0 {
		t.Fatalf("stats look empty: %+v", view.Result.Stats)
	}
}

func TestTimeoutJob(t *testing.T) {
	cfg := Config{Workers: 1}
	// The hook runs after the per-job deadline starts ticking; sleeping past
	// it guarantees RunCtx sees an expired context at gate 0, making the
	// outcome deterministic even though the circuit itself is instant.
	cfg.hookRunning = func(*engine.Job) { time.Sleep(30 * time.Millisecond) }
	_, ts := newTestServer(t, cfg)
	body := fmt.Sprintf(`{"qasm": %q, "timeout_ms": 1, "wait": true}`, ghzQASM(4))
	resp, view, eb := postJob(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if view.Status != engine.StatusCancelled || eb.Kind != engine.KindTimeout {
		t.Fatalf("view = %+v, error = %+v; want cancelled/timeout", view, eb)
	}
}

// slowGSEQASM is a GSE circuit (4 phase bits, Solovay–Kitaev depth 2,
// 6439 Clifford+T gates) lowered to OpenQASM. Its exact simulation takes
// minutes, so any short timeout expires in the middle of the run.
func slowGSEQASM(t *testing.T) string {
	t.Helper()
	p := bench.DefaultParams()
	p.GSEPhaseBits, p.GSESKDepth = 4, 2
	c, err := bench.GSECircuit(p)
	if err != nil {
		t.Fatal(err)
	}
	return loweredQASM(t, c)
}

// loweredQASM lowers c to the OpenQASM a client would send.
func loweredQASM(tb testing.TB, c *circuit.Circuit) string {
	tb.Helper()
	low, err := load.Lower(c)
	if err != nil {
		tb.Fatal(err)
	}
	var sb strings.Builder
	if err := qasm.Write(&sb, low); err != nil {
		tb.Fatal(err)
	}
	return sb.String()
}

// requireTimedOut asserts a job that ran out of time is reported as a
// timeout on the wire, never as a budget refusal with a limit and peak.
func requireTimedOut(t *testing.T, body string) {
	t.Helper()
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, view, eb := postJob(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if view.Status != engine.StatusCancelled || eb.Kind != engine.KindTimeout {
		t.Fatalf("view = %+v, error = %+v; want cancelled/timeout", view, eb)
	}
	t.Log(eb.Message)
	if eb.Limit != "" || eb.Peak != nil {
		t.Fatalf("timeout carries budget fields: limit %q, peak %+v", eb.Limit, eb.Peak)
	}
}

// TestTimeoutMidRunGSE: a GSE job whose timeout_ms passes while a gate is
// being applied ends cancelled/timeout.
func TestTimeoutMidRunGSE(t *testing.T) {
	requireTimedOut(t, fmt.Sprintf(`{"qasm": %q, "timeout_ms": 200, "wait": true}`, slowGSEQASM(t)))
}

// TestTimeoutMidRunShots: the same for a dynamic circuit in shots mode,
// which replays the circuit per shot on the resimulate path.
func TestTimeoutMidRunShots(t *testing.T) {
	src := slowGSEQASM(t) + "creg m[1];\nmeasure q[0] -> m[0];\nif(m==1) x q[0];\n"
	requireTimedOut(t, fmt.Sprintf(`{"qasm": %q, "shots": 4, "seed": 1, "timeout_ms": 200, "wait": true}`, src))
}

func TestVersionHealthzMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	var v struct {
		Name    string `json:"name"`
		Version string `json:"version"`
		Go      string `json:"go"`
	}
	if r := getJSON(t, ts.URL+"/v1/version", &v); r.StatusCode != http.StatusOK {
		t.Fatalf("version status = %d", r.StatusCode)
	}
	if v.Name != "qmddd" || v.Go == "" {
		t.Fatalf("version = %+v", v)
	}

	var h struct {
		Status string `json:"status"`
	}
	if r := getJSON(t, ts.URL+"/healthz", &h); r.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", r.StatusCode)
	}
	if h.Status != "ok" {
		t.Fatalf("healthz = %+v", h)
	}
	var rb struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
	}
	if r := getJSON(t, ts.URL+"/readyz", &rb); r.StatusCode != http.StatusOK {
		t.Fatalf("readyz status = %d", r.StatusCode)
	}
	if rb.Status != "ready" || rb.Workers != 2 {
		t.Fatalf("readyz = %+v", rb)
	}

	// Run one job so worker metrics are populated, then scrape.
	if resp, _, _ := postJob(t, ts.URL, fmt.Sprintf(`{"qasm": %q, "wait": true}`, ghzQASM(3))); resp.StatusCode != http.StatusOK {
		t.Fatalf("job = %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"qmddd_jobs_started_total 1",
		"qmddd_jobs_completed_total 1",
		"qmddd_queue_depth 0",
		"qmddd_worker_busy_seconds_total{worker=",
		"qmddd_worker_peak_nodes{worker=",
		"qmddd_worker_ct_load{worker=",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type = %q", ct)
	}
}

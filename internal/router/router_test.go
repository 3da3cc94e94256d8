package router

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/httpx"
	"repro/internal/server"
)

const groverQASM = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
h q[0];
h q[1];
cz q[0], q[1];
h q[0];
h q[1];
x q[0];
x q[1];
cz q[0], q[1];
x q[0];
x q[1];
h q[0];
h q[1];
`

// stubWorker is a fake qmddd node: ready by default, counts submissions,
// answers them with a canned body.
type stubWorker struct {
	ts      *httptest.Server
	jobs    atomic.Uint64
	ready   atomic.Bool
	depth   atomic.Int64
	avgMS   atomic.Int64
	lastID  atomic.Value // string: last X-Request-Id seen on a submission
	lastTen atomic.Value // string: last X-Tenant seen
}

func newStubWorker(t *testing.T) *stubWorker {
	t.Helper()
	w := &stubWorker{}
	w.ready.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(rw http.ResponseWriter, _ *http.Request) {
		status := http.StatusOK
		if !w.ready.Load() {
			status = http.StatusServiceUnavailable
		}
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(status)
		fmt.Fprintf(rw, `{"status":"ready","workers":1,"queue_depth":%d,"queue_capacity":64,"avg_service_ms":%d}`,
			w.depth.Load(), w.avgMS.Load())
	})
	mux.HandleFunc("POST /v1/jobs", func(rw http.ResponseWriter, r *http.Request) {
		w.jobs.Add(1)
		w.lastID.Store(r.Header.Get(httpx.RequestIDHeader))
		w.lastTen.Store(r.Header.Get(TenantHeader))
		rw.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(rw, `{"id":"j-stub","status":"done"}`)
	})
	w.ts = httptest.NewServer(mux)
	t.Cleanup(w.ts.Close)
	return w
}

func newTestRouter(t *testing.T, cfg Config) (*Router, *httptest.Server) {
	t.Helper()
	// Slow background probing: tests drive the health table via ProbeNow so
	// assertions are deterministic.
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = time.Hour
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)
	return rt, ts
}

func submit(t *testing.T, url, qasmSrc string, hdr map[string]string) *http.Response {
	t.Helper()
	body, _ := json.Marshal(struct {
		QASM string `json:"qasm"`
		Wait bool   `json:"wait"`
	}{qasmSrc, true})
	req, _ := http.NewRequest("POST", url+"/v1/jobs", strings.NewReader(string(body)))
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// circuitQASM makes distinct small circuits so routing tests can spread keys
// over the ring: i%6 picks the h/cx pair and i/6 appends that many x gates,
// so every i gives a different circuit.
func circuitQASM(i int) string {
	return fmt.Sprintf("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[%d];\ncx q[0], q[%d];\n%s",
		i%3, 1+i%2, strings.Repeat("x q[2];\n", i/6))
}

// TestRoutingDeterminismAndAffinity: the same circuit always lands on the
// same worker (that's what makes the worker's cache warm), textual variants
// of one circuit land together, and distinct circuits use more than one
// worker.
func TestRoutingDeterminismAndAffinity(t *testing.T) {
	a, b := newStubWorker(t), newStubWorker(t)
	rt, ts := newTestRouter(t, Config{Workers: []string{a.ts.URL, b.ts.URL}})

	// Same circuit, five submissions: exactly one worker sees all five.
	for i := 0; i < 5; i++ {
		resp := submit(t, ts.URL, groverQASM, nil)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d = %d", i, resp.StatusCode)
		}
	}
	if a.jobs.Load() != 0 && b.jobs.Load() != 0 {
		t.Fatalf("one circuit split across workers: a=%d b=%d", a.jobs.Load(), b.jobs.Load())
	}
	if a.jobs.Load()+b.jobs.Load() != 5 {
		t.Fatalf("lost submissions: a=%d b=%d", a.jobs.Load(), b.jobs.Load())
	}

	// A whitespace/comment variant routes identically: the key is the
	// canonical fingerprint, not the text.
	variant := "// grover, reformatted\n" + strings.ReplaceAll(groverQASM, ", ", ",")
	if rt.OwnerOf(variant) != rt.OwnerOf(groverQASM) {
		t.Fatalf("textual variant routed to a different worker")
	}

	// Distinct circuits spread: over 32 circuits both workers own some.
	ownersSeen := map[string]bool{}
	for i := 0; i < 32; i++ {
		ownersSeen[rt.OwnerOf(circuitQASM(i))] = true
	}
	if len(ownersSeen) != 2 {
		t.Fatalf("32 distinct circuits all routed to one worker")
	}
}

// TestRerouteOnWorkerDeath: when the ring owner is dead, the submission is
// retried on the next owner transparently — the client sees one 200, the
// reroute counter records the detour, and the dead worker is marked unready
// so later submissions skip it without paying the timeout again.
func TestRerouteOnWorkerDeath(t *testing.T) {
	a, b := newStubWorker(t), newStubWorker(t)
	rt, ts := newTestRouter(t, Config{Workers: []string{a.ts.URL, b.ts.URL}})

	// Find a circuit owned by a specific worker, then kill that worker.
	src := ""
	for i := 0; i < 64; i++ {
		if rt.OwnerOf(circuitQASM(i)) == a.ts.URL {
			src = circuitQASM(i)
			break
		}
	}
	if src == "" {
		t.Fatal("no circuit owned by worker A in 64 tries")
	}
	a.ts.Close() // dies without a drain: connection refused

	resp := submit(t, ts.URL, src, nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit with dead owner = %d, want 200 via reroute", resp.StatusCode)
	}
	if got := b.jobs.Load(); got != 1 {
		t.Fatalf("survivor served %d jobs, want 1", got)
	}
	if got := rt.met.rerouted.Load(); got != 1 {
		t.Fatalf("rerouted = %d, want 1", got)
	}
	if rt.healthOf(a.ts.URL).Ready {
		t.Fatal("dead worker still marked ready after a failed forward")
	}

	// The next submission to the same key goes straight to the survivor: no
	// second detour is recorded.
	resp = submit(t, ts.URL, src, nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := rt.met.rerouted.Load(); got != 1 {
		t.Fatalf("second submit reroutes again (%d), dead worker not remembered", got)
	}
}

// TestDrainingWorkerRerouted: a 503 from a worker (draining) is a routing
// signal, not a client error — the job lands on the next owner.
func TestDrainingWorkerRerouted(t *testing.T) {
	b := newStubWorker(t)
	draining := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK) // stale: claims ready, then drains
			fmt.Fprint(w, `{"status":"ready"}`)
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":{"kind":"draining","message":"shutting down"}}`)
	}))
	t.Cleanup(draining.Close)
	rt, ts := newTestRouter(t, Config{Workers: []string{draining.URL, b.ts.URL}})

	// Drive every key: whichever owner is picked, the answer must be 200.
	for i := 0; i < 8; i++ {
		resp := submit(t, ts.URL, circuitQASM(i), nil)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d = %d, want 200 (draining owner must be skipped)", i, resp.StatusCode)
		}
	}
	if got := b.jobs.Load(); got != 8 {
		t.Fatalf("healthy worker served %d of 8", got)
	}
	_ = rt
}

// TestTenantAdmissionControl: a tenant over its token bucket gets 429 with a
// usable Retry-After; other tenants are unaffected; the bucket refills.
func TestTenantAdmissionControl(t *testing.T) {
	a := newStubWorker(t)
	_, ts := newTestRouter(t, Config{
		Workers:     []string{a.ts.URL},
		TenantRate:  5, // refills fast enough to test recovery
		TenantBurst: 2,
	})

	codes := []int{}
	for i := 0; i < 3; i++ {
		resp := submit(t, ts.URL, groverQASM, map[string]string{TenantHeader: "acme"})
		io.Copy(io.Discard, resp.Body)
		codes = append(codes, resp.StatusCode)
		if resp.StatusCode == http.StatusTooManyRequests {
			ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
			if err != nil || ra < 1 {
				t.Fatalf("429 Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
			}
			var envelope struct {
				Error struct {
					Kind string `json:"kind"`
				} `json:"error"`
			}
			// body already drained above; re-fetch kind via a fresh refusal
			resp2 := submit(t, ts.URL, groverQASM, map[string]string{TenantHeader: "acme"})
			json.NewDecoder(resp2.Body).Decode(&envelope)
			resp2.Body.Close()
			if envelope.Error.Kind != KindRateLimited {
				t.Fatalf("refusal kind = %q, want %q", envelope.Error.Kind, KindRateLimited)
			}
		}
		resp.Body.Close()
	}
	if codes[0] != http.StatusOK || codes[1] != http.StatusOK || codes[2] != http.StatusTooManyRequests {
		t.Fatalf("burst=2 codes = %v, want [200 200 429]", codes)
	}

	// A different tenant has its own bucket.
	resp := submit(t, ts.URL, groverQASM, map[string]string{TenantHeader: "globex"})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("independent tenant = %d, want 200", resp.StatusCode)
	}

	// The throttled tenant recovers once tokens refill (5/s → ≤400ms for 1).
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp := submit(t, ts.URL, groverQASM, map[string]string{TenantHeader: "acme"})
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("tenant bucket never refilled")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestQueueLatencyShedding: when the target worker's probed queue implies a
// wait beyond ShedLatency, the router refuses with 429 + Retry-After instead
// of burying the job in the queue.
func TestQueueLatencyShedding(t *testing.T) {
	a := newStubWorker(t)
	rt, ts := newTestRouter(t, Config{
		Workers:     []string{a.ts.URL},
		ShedLatency: 500 * time.Millisecond,
	})

	// Healthy: shallow queue, jobs flow.
	resp := submit(t, ts.URL, groverQASM, nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unloaded submit = %d", resp.StatusCode)
	}

	// The worker reports a deep queue: 50 × 100ms = 5s wait > 500ms shed.
	a.depth.Store(50)
	a.avgMS.Store(100)
	rt.ProbeNow()

	resp = submit(t, ts.URL, groverQASM, nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded submit = %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 5 {
		t.Fatalf("Retry-After = %q, want ≥5 (the estimated wait)", resp.Header.Get("Retry-After"))
	}
	var envelope struct {
		Error struct {
			Kind string `json:"kind"`
		} `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&envelope)
	if envelope.Error.Kind != KindOverloaded {
		t.Fatalf("refusal kind = %q, want %q", envelope.Error.Kind, KindOverloaded)
	}
	if got := a.jobs.Load(); got != 1 {
		t.Fatalf("worker saw %d jobs, want 1 (the shed job must not be forwarded)", got)
	}

	// Queue recedes → jobs flow again.
	a.depth.Store(0)
	rt.ProbeNow()
	resp = submit(t, ts.URL, groverQASM, nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered submit = %d", resp.StatusCode)
	}
}

// TestNoReadyWorkers: every worker down → 503 with kind no_worker, and
// /readyz on the router itself goes 503.
func TestNoReadyWorkers(t *testing.T) {
	a := newStubWorker(t)
	rt, ts := newTestRouter(t, Config{Workers: []string{a.ts.URL}})
	a.ready.Store(false)
	rt.ProbeNow()

	resp := submit(t, ts.URL, groverQASM, nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit with no ready workers = %d, want 503", resp.StatusCode)
	}
	var envelope struct {
		Error struct {
			Kind string `json:"kind"`
		} `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&envelope)
	if envelope.Error.Kind != KindNoWorker {
		t.Fatalf("kind = %q, want %q", envelope.Error.Kind, KindNoWorker)
	}

	rr, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, rr.Body)
	rr.Body.Close()
	if rr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("router readyz = %d, want 503", rr.StatusCode)
	}
}

// TestRequestIDPropagationEndToEnd: one X-Request-Id survives client →
// router → real worker → worker access log → response, and the tenant
// header rides along.
func TestRequestIDPropagationEndToEnd(t *testing.T) {
	logbuf := &strings.Builder{}
	logmu := &syncWriter{w: logbuf}
	backend, err := server.New(server.Config{Workers: 1, AccessLog: logmu})
	if err != nil {
		t.Fatal(err)
	}
	bts := httptest.NewServer(backend)
	t.Cleanup(func() { bts.Close(); backend.Shutdown(time.Second) })

	_, ts := newTestRouter(t, Config{Workers: []string{bts.URL}})

	resp := submit(t, ts.URL, groverQASM, map[string]string{httpx.RequestIDHeader: "r-e2e-99", TenantHeader: "acme"})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed submit = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(httpx.RequestIDHeader); got != "r-e2e-99" {
		t.Fatalf("response id = %q, want the forwarded one", got)
	}
	if got := resp.Header.Get(WorkerHeader); got != bts.URL {
		t.Fatalf("%s = %q, want %q", WorkerHeader, got, bts.URL)
	}
	logmu.mu.Lock()
	logs := logbuf.String()
	logmu.mu.Unlock()
	if !strings.Contains(logs, "request_id=r-e2e-99") {
		t.Fatalf("worker access log lost the request id:\n%s", logs)
	}
}

// TestJobPollScatter: a job submitted through the router (async) is found by
// polling the router, which holds no job state of its own.
func TestJobPollScatter(t *testing.T) {
	backend, err := server.New(server.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	bts := httptest.NewServer(backend)
	t.Cleanup(func() { bts.Close(); backend.Shutdown(time.Second) })
	_, ts := newTestRouter(t, Config{Workers: []string{bts.URL}})

	body, _ := json.Marshal(struct {
		QASM string `json:"qasm"`
	}{groverQASM})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var view struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if view.ID == "" {
		t.Fatal("no job id returned")
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + view.ID)
		if err != nil {
			t.Fatal(err)
		}
		var poll struct {
			Status string `json:"status"`
		}
		json.NewDecoder(resp.Body).Decode(&poll)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll = %d", resp.StatusCode)
		}
		if poll.Status == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Unknown ids are a clean 404 from the router.
	resp, err = http.Get(ts.URL + "/v1/jobs/j00000000000000")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id = %d, want 404", resp.StatusCode)
	}
}

// TestClusterAndMetricsEndpoints: /v1/cluster reports the membership with
// health, /metrics exposes qrouter_* families.
func TestClusterAndMetricsEndpoints(t *testing.T) {
	a := newStubWorker(t)
	_, ts := newTestRouter(t, Config{Workers: []string{a.ts.URL}})

	resp, err := http.Get(ts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	var cluster struct {
		Workers []WorkerHealth `json:"workers"`
	}
	json.NewDecoder(resp.Body).Decode(&cluster)
	resp.Body.Close()
	if len(cluster.Workers) != 1 || !cluster.Workers[0].Ready {
		t.Fatalf("cluster = %+v", cluster)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"qrouter_requests_total", "qrouter_routed_total", "qrouter_rerouted_total",
		"qrouter_shed_tenant_total", "qrouter_shed_latency_total", "qrouter_worker_ready",
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("metrics missing %s", want)
		}
	}
}

// syncWriter makes a strings.Builder safe for handler goroutines.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

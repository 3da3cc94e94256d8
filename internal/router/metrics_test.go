package router

import (
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestRouterMetricsGolden pins qrouter's /metrics exposition byte for byte,
// the per-worker families included.
func TestRouterMetricsGolden(t *testing.T) {
	// Nothing listens on these ports: the synchronous first probe fails
	// fast, and the health table is then set by hand.
	w1, w2 := "http://127.0.0.1:1", "http://127.0.0.1:2"
	rt, err := New(Config{Workers: []string{w2, w1}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.mu.Lock()
	rt.health[w1] = WorkerHealth{URL: w1, Ready: true, QueueDepth: 3}
	rt.health[w2] = WorkerHealth{URL: w2, QueueDepth: 0}
	rt.mu.Unlock()
	rt.met.requests.Add(12)
	rt.met.routed.Add(9)
	rt.met.rerouted.Add(2)
	rt.met.shedTenant.Add(1)
	rt.met.shedLatency.Add(1)
	rt.met.noWorker.Add(1)
	rt.met.proxyErrors.Add(3)
	rt.memo.Parse(groverQASM, "route")
	rt.memo.Parse(groverQASM, "route")
	rt.memo.Parse("not qasm", "route")
	ms := rt.memo.Stats()
	if ms.Hits != 1 || ms.Misses != 2 || ms.Entries != 1 {
		t.Fatalf("memo stats %+v, want 1 hit, 2 misses, 1 entry", ms)
	}

	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type %q", ct)
	}
	// The memo's byte gauge depends on the parsed circuit's accounting; it
	// is pinned through the memo's own figure, not a literal.
	want := strings.Replace(routerMetricsGolden, "MEMO_BYTES", strconv.FormatInt(ms.Bytes, 10), 1)
	if got := rec.Body.String(); got != want {
		t.Errorf("router /metrics exposition changed:\n%s", got)
	}
}

const routerMetricsGolden = `# HELP qrouter_requests_total Job submissions received.
# TYPE qrouter_requests_total counter
qrouter_requests_total 12
# HELP qrouter_routed_total Submissions proxied to a worker.
# TYPE qrouter_routed_total counter
qrouter_routed_total 9
# HELP qrouter_rerouted_total Submissions that skipped at least one failed or draining worker.
# TYPE qrouter_rerouted_total counter
qrouter_rerouted_total 2
# HELP qrouter_shed_tenant_total Submissions refused by per-tenant admission control.
# TYPE qrouter_shed_tenant_total counter
qrouter_shed_tenant_total 1
# HELP qrouter_shed_latency_total Submissions refused by queue-latency shedding.
# TYPE qrouter_shed_latency_total counter
qrouter_shed_latency_total 1
# HELP qrouter_no_worker_total Submissions refused with no usable worker.
# TYPE qrouter_no_worker_total counter
qrouter_no_worker_total 1
# HELP qrouter_proxy_errors_total Individual forward attempts that failed.
# TYPE qrouter_proxy_errors_total counter
qrouter_proxy_errors_total 3
# HELP qrouter_parse_memo_hits_total Submitted sources found in the parse memo (no parse, no fingerprint).
# TYPE qrouter_parse_memo_hits_total counter
qrouter_parse_memo_hits_total 1
# HELP qrouter_parse_memo_misses_total Submitted sources parsed because the parse memo did not hold them.
# TYPE qrouter_parse_memo_misses_total counter
qrouter_parse_memo_misses_total 2
# HELP qrouter_parse_memo_entries Parsed sources held by the parse memo.
# TYPE qrouter_parse_memo_entries gauge
qrouter_parse_memo_entries 1
# HELP qrouter_parse_memo_bytes Bytes accounted to the parse memo (bounded at parsememo.MaxBytes).
# TYPE qrouter_parse_memo_bytes gauge
qrouter_parse_memo_bytes MEMO_BYTES
# HELP qrouter_worker_ready Worker readiness at last probe.
# TYPE qrouter_worker_ready gauge
qrouter_worker_ready{worker="http://127.0.0.1:1"} 1
qrouter_worker_ready{worker="http://127.0.0.1:2"} 0
# HELP qrouter_worker_queue_depth Worker queue depth at last probe.
# TYPE qrouter_worker_queue_depth gauge
qrouter_worker_queue_depth{worker="http://127.0.0.1:1"} 3
qrouter_worker_queue_depth{worker="http://127.0.0.1:2"} 0
`

package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
)

// serveHTTP exposes an already-built Server over a test listener; shutdown
// stays with the caller (restart tests need to control it).
func serveHTTP(t *testing.T, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts.URL
}

// postRaw submits a job and returns the status code, the raw response body,
// and the "result" member's exact bytes (nil when absent) — the byte-level
// view the cache tests compare.
func postRaw(t *testing.T, url, body string) (int, []byte, json.RawMessage, engine.JobView) {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var view engine.JobView
	if err := json.Unmarshal(raw, &view); err != nil {
		t.Fatalf("decoding response (%d): %v\n%s", resp.StatusCode, err, raw)
	}
	var fields struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw, fields.Result, view
}

// TestCacheByteIdenticalReplay: resubmitting an identical alg job is served
// from the cache with "cached": true and a result envelope byte-identical to
// the first run's — the acceptance bar exactness buys us.
func TestCacheByteIdenticalReplay(t *testing.T) {
	// CheckpointEvery -1 keeps prefix checkpoints out of the store/miss
	// counters this test pins exactly (the subsystem has its own tests).
	s, ts := newTestServer(t, Config{Workers: 2, CacheBytes: 1 << 20, CheckpointEvery: -1})
	body := fmt.Sprintf(`{"qasm": %q, "wait": true}`, groverQASM)

	code, _, res1, view1 := postRaw(t, ts.URL, body)
	if code != http.StatusOK || view1.Status != engine.StatusDone {
		t.Fatalf("first run: %d %+v", code, view1)
	}
	if view1.Cached {
		t.Fatal("first run claims to be cached")
	}

	// Whitespace, comments and register names differ; the canonical circuit
	// does not — same cache key.
	variant := strings.ReplaceAll(groverQASM, "q[", "work[")
	variant = strings.Replace(variant, "qreg work[2];", "// renamed\nqreg work[2];", 1)
	code, _, res2, view2 := postRaw(t, ts.URL, fmt.Sprintf(`{"qasm": %q, "wait": true}`, variant))
	if code != http.StatusOK || view2.Status != engine.StatusDone {
		t.Fatalf("replay: %d %+v", code, view2)
	}
	if !view2.Cached {
		t.Fatal("replay was not served from the cache")
	}
	if !bytes.Equal(res1, res2) {
		t.Fatalf("cached envelope differs from the original:\n%s\nvs\n%s", res1, res2)
	}
	if st := s.eng.CacheStats(); st.Hits != 1 || st.Stores != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit / 1 store", st)
	}

	// A different output selection is a different key: no false hit.
	_, _, _, view3 := postRaw(t, ts.URL, fmt.Sprintf(`{"qasm": %q, "wait": true, "output": "stats"}`, groverQASM))
	if view3.Cached {
		t.Fatal("output=stats served the amplitudes entry")
	}

	// Defaulted and explicit norm share a key (canonicalized at validate).
	_, _, _, view4 := postRaw(t, ts.URL, fmt.Sprintf(`{"qasm": %q, "wait": true, "norm": "left"}`, groverQASM))
	if !view4.Cached {
		t.Fatal(`explicit norm "left" missed the defaulted-norm entry`)
	}
}

// TestConcurrentIdenticalSubmissions is the singleflight regression (run
// under -race by the CI stress job): N concurrent identical wait:true
// submissions must run the simulation exactly once — one leader computes,
// followers mirror its bytes, latecomers hit the cache.
func TestConcurrentIdenticalSubmissions(t *testing.T) {
	var runs atomic.Int32
	cfg := Config{Workers: 4, CacheBytes: 1 << 20}
	cfg.hookRunning = func(*engine.Job) { runs.Add(1) }
	s, ts := newTestServer(t, cfg)

	const clients = 16
	body := fmt.Sprintf(`{"qasm": %q, "wait": true}`, groverQASM)
	envelopes := make([]json.RawMessage, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, _, res, view := postRaw(t, ts.URL, body)
			if code != http.StatusOK || view.Status != engine.StatusDone {
				t.Errorf("client %d: %d %+v", i, code, view.Error)
				return
			}
			envelopes[i] = res
		}(i)
	}
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("simulation ran %d times for %d identical submissions, want exactly 1", got, clients)
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(envelopes[0], envelopes[i]) {
			t.Fatalf("client %d received a different envelope", i)
		}
	}
	st := s.eng.CacheStats()
	deduped := s.eng.Deduped()
	if int(deduped)+int(st.Hits)+1 != clients {
		t.Fatalf("accounting: 1 run + %d deduped + %d cache hits != %d clients", deduped, st.Hits, clients)
	}
}

// TestFailedJobsNotCached: a budget refusal must not poison the cache — the
// same circuit under a workable budget runs and succeeds.
func TestFailedJobsNotCached(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, CacheBytes: 1 << 20, CheckpointEvery: -1})
	body := fmt.Sprintf(`{"qasm": %q, "wait": true, "max_nodes": 1}`, ghzQASM(6))
	_, view, _ := postJob(t, ts.URL, body)
	if view.Status != engine.StatusFailed || view.Error == nil || view.Error.Kind != engine.KindBudgetExceeded {
		t.Fatalf("tiny budget: %+v", view)
	}
	if st := s.eng.CacheStats(); st.Stores != 0 {
		t.Fatalf("failure was cached: %+v", st)
	}

	_, view, _ = postJob(t, ts.URL, fmt.Sprintf(`{"qasm": %q, "wait": true}`, ghzQASM(6)))
	if view.Status != engine.StatusDone || view.Cached {
		t.Fatalf("unbudgeted rerun: %+v", view)
	}
	if st := s.eng.CacheStats(); st.Stores != 1 {
		t.Fatalf("success was not cached: %+v", st)
	}
}

// TestDiskTierSurvivesRestart: a result cached to disk is served — flagged
// cached, byte-identical — by a fresh Server over the same directory.
func TestDiskTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	body := fmt.Sprintf(`{"qasm": %q, "wait": true, "output": "ddio"}`, groverQASM)

	s1, err := New(Config{Workers: 1, CacheBytes: 1 << 20, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := serveHTTP(t, s1)
	code, _, res1, view := postRaw(t, ts1, body)
	if code != http.StatusOK || view.Status != engine.StatusDone {
		t.Fatalf("first run: %d %+v", code, view)
	}
	s1.Shutdown(10 * time.Second)

	// Restarted daemon, cold memory tier: the hit comes off disk.
	s2, err := New(Config{Workers: 1, CacheBytes: 1 << 20, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := serveHTTP(t, s2)
	code, _, res2, view := postRaw(t, ts2, body)
	if code != http.StatusOK || !view.Cached {
		t.Fatalf("after restart: %d cached=%v %+v", code, view.Cached, view.Error)
	}
	if !bytes.Equal(res1, res2) {
		t.Fatal("disk-replayed envelope differs from the original")
	}
	if st := s2.eng.CacheStats(); st.DiskHits != 1 {
		t.Fatalf("stats after restart hit: %+v", st)
	}
	s2.Shutdown(10 * time.Second)
}

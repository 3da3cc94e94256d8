package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

// TestGracefulDrain: accepted jobs finish during Shutdown, new submissions
// are refused with 503, and healthz flips to draining.
func TestGracefulDrain(t *testing.T) {
	s, err := New(Config{Workers: 2, QueueSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	var ids []string
	for i := 0; i < 6; i++ {
		resp, view, _ := postJob(t, ts.URL, fmt.Sprintf(`{"qasm": %q}`, ghzQASM(3+i%3)))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = %d", i, resp.StatusCode)
		}
		ids = append(ids, view.ID)
	}

	done := make(chan struct{})
	go func() { s.Shutdown(10 * time.Second); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("Shutdown did not return")
	}

	// Every accepted job drained to completion.
	for _, id := range ids {
		var v engine.JobView
		if r := getJSON(t, ts.URL+"/v1/jobs/"+id, &v); r.StatusCode != http.StatusOK {
			t.Fatalf("poll %s = %d", id, r.StatusCode)
		}
		if v.Status != engine.StatusDone {
			t.Fatalf("job %s drained to %q, want done (error: %+v)", id, v.Status, v.Error)
		}
	}

	// Intake is closed: submissions answer 503 shutting_down.
	resp, _, eb := postJob(t, ts.URL, fmt.Sprintf(`{"qasm": %q}`, ghzQASM(2)))
	if resp.StatusCode != http.StatusServiceUnavailable || eb.Kind != engine.KindShuttingDown {
		t.Fatalf("post-shutdown submit = %d %+v", resp.StatusCode, eb)
	}

	// Liveness vs readiness while draining: the process is still alive —
	// serving polls for drained jobs — so /healthz stays 200 (a restart
	// here would lose the drain); /readyz answers 503 so routers stop
	// sending new work.
	var h struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
	}
	if r := getJSON(t, ts.URL+"/healthz", &h); r.StatusCode != http.StatusOK {
		t.Fatalf("healthz during drain = %d, want 200 (live)", r.StatusCode)
	}
	if !h.Draining {
		t.Fatalf("healthz body during drain = %+v, want draining=true", h)
	}
	var rb struct {
		Status string `json:"status"`
	}
	if r := getJSON(t, ts.URL+"/readyz", &rb); r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain = %d, want 503 (unready)", r.StatusCode)
	}
	if rb.Status != "draining" {
		t.Fatalf("readyz body during drain = %+v, want status=draining", rb)
	}
}

// TestDrainDeadlineCancelsInFlight: a job still running at the drain deadline
// is cancelled cooperatively through the governor — Shutdown still returns,
// and the job lands in status cancelled rather than hanging or vanishing.
func TestDrainDeadlineCancelsInFlight(t *testing.T) {
	cfg := Config{Workers: 1, QueueSize: 4}
	release := make(chan struct{})
	entered := make(chan struct{}, 4)
	cfg.hookRunning = func(*engine.Job) { entered <- struct{}{}; <-release }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	// First job blocks in the hook (in flight); second waits in the queue.
	// Distinct circuits: an identical one would be deduplicated onto the
	// first, and this test is about the queued path.
	_, inflight, _ := postJob(t, ts.URL, fmt.Sprintf(`{"qasm": %q}`, ghzQASM(3)))
	<-entered
	_, queued, _ := postJob(t, ts.URL, fmt.Sprintf(`{"qasm": %q}`, ghzQASM(4)))

	done := make(chan struct{})
	go func() { s.Shutdown(20 * time.Millisecond); close(done) }()
	// Wait for the drain deadline to trip the run context, then let the
	// stuck worker proceed into the now-cancelled run.
	<-s.eng.DrainContext().Done()
	close(release)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return after cancelling in-flight work")
	}

	var v engine.JobView
	getJSON(t, ts.URL+"/v1/jobs/"+inflight.ID, &v)
	if v.Status != engine.StatusCancelled || v.Error == nil || v.Error.Kind != engine.KindCancelled {
		t.Fatalf("in-flight job = %q %+v, want cancelled", v.Status, v.Error)
	}
	getJSON(t, ts.URL+"/v1/jobs/"+queued.ID, &v)
	if v.Status != engine.StatusCancelled || v.Error == nil || v.Error.Kind != engine.KindCancelled {
		t.Fatalf("queued job = %q %+v, want cancelled", v.Status, v.Error)
	}
	if v.Error.Message == "" || !strings.Contains(v.Error.Message, "shut down") {
		t.Fatalf("queued job error = %+v, want the before-start message", v.Error)
	}
}

// TestShutdownIdempotent: calling Shutdown twice is safe (the second call
// returns immediately).
func TestShutdownIdempotent(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Shutdown(time.Second)
	donee := make(chan struct{})
	go func() { s.Shutdown(time.Second); close(donee) }()
	select {
	case <-donee:
	case <-time.After(5 * time.Second):
		t.Fatal("second Shutdown hung")
	}
}

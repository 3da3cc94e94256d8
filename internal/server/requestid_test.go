package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/httpx"
)

// syncBuffer is a goroutine-safe log sink (the server writes access-log
// lines from handler goroutines).
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (sb *syncBuffer) Write(p []byte) (int, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.Write(p)
}

func (sb *syncBuffer) String() string {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.String()
}

// TestRequestIDLifecycle: a forwarded X-Request-Id is adopted and echoed; a
// missing or invalid one is replaced with a generated id; error envelopes
// embed the id; and the access log carries the same id — one identifier
// joins the client's view, the envelope, and the log line.
func TestRequestIDLifecycle(t *testing.T) {
	logbuf := &syncBuffer{}
	s, err := New(Config{Workers: 1, AccessLog: logbuf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Shutdown(time.Second) })

	// Forwarded id: adopted verbatim.
	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set(httpx.RequestIDHeader, "r-forwarded-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(httpx.RequestIDHeader); got != "r-forwarded-42" {
		t.Fatalf("forwarded id not echoed: %q", got)
	}

	// Missing id: one is generated.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	gen := resp.Header.Get(httpx.RequestIDHeader)
	if gen == "" || !strings.HasPrefix(gen, "r") {
		t.Fatalf("no generated id: %q", gen)
	}

	// Invalid (header-splitting) id: replaced, not propagated.
	req, _ = http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header["X-Request-Id"] = []string{"bad id with spaces"}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(httpx.RequestIDHeader); got == "bad id with spaces" || got == "" {
		t.Fatalf("invalid id propagated: %q", got)
	}

	// Error envelopes carry the exchange's id.
	req, _ = http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(`{"qasm": ""}`))
	req.Header.Set(httpx.RequestIDHeader, "r-err-7")
	req.Header.Set("Content-Type", "application/json")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var envelope struct {
		Error engine.ErrorBody `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || envelope.Error.RequestID != "r-err-7" {
		t.Fatalf("error envelope = %d %+v, want request_id r-err-7", resp.StatusCode, envelope.Error)
	}

	// The access log has one line per exchange, keyed by the same ids.
	logs := logbuf.String()
	for _, want := range []string{
		"request_id=r-forwarded-42", "request_id=" + gen, "request_id=r-err-7",
		"method=POST", "path=/v1/jobs", "status=400",
	} {
		if !strings.Contains(logs, want) {
			t.Errorf("access log missing %q:\n%s", want, logs)
		}
	}
}

// TestRequestIDOnSubmitSuccess: a successful submission also echoes the id
// (the header is set before the handler runs, on every route).
func TestRequestIDOnSubmitSuccess(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body := fmt.Sprintf(`{"qasm": %q, "wait": true}`, groverQASM)
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(body))
	req.Header.Set(httpx.RequestIDHeader, "r-ok-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get(httpx.RequestIDHeader) != "r-ok-1" {
		t.Fatalf("submit = %d, id %q", resp.StatusCode, resp.Header.Get(httpx.RequestIDHeader))
	}
}

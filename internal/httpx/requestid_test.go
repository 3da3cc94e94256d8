package httpx

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestAccessLogOneLinePerRequest: a percent-encoded newline in the path must
// not split the access-log line — the decoded path would let a client forge
// a second logfmt record.
func TestAccessLogOneLinePerRequest(t *testing.T) {
	var logw bytes.Buffer
	h := WithRequestID(&logw, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
	}))
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/x%0Atime=forged%20status=200", nil)
	if !strings.Contains(req.URL.Path, "\n") {
		t.Fatal("the decoded path is supposed to carry the newline")
	}
	h.ServeHTTP(httptest.NewRecorder(), req)

	lines := strings.Split(strings.TrimSuffix(logw.String(), "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("one request wrote %d log lines:\n%s", len(lines), logw.String())
	}
	if !strings.Contains(lines[0], " path=/v1/jobs/x%0Atime=forged%20status=200 status=404 ") {
		t.Fatalf("log line does not carry the escaped path and the real status: %s", lines[0])
	}
}

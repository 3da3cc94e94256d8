package httpx

import (
	"net/http/httptest"
	"strings"
	"testing"
)

// TestExposition pins the Prometheus text helpers: HELP/TYPE framing,
// %v sample values, and label quoting.
func TestExposition(t *testing.T) {
	var sb strings.Builder
	Counter(&sb, "a_total", "As seen.", uint64(3))
	Gauge(&sb, "b", "A ratio.", 0.25)
	LabelledFamily(&sb, "c", "gauge", "Per worker.", "worker", []Labelled{
		{Label: "http://x:1", Value: 1},
		{Label: `q"t`, Value: "0.500000"},
	})
	want := `# HELP a_total As seen.
# TYPE a_total counter
a_total 3
# HELP b A ratio.
# TYPE b gauge
b 0.25
# HELP c Per worker.
# TYPE c gauge
c{worker="http://x:1"} 1
c{worker="q\"t"} 0.500000
`
	if got := sb.String(); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// TestWriteJSON pins the reply encoding: status, content type, two-space
// indentation and a trailing newline.
func TestWriteJSON(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, 418, struct {
		A int `json:"a"`
	}{7})
	if rec.Code != 418 || rec.Header().Get("Content-Type") != "application/json" {
		t.Errorf("status %d, Content-Type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	if got := rec.Body.String(); got != "{\n  \"a\": 7\n}\n" {
		t.Errorf("body %q", got)
	}
}

package httpx

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// The bytes both tiers originate: JSON replies, and the Prometheus text
// exposition (format 0.0.4, stdlib only) every /metrics family qmddd and
// qrouter serve is written through, so the HELP/TYPE framing and the sample
// syntax are decided in one place.

// WriteJSON answers with status and v as indented JSON: the one encoder of
// every JSON reply either tier originates.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// MetricsContentType is the Content-Type of a /metrics reply.
const MetricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// Family writes the # HELP and # TYPE lines that open a metric family; typ
// is counter, gauge or histogram.
func Family(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one sample line. labels is "" or a set rendered by Label;
// v prints with %v: integers in decimal, float64 as %g, and a string
// verbatim (for a fixed-precision float).
func Sample(w io.Writer, name, labels string, v any) {
	fmt.Fprintf(w, "%s%s %v\n", name, labels, v)
}

// Label renders the one-label set {key="value"}.
func Label(key, value string) string {
	return "{" + key + "=" + strconv.Quote(value) + "}"
}

// Counter writes a counter family with its single unlabelled sample.
func Counter(w io.Writer, name, help string, v any) {
	Family(w, name, "counter", help)
	Sample(w, name, "", v)
}

// Gauge writes a gauge family with its single unlabelled sample.
func Gauge(w io.Writer, name, help string, v any) {
	Family(w, name, "gauge", help)
	Sample(w, name, "", v)
}

// Labelled is one sample of a family keyed by a single label.
type Labelled struct {
	Label string // the label's value
	Value any
}

// LabelledFamily writes a family whose samples each carry key="Label".
func LabelledFamily(w io.Writer, name, typ, help, key string, samples []Labelled) {
	Family(w, name, typ, help)
	for _, s := range samples {
		Sample(w, name, Label(key, s.Label), s.Value)
	}
}

package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent is the id of the span that
// caused it (0 for a root); spans of one request share RID.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	Name   string    `json:"name"`
	RID    string    `json:"rid"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its id.
func (t *tracer) begin(name, rid string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, RID: rid, Start: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (for example
// the engine's queued/started/finished stamps on a job view).
func (t *tracer) add(name, rid string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, RID: rid, Start: start, End: end})
	return id
}

// find returns the id of the first span with this name and request id.
func (t *tracer) find(name, rid string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if t.spans[i].Name == name && t.spans[i].RID == rid {
			return t.spans[i].ID
		}
	}
	return 0
}

// setParent links span id under parent after the fact: spans recorded on
// different goroutines (a handler and its client) are joined by request id.
func (t *tracer) setParent(id, parent int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Parent = parent
	t.mu.Unlock()
}

// layerTime is the total and self time of all spans of one name.
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// times returns, per span name, the duration and the self time of every
// closed span of that name. Self time is the duration minus the part of the
// span's interval its children cover.
func (t *tracer) times() (total, self map[string][]time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 && !s.End.IsZero() {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	total, self = make(map[string][]time.Duration), make(map[string][]time.Duration)
	for _, s := range t.spans {
		if !s.End.IsZero() {
			d := s.End.Sub(s.Start)
			total[s.Name] = append(total[s.Name], d)
			self[s.Name] = append(self[s.Name], d-covered(s, children[s.ID]))
		}
	}
	return total, self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
	var total time.Duration
	var curS, curE time.Time
	open := false
	for _, k := range kids {
		s, e := k.Start, k.End
		if s.Before(parent.Start) {
			s = parent.Start
		}
		if e.After(parent.End) {
			e = parent.End
		}
		if !e.After(s) {
			continue
		}
		if open && !s.After(curE) {
			if e.After(curE) {
				curE = e
			}
			continue
		}
		if open {
			total += curE.Sub(curS)
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE.Sub(curS)
	}
	return total
}

// layers sums count, total and self time per span name.
func (t *tracer) layers() []layerTime {
	total, self := t.times()
	out := make([]layerTime, 0, len(total))
	for name, ds := range total {
		l := layerTime{Name: name, Count: len(ds)}
		for i, d := range ds {
			l.TotalMS += ms(d)
			l.SelfMS += ms(self[name][i])
		}
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// write stores the spans, one JSON object per line, followed by a summary
// line holding the per-layer self times and any extra fields.
func (t *tracer) write(path string, summary map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	summary["layers"] = t.layers()
	if err := enc.Encode(map[string]any{"summary": summary}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

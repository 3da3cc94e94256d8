package server

import (
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
)

// teleportQASM teleports X|0⟩ = |1⟩ from q0 to q2 via mid-circuit
// measurement and classical feedback, then reads out the destination into
// c2. Every histogram key must therefore start with '1' (c2 is the MSB of
// the 3-bit creg key).
const teleportQASM = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c0[1];
creg c1[1];
creg c2[1];
x q[0];
h q[1];
cx q[1],q[2];
cx q[0],q[1];
h q[0];
measure q[0] -> c0[0];
measure q[1] -> c1[0];
if(c1==1) x q[2];
if(c0==1) z q[2];
measure q[2] -> c2[0];
`

// TestShotsTeleportation is the acceptance-criteria check: a dynamic
// circuit submitted in shots mode returns a correct deterministic
// histogram through POST /v1/jobs.
func TestShotsTeleportation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, CacheBytes: 1 << 20})
	body := fmt.Sprintf(`{"qasm": %q, "shots": 256, "seed": 7, "wait": true}`, teleportQASM)
	resp, view, _ := postJob(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if view.Status != engine.StatusDone || view.Result == nil {
		t.Fatalf("job not done: %+v", view)
	}
	r := view.Result
	if r.Strategy != "resimulate" || r.Shots != 256 || r.Seed != 7 {
		t.Fatalf("strategy/shots/seed = %q/%d/%d", r.Strategy, r.Shots, r.Seed)
	}
	total := 0
	for key, n := range r.Histogram {
		if len(key) != 3 || !strings.HasPrefix(key, "1") {
			t.Errorf("key %q: teleported qubit must read 1", key)
		}
		total += n
	}
	if total != 256 {
		t.Fatalf("histogram sums to %d, want 256", total)
	}

	// Same request again: the seeded histogram is cacheable, so the second
	// submission is served without a run and is byte-identical.
	resp2, view2, _ := postJob(t, ts.URL, body)
	if resp2.StatusCode != http.StatusOK || view2.Status != engine.StatusDone {
		t.Fatalf("resubmission: %d %+v", resp2.StatusCode, view2)
	}
	if !view2.Cached {
		t.Error("seeded shots job was not served from cache")
	}
	if !reflect.DeepEqual(view2.Result.Histogram, r.Histogram) {
		t.Errorf("cached histogram differs:\n%v\n%v", view2.Result.Histogram, r.Histogram)
	}

	// Different representation, same seed: the engine contract makes the
	// histogram identical (fresh run — repr is part of the cache key).
	bodyF := fmt.Sprintf(`{"qasm": %q, "shots": 256, "seed": 7, "representation": "float", "wait": true}`, teleportQASM)
	respF, viewF, _ := postJob(t, ts.URL, bodyF)
	if respF.StatusCode != http.StatusOK || viewF.Status != engine.StatusDone {
		t.Fatalf("float submission: %d %+v", respF.StatusCode, viewF)
	}
	if viewF.Cached {
		t.Error("float job unexpectedly hit the alg cache entry")
	}
	if !reflect.DeepEqual(viewF.Result.Histogram, r.Histogram) {
		t.Errorf("representations disagree:\nalg:   %v\nfloat: %v", r.Histogram, viewF.Result.Histogram)
	}
}

// TestShotsUnseeded: the server draws and echoes a seed, and the job never
// enters the cache.
func TestShotsUnseeded(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, CacheBytes: 1 << 20})
	body := fmt.Sprintf(`{"qasm": %q, "shots": 64, "wait": true}`, ghzQASM(2))
	_, view, _ := postJob(t, ts.URL, body)
	if view.Status != engine.StatusDone || view.Result == nil {
		t.Fatalf("job not done: %+v", view)
	}
	if view.Result.Seed == 0 {
		t.Error("unseeded job did not echo a drawn seed")
	}
	if view.Result.Strategy != "sample" {
		t.Errorf("static circuit ran %q, want sample", view.Result.Strategy)
	}
	_, view2, _ := postJob(t, ts.URL, body)
	if view2.Cached {
		t.Error("unseeded shots job was served from cache")
	}
}

// TestShotsCached: a seeded static-circuit histogram round-trips through
// the real cache tier (the teleportation test covers singleflight-level
// dedup; this one forces the memory tier).
func TestShotsCached(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, CacheBytes: 1 << 20})
	body := fmt.Sprintf(`{"qasm": %q, "shots": 100, "seed": 3, "wait": true}`, ghzQASM(3))
	_, view, _ := postJob(t, ts.URL, body)
	if view.Status != engine.StatusDone {
		t.Fatalf("job not done: %+v", view)
	}
	for key := range view.Result.Histogram {
		if key != "000" && key != "111" {
			t.Errorf("impossible GHZ outcome %q", key)
		}
	}
	_, view2, _ := postJob(t, ts.URL, body)
	if !view2.Cached || view2.Status != engine.StatusDone {
		t.Fatalf("resubmission not served from cache: %+v", view2)
	}
	if !reflect.DeepEqual(view2.Result.Histogram, view.Result.Histogram) {
		t.Errorf("cached histogram differs")
	}
	// A different seed is a different job.
	_, view3, _ := postJob(t, ts.URL, fmt.Sprintf(`{"qasm": %q, "shots": 100, "seed": 4, "wait": true}`, ghzQASM(3)))
	if view3.Cached {
		t.Error("different seed hit the cache")
	}
}

// TestShotsValidationHTTP covers the request-level error paths.
func TestShotsValidationHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxShots: 1000})
	cases := []struct {
		name, body, wantMsg string
	}{
		{"dynamic without shots",
			fmt.Sprintf(`{"qasm": %q}`, teleportQASM),
			"submit with shots"},
		{"negative shots",
			fmt.Sprintf(`{"qasm": %q, "shots": -1}`, ghzQASM(2)),
			"non-negative"},
		{"shots above cap",
			fmt.Sprintf(`{"qasm": %q, "shots": 1001}`, ghzQASM(2)),
			"server cap"},
		{"histogram without shots",
			fmt.Sprintf(`{"qasm": %q, "output": "histogram"}`, ghzQASM(2)),
			"requires shots"},
		{"shots with amplitudes output",
			fmt.Sprintf(`{"qasm": %q, "shots": 10, "output": "amplitudes"}`, ghzQASM(2)),
			"incompatible with shots"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, _, eb := postJob(t, ts.URL, tc.body)
			if resp.StatusCode != http.StatusBadRequest || eb.Kind != engine.KindInvalidRequest {
				t.Fatalf("status %d, kind %q", resp.StatusCode, eb.Kind)
			}
			if !strings.Contains(eb.Message, tc.wantMsg) {
				t.Errorf("message %q does not mention %q", eb.Message, tc.wantMsg)
			}
		})
	}
}

// TestAmplitudesStripReadout: a static circuit with a trailing measure
// block submitted for amplitudes shares its cache identity with the
// measure-free twin — the read-out is irrelevant to the state.
func TestAmplitudesStripReadout(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, CacheBytes: 1 << 20})
	_, view, _ := postJob(t, ts.URL, fmt.Sprintf(`{"qasm": %q, "wait": true}`, ghzQASM(2)))
	if view.Status != engine.StatusDone {
		t.Fatalf("job not done: %+v", view)
	}
	withReadout := ghzQASM(2) + "creg c[2];\nmeasure q -> c;\n"
	_, view2, _ := postJob(t, ts.URL, fmt.Sprintf(`{"qasm": %q, "wait": true}`, withReadout))
	if view2.Status != engine.StatusDone {
		t.Fatalf("read-out twin not done: %+v", view2)
	}
	if !view2.Cached {
		t.Error("trailing read-out block changed the amplitude-job cache identity")
	}
}

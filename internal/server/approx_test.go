package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/num"
	"repro/internal/qasm"
	"repro/internal/sim"
)

// clutterQASM is the server-side twin of the sim layer's clutter circuit: a
// dominant |0…0⟩ branch plus a generic low-mass tail that fills the diagram,
// so a node cap trips while a fidelity floor has cheap mass to shed.
func clutterQASM(n, layers int, seed int64) string {
	r := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	fmt.Fprintf(&sb, "OPENQASM 2.0;\nqreg q[%d];\n", n)
	for l := 0; l < layers; l++ {
		for q := 0; q < n; q++ {
			fmt.Fprintf(&sb, "ry(%.6f) q[%d];\n", 0.02+0.02*r.Float64(), q)
		}
		for q := 0; q+1 < n; q++ {
			fmt.Fprintf(&sb, "cx q[%d],q[%d];\n", q, q+1)
		}
	}
	return sb.String()
}

// clutterNodeDemand measures the unbudgeted unique-table demand of the
// circuit (monotone without pruning), to derive a cap that must trip.
func clutterNodeDemand(t *testing.T, src string) int {
	t.Helper()
	circ, err := qasm.Parse(src, "test")
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewManager[complex128](num.NewRing(0), core.NormLeft)
	s := sim.New(m, circ.N)
	if err := s.Run(circ, nil); err != nil {
		t.Fatal(err)
	}
	return m.Stats().UniqueNodes
}

// TestApproxFlipsBudgetExceeded is the end-to-end graceful-degradation
// story: under a node cap the job fails budget_exceeded; the same job with a
// min_fidelity floor completes approximately, with the retained fidelity
// stamped in the envelope.
func TestApproxFlipsBudgetExceeded(t *testing.T) {
	src := clutterQASM(10, 24, 11)
	cap := clutterNodeDemand(t, src) / 2
	if cap < 256 {
		t.Fatalf("circuit too small to pressure a budget: cap %d", cap)
	}
	_, ts := newTestServer(t, Config{Workers: 1})

	body := fmt.Sprintf(`{"qasm": %q, "representation": "float", "max_nodes": %d, "wait": true}`, src, cap)
	_, view, _ := postJob(t, ts.URL, body)
	if view.Status != engine.StatusFailed || view.Error == nil || view.Error.Kind != engine.KindBudgetExceeded {
		t.Fatalf("capped job without min_fidelity: %+v", view)
	}

	body = fmt.Sprintf(`{"qasm": %q, "representation": "float", "max_nodes": %d, "min_fidelity": 0.6, "wait": true}`, src, cap)
	_, view, _ = postJob(t, ts.URL, body)
	if view.Status != engine.StatusDone || view.Result == nil {
		t.Fatalf("capped job with min_fidelity did not complete: %+v", view)
	}
	r := view.Result
	if !r.Approximate || r.ApproxEvents < 1 {
		t.Fatalf("budget pressure left no approximation trace: %+v", r)
	}
	if r.Fidelity < 0.6 || r.Fidelity > 1 {
		t.Fatalf("stamped fidelity %v outside [0.6, 1]", r.Fidelity)
	}
	if r.FidelityExact {
		t.Fatal("float-representation fidelity flagged exact")
	}
	if len(r.Amplitudes) == 0 {
		t.Fatalf("approximate result lost its amplitudes: %+v", r)
	}

	// The approximation surface shows on /metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, want := range []string{"qmddd_approximated_jobs_total 1", "qmddd_approximations_total"} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
}

// TestApproxCacheKeys: an approximate result is cached under its own
// (floor, budget)-qualified key — a repeat of the same request hits it, while
// the exact request for the same circuit never sees it. A min_fidelity job
// that ran exactly (no budget pressure) shares the exact key both ways.
func TestApproxCacheKeys(t *testing.T) {
	src := clutterQASM(10, 24, 11)
	cap := clutterNodeDemand(t, src) / 2
	_, ts := newTestServer(t, Config{Workers: 1, CacheBytes: 1 << 20})

	approxBody := fmt.Sprintf(`{"qasm": %q, "representation": "float", "max_nodes": %d, "min_fidelity": 0.6, "wait": true}`, src, cap)
	_, first, _ := postJob(t, ts.URL, approxBody)
	if first.Status != engine.StatusDone || !first.Result.Approximate {
		t.Fatalf("approximate leader: %+v", first)
	}
	_, second, _ := postJob(t, ts.URL, approxBody)
	if !second.Cached {
		t.Fatalf("identical approximate request missed the cache: %+v", second)
	}
	if !sameEnvelope(t, second.Result, first.Result) {
		t.Fatalf("cached approximate envelope differs:\n%+v\n%+v", second.Result, first.Result)
	}

	// The exact request must not inherit the approximate envelope.
	exactBody := fmt.Sprintf(`{"qasm": %q, "representation": "float", "wait": true}`, src)
	_, exact, _ := postJob(t, ts.URL, exactBody)
	if exact.Status != engine.StatusDone || exact.Cached {
		t.Fatalf("exact request after approximate run: %+v", exact)
	}
	if exact.Result.Approximate || exact.Result.Fidelity != 0 {
		t.Fatalf("exact result carries approximation fields: %+v", exact.Result)
	}

	// A min_fidelity request with no budget pressure runs exactly and hits
	// the exact entry (stored by the run above) without simulating.
	easyBody := fmt.Sprintf(`{"qasm": %q, "representation": "float", "min_fidelity": 0.6, "wait": true}`, src)
	_, easy, _ := postJob(t, ts.URL, easyBody)
	if !easy.Cached {
		t.Fatalf("unpressured min_fidelity request missed the exact cache entry: %+v", easy)
	}
	if !sameEnvelope(t, easy.Result, exact.Result) {
		t.Fatalf("shared exact envelope differs:\n%+v\n%+v", easy.Result, exact.Result)
	}
}

// sameEnvelope compares two result envelopes by their canonical JSON bytes —
// the same form the cache stores and replays.
func sameEnvelope(t *testing.T, a, b *engine.JobResult) bool {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return string(ja) == string(jb)
}

// TestApproxValidation covers the request-surface rules: range checks, the
// shots conflict, and the server-side floor raising lax requests.
func TestApproxValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MinFidelityFloor: 0.8})
	for _, body := range []string{
		fmt.Sprintf(`{"qasm": %q, "min_fidelity": -0.1}`, ghzQASM(2)),
		fmt.Sprintf(`{"qasm": %q, "min_fidelity": 1.5}`, ghzQASM(2)),
		fmt.Sprintf(`{"qasm": %q, "min_fidelity": 0.9, "shots": 100}`, ghzQASM(2)),
	} {
		resp, _, eb := postJob(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest || eb.Kind != engine.KindInvalidRequest {
			t.Fatalf("body %s: status %d, error %+v", body, resp.StatusCode, eb)
		}
	}

	// Below the operator floor the request is raised, not refused: a capped
	// run asking for 0.01 still retains ≥ 0.8.
	src := clutterQASM(10, 24, 11)
	cap := clutterNodeDemand(t, src) / 2
	body := fmt.Sprintf(`{"qasm": %q, "representation": "float", "max_nodes": %d, "min_fidelity": 0.01, "wait": true}`, src, cap)
	_, view, _ := postJob(t, ts.URL, body)
	if view.Status != engine.StatusDone || !view.Result.Approximate {
		t.Fatalf("floored job: %+v", view)
	}
	if view.Result.Fidelity < 0.8 {
		t.Fatalf("operator floor not enforced: fidelity %v < 0.8", view.Result.Fidelity)
	}

	// min_fidelity 1 is exact semantics: accepted, never approximates.
	body = fmt.Sprintf(`{"qasm": %q, "min_fidelity": 1, "wait": true}`, ghzQASM(3))
	_, view, _ = postJob(t, ts.URL, body)
	if view.Status != engine.StatusDone || view.Result.Approximate {
		t.Fatalf("min_fidelity=1 job: %+v", view)
	}
}

package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/alg"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/ddio"
	"repro/internal/engine"
	"repro/internal/num"
	"repro/internal/qasm"
	"repro/internal/sim"
)

// baseline runs one circuit single-threaded on a fresh private manager and
// returns the amplitude list exactly as the server computes it, so the
// concurrency test can assert that a hammered pool returns byte-identical
// answers.
func baseline(t *testing.T, src, repr string) []engine.Amplitude {
	t.Helper()
	circ, err := qasm.Parse(src, "baseline")
	if err != nil {
		t.Fatal(err)
	}
	if repr == "alg" {
		m := core.NewManager[alg.Q](alg.Ring{}, core.NormLeft)
		return baselineTyped(t, m, ddio.AlgCodec{}, circ)
	}
	m := core.NewManager[complex128](num.NewRing(0), core.NormLeft)
	return baselineTyped(t, m, ddio.NumCodec{}, circ)
}

func baselineTyped[T any](t *testing.T, m *core.Manager[T], codec ddio.Codec[T], circ *circuit.Circuit) []engine.Amplitude {
	t.Helper()
	s := sim.New(m, circ.N)
	if err := s.RunCtx(context.Background(), circ, nil); err != nil {
		t.Fatal(err)
	}
	idxs, probs := m.TopOutcomes(s.State, circ.N, 16)
	out := make([]engine.Amplitude, 0, len(idxs))
	for i, idx := range idxs {
		amp := m.Amplitude(s.State, circ.N, idx)
		c := m.R.Complex128(amp)
		out = append(out, engine.Amplitude{
			Index: idx,
			State: fmt.Sprintf("%0*b", circ.N, idx),
			Re:    real(c),
			Im:    imag(c),
			Prob:  probs[i],
			Exact: codec.Encode(amp),
		})
	}
	return out
}

// TestConcurrentMixedLoad hammers the queue from K goroutines with a mix of
// circuits and representations and asserts every result matches the
// single-threaded baseline: worker-private managers must not leak any state
// between jobs or across goroutines (run with -race).
func TestConcurrentMixedLoad(t *testing.T) {
	type workload struct {
		qasmSrc string
		repr    string
	}
	loads := []workload{
		{groverQASM, "alg"},
		{groverQASM, "float"},
		{ghzQASM(3), "alg"},
		{ghzQASM(3), "float"},
		{ghzQASM(6), "alg"},
		{ghzQASM(6), "float"},
	}
	want := make([][]engine.Amplitude, len(loads))
	for i, l := range loads {
		want[i] = baseline(t, l.qasmSrc, l.repr)
	}

	_, ts := newTestServer(t, Config{Workers: 4, QueueSize: 64})

	const K = 8          // concurrent clients
	const perClient = 12 // jobs per client, cycling through the workloads
	var wg sync.WaitGroup
	errs := make(chan error, K*perClient)
	for k := 0; k < K; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for n := 0; n < perClient; n++ {
				i := (k + n) % len(loads)
				l := loads[i]
				body := fmt.Sprintf(`{"qasm": %q, "representation": %q, "wait": true}`, l.qasmSrc, l.repr)
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var view engine.JobView
				err = json.NewDecoder(resp.Body).Decode(&view)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK || view.Status != engine.StatusDone || view.Result == nil {
					errs <- fmt.Errorf("client %d job %d: status %d/%q (%+v)", k, n, resp.StatusCode, view.Status, view.Error)
					return
				}
				if err := compareAmplitudes(view.Result.Amplitudes, want[i], l.repr); err != nil {
					errs <- fmt.Errorf("client %d job %d (%s): %w", k, n, l.repr, err)
					return
				}
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func compareAmplitudes(got, want []engine.Amplitude, repr string) error {
	if len(got) != len(want) {
		return fmt.Errorf("amplitude count %d, baseline %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Index != w.Index || g.State != w.State {
			return fmt.Errorf("outcome %d: got |%s⟩ (%d), baseline |%s⟩ (%d)", i, g.State, g.Index, w.State, w.Index)
		}
		if repr == "alg" && g.Exact != w.Exact {
			return fmt.Errorf("outcome %d: exact %q, baseline %q", i, g.Exact, w.Exact)
		}
		if math.Abs(g.Re-w.Re) > 1e-12 || math.Abs(g.Im-w.Im) > 1e-12 || math.Abs(g.Prob-w.Prob) > 1e-12 {
			return fmt.Errorf("outcome %d: amplitude (%g,%g|%g), baseline (%g,%g|%g)",
				i, g.Re, g.Im, g.Prob, w.Re, w.Im, w.Prob)
		}
	}
	return nil
}

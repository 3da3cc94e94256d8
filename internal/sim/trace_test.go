package sim

import (
	"errors"
	"math"
	"testing"

	"repro/internal/alg"
	"repro/internal/circuit"
	"repro/internal/core"
)

// rampCircuit is a GHZ ramp over n qubits and its inverse: the state size
// peaks after gate n, in the middle of the circuit.
func rampCircuit(n int) *circuit.Circuit {
	c := circuit.New("ramp", n)
	c.H(0)
	for q := 1; q < n; q++ {
		c.CX(q-1, q)
	}
	for q := n - 1; q >= 1; q-- {
		c.CX(q-1, q)
	}
	c.H(0)
	c.X(0)
	c.X(0)
	return c
}

// TestTraceMatchesPlainHook: the recorder's exact peak and sampled points
// equal a plain per-gate NodeCount/MaxWeightBitLen/Norm2 recomputation, in
// both representations; with Peak off, PeakNodes is the strided maximum.
func TestTraceMatchesPlainHook(t *testing.T) {
	c := rampCircuit(15)
	const stride = 2 // even gate counts only: the peak after gate 15 falls between samples
	t.Run("alg", func(t *testing.T) { testTraceMatches(t, algM(core.NormLeft), c, stride) })
	t.Run("float", func(t *testing.T) { testTraceMatches(t, numM(1e-12), c, stride) })
}

func testTraceMatches[T any](t *testing.T, m *core.Manager[T], c *circuit.Circuit, stride int) {
	// Ground truth: a plain hook recomputing every quantity at every gate.
	s := New(m, c.N)
	truePeak, stridedPeak := 0, 0
	var want []Point
	err := s.Run(c, func(i int, g circuit.Gate) bool {
		n := s.State.NodeCount()
		truePeak = max(truePeak, n)
		if (i+1)%stride == 0 || i == c.Len()-1 {
			stridedPeak = max(stridedPeak, n)
			want = append(want, Point{
				Gate:    i + 1,
				Nodes:   n,
				MaxBits: m.MaxWeightBitLen(s.State),
				Norm:    math.Sqrt(m.Norm2(s.State)),
			})
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if truePeak <= stridedPeak {
		t.Fatalf("circuit does not peak between samples (true %d, strided %d)", truePeak, stridedPeak)
	}
	for _, peak := range []bool{true, false} {
		s.Reset()
		tr := Trace[T]{Stride: stride, Peak: peak}
		if err := s.Run(c, tr.Hook(s, c)); err != nil {
			t.Fatal(err)
		}
		wantPeak := stridedPeak
		if peak {
			wantPeak = truePeak
		}
		if tr.PeakNodes != wantPeak || tr.Capped {
			t.Fatalf("Peak=%v: PeakNodes %d (capped %v), want %d", peak, tr.PeakNodes, tr.Capped, wantPeak)
		}
		if len(tr.Points) != len(want) {
			t.Fatalf("Peak=%v: %d points, want %d", peak, len(tr.Points), len(want))
		}
		for k, p := range tr.Points {
			p.CumSeconds = 0
			if p != want[k] {
				t.Fatalf("Peak=%v: point %d = %+v, want %+v", peak, k, p, want[k])
			}
		}
	}
}

// TestTracePeakCapStops: a state larger than PeakCap stops the run with
// ErrStopped at the first gate that exceeds it; the points up to that gate
// are still recorded.
func TestTracePeakCapStops(t *testing.T) {
	const stride, peakCap = 4, 5
	c := rampCircuit(15)
	s := New(algM(core.NormLeft), c.N)
	var sizes []int
	if err := s.Run(c, func(int, circuit.Gate) bool {
		sizes = append(sizes, s.State.NodeCount())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	stop := 0 // index of the first gate whose state exceeds the cap
	for sizes[stop] <= peakCap {
		stop++
	}

	s.Reset()
	var sampled []int
	tr := Trace[alg.Q]{Stride: stride, PeakCap: peakCap, OnSample: func(p Point) { sampled = append(sampled, p.Gate) }}
	if err := s.Run(c, tr.Hook(s, c)); !errors.Is(err, ErrStopped) {
		t.Fatalf("want ErrStopped, got %v", err)
	}
	if !tr.Capped || tr.PeakNodes != sizes[stop] {
		t.Fatalf("capped %v at peak %d, want capped at gate %d's %d nodes", tr.Capped, tr.PeakNodes, stop, sizes[stop])
	}
	if want := (stop + 1) / stride; len(tr.Points) != want || len(sampled) != want {
		t.Fatalf("%d points, OnSample saw %v; want %d before the cap at gate %d", len(tr.Points), sampled, want, stop)
	}
}

// TestTraceNonSampleGateAllocs: between sample points, without Peak or
// PeakCap, the recorder's hook does no work and allocates nothing.
func TestTraceNonSampleGateAllocs(t *testing.T) {
	c := rampCircuit(15)
	s := New(algM(core.NormLeft), c.N)
	tr := Trace[alg.Q]{Stride: 1 << 20}
	hook := tr.Hook(s, c)
	g := c.Gates[0]
	if allocs := testing.AllocsPerRun(100, func() { hook(0, g) }); allocs != 0 {
		t.Fatalf("non-sample gate: %v allocs, want 0", allocs)
	}
	if len(tr.Points) != 0 {
		t.Fatalf("non-sample gate recorded %d points", len(tr.Points))
	}
}

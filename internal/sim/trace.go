package sim

import (
	"math"
	"time"

	"repro/internal/circuit"
)

// Point is one sample of the per-gate series the paper plots (Figs. 3–5).
type Point struct {
	Gate       int     // number of gates applied so far
	Nodes      int     // QMDD size of the state
	CumSeconds float64 // simulation time since the hook was built
	MaxBits    int     // widest coefficient bit length (0 for float rings)
	Norm       float64 // ‖state‖₂ as seen by the representation
}

// Trace records a run's per-gate series through the simulator's gate hook:
// a Point every Stride gates and at the circuit's last gate. Between sample
// points the hook does no work unless Peak or PeakCap asks for the per-gate
// node count.
type Trace[T any] struct {
	Stride int // sample period in gates (< 1 means every gate)
	// Peak tracks the exact per-gate peak state size, at O(state size) per
	// gate; without it PeakNodes is the maximum over the sampled points,
	// which can miss a spike between two of them.
	Peak bool
	// PeakCap stops the run (ErrStopped, Capped set) as soon as the state
	// exceeds this many nodes; 0 = no cap. It implies Peak.
	PeakCap int
	// OnSample, when set, runs after each point is recorded, while the
	// simulator still holds the sampled state.
	OnSample func(Point)

	Points    []Point
	PeakNodes int
	Capped    bool
}

// Hook returns the gate hook that records c's run on s; pass it to s.RunCtx
// (or RunFromCtx). The sample clock starts when Hook is called.
func (t *Trace[T]) Hook(s *Simulator[T], c *circuit.Circuit) func(int, circuit.Gate) bool {
	stride, last := max(t.Stride, 1), c.Len()-1
	start := time.Now()
	return func(i int, _ circuit.Gate) bool {
		sample := (i+1)%stride == 0 || i == last
		if !sample && !t.Peak && t.PeakCap <= 0 {
			return true
		}
		nodes := s.State.NodeCount()
		t.PeakNodes = max(t.PeakNodes, nodes)
		if sample {
			p := Point{
				Gate:       i + 1,
				Nodes:      nodes,
				CumSeconds: time.Since(start).Seconds(),
				MaxBits:    s.M.MaxWeightBitLen(s.State),
				Norm:       math.Sqrt(s.M.Norm2(s.State)),
			}
			t.Points = append(t.Points, p)
			if t.OnSample != nil {
				t.OnSample(p)
			}
		}
		if t.PeakCap > 0 && nodes > t.PeakCap {
			t.Capped = true
			return false
		}
		return true
	}
}

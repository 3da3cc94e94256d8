package repro

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/alg"
	"repro/internal/algorithms"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/num"
	"repro/internal/sim"
)

// randomCliffordT returns a random n-qubit Clifford+T circuit of the given
// length — the gate set both representations support exactly, so any
// divergence between two managers is a table bug, never arithmetic.
func randomCliffordT(r *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New("random-clifford-t", n)
	for i := 0; i < gates; i++ {
		q := r.Intn(n)
		switch r.Intn(8) {
		case 0:
			c.H(q)
		case 1:
			c.X(q)
		case 2:
			c.Append(circuit.Gate{Name: "z", Target: q})
		case 3:
			c.S(q)
		case 4:
			c.T(q)
		case 5:
			c.Tdg(q)
		default:
			t := r.Intn(n - 1)
			if t >= q {
				t++
			}
			c.CX(q, t)
		}
	}
	return c
}

func runCircuit[T any](t *testing.T, m *core.Manager[T], c *circuit.Circuit) core.Edge[T] {
	t.Helper()
	s := sim.New(m, c.N)
	if err := s.Run(c, nil); err != nil {
		t.Fatal(err)
	}
	return s.State
}

// TestDifferentialComputeTableSizes: the same randomized circuits produce
// identical states (amplitudes and diagram size) in a manager with the
// default compute table and one with a pathologically small (64-slot,
// collision-heavy) table — memoization pressure must never change results.
// Repeating a circuit in the same manager must hit the unique table and
// return the identical root (RootsEqual).
func TestDifferentialComputeTableSizes(t *testing.T) {
	const n, gates = 5, 120
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		c := randomCliffordT(r, n, gates)

		mBig := core.NewManager[alg.Q](alg.Ring{}, core.NormLeft)
		mSmall := core.NewManager[alg.Q](alg.Ring{}, core.NormLeft, core.WithComputeTableSize(64))
		vBig := runCircuit(t, mBig, c)
		vSmall := runCircuit(t, mSmall, c)

		if a, b := vBig.NodeCount(), vSmall.NodeCount(); a != b {
			t.Fatalf("trial %d: node counts differ across CT sizes: %d vs %d", trial, a, b)
		}
		ampBig := mBig.ToVector(vBig, n)
		ampSmall := mSmall.ToVector(vSmall, n)
		for i := range ampBig {
			if !ampBig[i].Equal(ampSmall[i]) {
				t.Fatalf("trial %d amp %d: %v vs %v", trial, i, ampBig[i], ampSmall[i])
			}
		}

		// Same circuit, same manager: canonicity demands the identical root.
		if again := runCircuit(t, mBig, c); !mBig.RootsEqual(vBig, again) {
			t.Fatalf("trial %d: repeat run in one manager is not RootsEqual", trial)
		}

		// Cross-check the numeric representation against the exact one.
		mNum := core.NewManager[complex128](num.NewRing(0), core.NormMax)
		vNum := runCircuit(t, mNum, c)
		ampNum := mNum.ToVector(vNum, n)
		for i := range ampBig {
			exact := alg.Ring{}.Complex128(ampBig[i])
			if d := cmplxAbs(ampNum[i] - exact); d > 1e-9 {
				t.Fatalf("trial %d amp %d: numeric %v vs exact %v (|Δ|=%g)",
					trial, i, ampNum[i], exact, d)
			}
		}
	}
}

func cmplxAbs(z complex128) float64 {
	return math.Hypot(real(z), imag(z))
}

// BenchmarkGroverStep measures re-simulating a Grover circuit in a warm
// manager: the unique and compute tables already hold every node and
// memoized product, so this is the pure table-hit path the integer-keying
// rework optimizes.
func BenchmarkGroverStep(b *testing.B) {
	c := algorithms.Grover(6, 13, 3)
	b.Run("alg", func(b *testing.B) {
		m := core.NewManager[alg.Q](alg.Ring{}, core.NormLeft)
		s := sim.New(m, c.N)
		if err := s.Run(c, nil); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Reset()
			if err := s.Run(c, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("num", func(b *testing.B) {
		m := core.NewManager[complex128](num.NewRing(0), core.NormMax)
		s := sim.New(m, c.N)
		if err := s.Run(c, nil); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Reset()
			if err := s.Run(c, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

package core_test

import (
	"fmt"
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

// pathWalkTop is the read-out TopAmplitudes replaced, kept as its
// reference: multiply along every path of the support, convert every
// amplitude, keep the k largest in a bounded insertion sort, then re-walk
// each winner's path for its amplitude.
func pathWalkTop[T any](m *core.Manager[T], v core.Edge[T], n, k int) []core.Outcome[T] {
	if k <= 0 {
		return nil
	}
	idxs := make([]uint64, 0, k)
	probs := make([]float64, 0, k)
	m.ForEachAmplitude(v, n, func(idx uint64, amp T) bool {
		p := m.R.Abs2(amp)
		pos := len(probs)
		for pos > 0 && probs[pos-1] < p {
			pos--
		}
		if pos >= k {
			return true
		}
		idxs = append(idxs, 0)
		probs = append(probs, 0)
		copy(idxs[pos+1:], idxs[pos:])
		copy(probs[pos+1:], probs[pos:])
		idxs[pos], probs[pos] = idx, p
		if len(probs) > k {
			idxs, probs = idxs[:k], probs[:k]
		}
		return true
	})
	out := make([]core.Outcome[T], len(idxs))
	for i, idx := range idxs {
		out[i] = core.Outcome[T]{Index: idx, Prob: probs[i], Amp: m.Amplitude(v, n, idx)}
	}
	return out
}

// groverSuffix is the batch-prefix workload's variant: a Grover-8 base
// lowered to 13 qubits (8 data qubits, 5 ancillas), then suffix family
// member i, a t/s phase pattern over the data qubits and one Hadamard.
// Its amplitudes take few distinct values, so the read-out meets ties.
func groverSuffix(tb testing.TB, marked uint64, i int) *circuit.Circuit {
	tb.Helper()
	c := loweredGrover8(tb, marked)
	pattern := (i*37 + 11) & 0xff
	for b := 0; b < 8; b++ {
		if pattern>>b&1 == 1 {
			c.T(b)
		} else {
			c.S(b)
		}
	}
	return c.H(i % 8)
}

// randomCliffordT is a seeded random Clifford+T circuit.
func randomCliffordT(seed int64, n, gates int) *circuit.Circuit {
	r := rand.New(rand.NewSource(seed))
	c := circuit.New(fmt.Sprintf("clifford+t/%d", seed), n)
	for i := 0; i < gates; i++ {
		q := r.Intn(n)
		switch r.Intn(6) {
		case 0, 1:
			c.H(q)
		case 2:
			c.T(q)
		case 3:
			c.S(q)
		case 4:
			c.Tdg(q)
		default:
			c.CX(q, (q+1+r.Intn(n-1))%n)
		}
	}
	return c
}

func simulate[T any](tb testing.TB, m *core.Manager[T], c *circuit.Circuit) core.Edge[T] {
	tb.Helper()
	s := sim.New(m, c.N)
	if err := s.Run(c, nil); err != nil {
		tb.Fatal(err)
	}
	return s.State
}

// TestTopAmplitudesMatchesPathWalk: on random Clifford+T, Grover-8+suffix
// and welded-tree states, in alg (also with every weight hash colliding, so
// only Ring.Equal tells values apart) and float at ε 0 and 1e-10,
// TopAmplitudes returns the path walk's winners: the same indices in the
// same order, bit-identical probabilities and Equal amplitudes, for k from
// 0 past the support size. The exact runs repeat with the read-out memo
// bound at 3, so most products take the per-path fallback.
func TestTopAmplitudesMatchesPathWalk(t *testing.T) {
	circs := []*circuit.Circuit{randomCliffordT(7, 6, 80), groverSuffix(t, 130, 0), algorithms.BWT(3, 12)}
	reprs := []struct {
		name string
		run  func(t *testing.T, c *circuit.Circuit)
	}{
		{"alg", func(t *testing.T, c *circuit.Circuit) {
			matchPathWalk(t, c, func() *core.Manager[alg.Q] { return core.NewManager[alg.Q](alg.Ring{}, core.NormLeft) })
		}},
		{"alg/colliding", func(t *testing.T, c *circuit.Circuit) {
			matchPathWalk(t, c, func() *core.Manager[alg.Q] { return core.NewManager[alg.Q](collidingRing{}, core.NormLeft) })
		}},
		{"float0", func(t *testing.T, c *circuit.Circuit) {
			matchPathWalk(t, c, func() *core.Manager[complex128] { return core.NewManager[complex128](num.NewRing(0), core.NormLeft) })
		}},
		{"float", func(t *testing.T, c *circuit.Circuit) {
			matchPathWalk(t, c, func() *core.Manager[complex128] {
				return core.NewManager[complex128](num.NewRing(1e-10), core.NormLeft)
			})
		}},
	}
	for _, memoCap := range []int{0, 3} {
		for _, c := range circs {
			for _, rp := range reprs {
				t.Run(fmt.Sprintf("cap%d/%s/%s", memoCap, c.Name, rp.name), func(t *testing.T) {
					if memoCap > 0 {
						defer core.SetReadoutMemoCap(memoCap)()
					}
					rp.run(t, c)
				})
			}
		}
	}
}

// matchPathWalk compares TopAmplitudes on one fresh manager against the
// path walk on another, so neither read-out sees what the other interned.
func matchPathWalk[T any](t *testing.T, c *circuit.Circuit, fresh func() *core.Manager[T]) {
	mw, mt := fresh(), fresh()
	vw, vt := simulate(t, mw, c), simulate(t, mt, c)
	support := int(mt.SupportSize(vt, c.N))
	if support < 2 {
		t.Fatalf("support %d: too small to rank", support)
	}
	for _, k := range []int{0, 1, 16, support, support + 5} {
		want := pathWalkTop(mw, vw, c.N, k)
		got := mt.TopAmplitudes(vt, c.N, k)
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d winners, path walk %d", k, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Index != w.Index || math.Float64bits(g.Prob) != math.Float64bits(w.Prob) || !mt.R.Equal(g.Amp, w.Amp) {
				t.Fatalf("k=%d winner %d: got (%d, %v, %v), path walk (%d, %v, %v)",
					k, i, g.Index, g.Prob, g.Amp, w.Index, w.Prob, w.Amp)
			}
		}
		idxs, probs := mt.TopOutcomes(vt, c.N, k)
		if len(idxs) != len(want) || len(probs) != len(want) {
			t.Fatalf("k=%d: TopOutcomes has %d/%d winners, want %d", k, len(idxs), len(probs), len(want))
		}
		for i := range want {
			if idxs[i] != want[i].Index || math.Float64bits(probs[i]) != math.Float64bits(want[i].Prob) {
				t.Fatalf("k=%d winner %d: TopOutcomes (%d, %v), path walk (%d, %v)", k, i, idxs[i], probs[i], want[i].Index, want[i].Prob)
			}
		}
	}
}

// countingRing is Q[ω] that counts the Mul and Abs2 calls made through it.
type countingRing struct {
	alg.Ring
	muls, abs2s *int
}

func (r countingRing) Mul(a, b alg.Q) alg.Q { *r.muls++; return r.Ring.Mul(a, b) }

func (r countingRing) Abs2(a alg.Q) float64 { *r.abs2s++; return r.Ring.Abs2(a) }

// TestReadoutArithmeticCounts: the exact read-out multiplies once per
// distinct (product, weight) pair and converts once per distinct amplitude.
// The pinned state is the first variant of perfbench's batch-prefix round 0
// at seed 1: the Grover-8 base marking 130 plus suffix 14 (13 qubits, 857
// gates, 21 nodes, support 256, ten distinct amplitudes). Measured on a
// 2-vCPU Xeon for the top 16: the path walk took 1,791 Mul calls, 1,999
// with the winners' amplitude re-walks, and 256 Abs2; TopAmplitudes 38 Mul
// and 10 Abs2. Across the whole suffix family the Abs2 count is the number
// of distinct amplitudes (10 or 18) and Mul stays at or under 60.
func TestReadoutArithmeticCounts(t *testing.T) {
	for i := 0; i < 16; i++ {
		var muls, abs2s int
		m := core.NewManager[alg.Q](countingRing{muls: &muls, abs2s: &abs2s}, core.NormLeft)
		c := groverSuffix(t, 130, i)
		v := simulate(t, m, c)
		var distinct []alg.Q
		m.ForEachAmplitude(v, c.N, func(_ uint64, a alg.Q) bool {
			for _, d := range distinct {
				if d.Equal(a) {
					return true
				}
			}
			distinct = append(distinct, a)
			return true
		})

		muls, abs2s = 0, 0
		pathWalkTop(m, v, c.N, 16)
		walkMuls, walkAbs2s := muls, abs2s
		muls, abs2s = 0, 0
		m.TopAmplitudes(v, c.N, 16)
		t.Logf("suffix %d: %d gates, %d nodes, %d distinct amplitudes: path walk %d Mul / %d Abs2, TopAmplitudes %d Mul / %d Abs2",
			i, c.Len(), v.NodeCount(), len(distinct), walkMuls, walkAbs2s, muls, abs2s)
		if abs2s != len(distinct) || muls > 64 {
			t.Errorf("suffix %d: read-out took %d Mul and %d Abs2 calls, want at most 64 and %d", i, muls, abs2s, len(distinct))
		}
		if i == 14 && abs2s > 16 {
			t.Errorf("suffix 14: %d Abs2 calls, want at most 16", abs2s)
		}
	}
}

// BenchmarkTopAmplitudes times the read-out of the batch-prefix variant
// TestReadoutArithmeticCounts pins (Grover-8 marking 130 plus suffix 14) in
// the exact ring and in float at ε = 0, the top 16 as the engine's default
// asks.
func BenchmarkTopAmplitudes(b *testing.B) {
	c := groverSuffix(b, 130, 14)
	b.Run("alg", func(b *testing.B) {
		benchTop(b, core.NewManager[alg.Q](alg.Ring{}, core.NormLeft), c)
	})
	b.Run("float", func(b *testing.B) {
		benchTop(b, core.NewManager[complex128](num.NewRing(0), core.NormLeft), c)
	})
}

// topSink keeps the benchmarked read-out's result alive.
var topSink int

func benchTop[T any](b *testing.B, m *core.Manager[T], c *circuit.Circuit) {
	v := simulate(b, m, c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topSink += len(m.TopAmplitudes(v, c.N, 16))
	}
}

package repro

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/alg"
	"repro/internal/algorithms"
	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/num"
	"repro/internal/plaindd"
	"repro/internal/sim"
	"repro/internal/synth"
)

// Figure-level benchmarks: each corresponds to one figure of the paper's
// evaluation section and reports the wall-clock cost of regenerating its
// data series at benchmark scale. Run `cmd/qbench` for the full sweeps with
// CSV output; run `go test -bench=Fig -benchmem` for timing comparisons.

func benchParams() bench.FigureParams {
	p := bench.DefaultParams()
	p.GroverQubits = 8
	p.BWTDepth = 6
	p.BWTSteps = 32
	p.GSEPhaseBits = 2
	p.GSESKDepth = 1
	p.SynthNetLen = 10
	p.Stride = 1 << 30 // figures sample per-gate; benches only need totals
	p.MeasureError = false
	return p
}

// simulate is the common per-iteration body: one full simulation of c under
// the given representation.
func simulateAlg(b *testing.B, c *circuit.Circuit, norm core.NormScheme) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.NewManager[alg.Q](alg.Ring{}, norm)
		s := sim.New(m, c.N)
		if err := s.Run(c, nil); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(s.State.NodeCount()), "nodes")
	}
}

func simulateNum(b *testing.B, c *circuit.Circuit, eps float64) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.NewManager[complex128](num.NewRing(eps), core.NormMax)
		s := sim.New(m, c.N)
		if err := s.Run(c, nil); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(s.State.NodeCount()), "nodes")
	}
}

// BenchmarkFig3Grover regenerates the Fig. 3 series: Grover under the
// paper's ε sweep and under the exact algebraic representation.
func BenchmarkFig3Grover(b *testing.B) {
	p := benchParams()
	c := bench.GroverCircuit(p)
	b.Run("algebraic", func(b *testing.B) { simulateAlg(b, c, core.NormLeft) })
	for _, eps := range []float64{0, 1e-20, 1e-15, 1e-10, 1e-5, 1e-3} {
		b.Run(fmt.Sprintf("eps=%.0e", eps), func(b *testing.B) { simulateNum(b, c, eps) })
	}
}

// BenchmarkFig4BWT regenerates the Fig. 4 series on the welded-tree walk.
func BenchmarkFig4BWT(b *testing.B) {
	p := benchParams()
	c := bench.BWTCircuit(p)
	b.Run("algebraic", func(b *testing.B) { simulateAlg(b, c, core.NormLeft) })
	for _, eps := range []float64{0, 1e-10, 1e-3} {
		b.Run(fmt.Sprintf("eps=%.0e", eps), func(b *testing.B) { simulateNum(b, c, eps) })
	}
}

// BenchmarkFig2And5GSE regenerates the Fig. 2 / Fig. 5 series on the
// Clifford+T-compiled GSE circuit — the workload where the exact
// representation's integer bit widths grow and the overhead becomes visible.
func BenchmarkFig2And5GSE(b *testing.B) {
	p := benchParams()
	c, err := bench.GSECircuit(p)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("algebraic", func(b *testing.B) { simulateAlg(b, c, core.NormLeft) })
	for _, eps := range []float64{0, 1e-10, 1e-3} {
		b.Run(fmt.Sprintf("eps=%.0e", eps), func(b *testing.B) { simulateNum(b, c, eps) })
	}
}

// BenchmarkNormalizationSchemes is the Section V-B ablation: Algorithm 2
// (Q[ω] inverses) vs Algorithm 3 (D[ω] GCDs) vs the max-magnitude rule on
// the same exactly-representable workload. The paper reports that the GCD
// scheme always loses; the ratio here is the reproduced quantity.
func BenchmarkNormalizationSchemes(b *testing.B) {
	p := benchParams()
	c := bench.BWTCircuit(p)
	for _, norm := range []core.NormScheme{core.NormLeft, core.NormMax, core.NormGCD} {
		b.Run(norm.String(), func(b *testing.B) { simulateAlg(b, c, norm) })
	}
}

// Micro-benchmarks for the arithmetic substrate: the per-operation costs
// behind the paper's "more expensive arithmetic operations" discussion.

func randQ(r *rand.Rand, coefBits int) alg.Q {
	v := func() int64 { return r.Int63n(1<<uint(coefBits)) - 1<<uint(coefBits-1) }
	return alg.NewQ(v(), v(), v(), v(), r.Intn(5)-2, 2*r.Int63n(50)+1)
}

func BenchmarkAlgMul(b *testing.B) {
	for _, bits := range []int{8, 32, 62} {
		b.Run(fmt.Sprintf("coef%dbit", bits), func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			x, y := randQ(r, bits), randQ(r, bits)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x.Mul(y)
			}
		})
	}
}

func BenchmarkAlgAdd(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	x, y := randQ(r, 32), randQ(r, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.Add(y)
	}
}

func BenchmarkAlgInverse(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	x := randQ(r, 32)
	if x.IsZero() {
		x = alg.QOne
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		alg.QOne.Div(x)
	}
}

func BenchmarkAlgGCD(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	g := alg.NewZomega(3, 1, -2, 5)
	x := alg.NewZomega(r.Int63n(64), r.Int63n(64), r.Int63n(64), r.Int63n(64)).Mul(g)
	y := alg.NewZomega(r.Int63n(64), r.Int63n(64), r.Int63n(64), r.Int63n(64)).Mul(g)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		alg.GCDZ(x, y)
	}
}

func BenchmarkCanonicalAssociate(b *testing.B) {
	x := alg.CanonD(alg.NewZomega(23, -17, 5, 40), 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		alg.CanonicalAssociate(x)
	}
}

func BenchmarkNumMulInterned(b *testing.B) {
	r := num.NewRing(1e-12)
	x, y := complex(0.70710678, 0.1), complex(-0.3, 0.4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Mul(x, y)
	}
}

// BenchmarkMatMat compares one 6-qubit matrix-matrix multiplication in both
// representations (the core operation of all QMDD design tasks). Each
// iteration starts from an empty compute table: an untimed Prune that keeps
// u and the product clears it, so the product is recomputed, not looked up.
func BenchmarkMatMat(b *testing.B) {
	c := algorithms.Grover(6, 13, 1)
	b.Run("algebraic", func(b *testing.B) {
		benchMatMat(b, core.NewManager[alg.Q](alg.Ring{}, core.NormLeft), c)
	})
	b.Run("numeric", func(b *testing.B) {
		benchMatMat(b, core.NewManager[complex128](num.NewRing(1e-12), core.NormMax), c)
	})
}

func benchMatMat[T any](b *testing.B, m *core.Manager[T], c *circuit.Circuit) {
	u, err := sim.BuildUnitary(m, c)
	if err != nil {
		b.Fatal(err)
	}
	uu := m.Mul(u, u)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m.Prune(u, uu)
		b.StartTimer()
		m.Mul(u, u)
	}
}

// BenchmarkSynthesis measures the Solovay–Kitaev compilation cost by depth.
func BenchmarkSynthesis(b *testing.B) {
	s := synth.New(10)
	for depth := 0; depth <= 2; depth++ {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.RzGates(0.731, 0, depth)
			}
		})
	}
}

// BenchmarkWeightedEdgesAblation quantifies the paper's Fig. 1b-vs-1c
// argument: the same states represented as weight-less (QuIDD/ADD-style)
// DDs vs QMDDs. The reported "plainNodes"/"qmddNodes" metrics show what the
// weighted edges buy.
func BenchmarkWeightedEdgesAblation(b *testing.B) {
	workloads := map[string]*circuit.Circuit{
		"grover8": algorithms.Grover(8, 100, 0),
		"bwt":     algorithms.BWT(5, 24),
	}
	for name, c := range workloads {
		b.Run(name, func(b *testing.B) {
			m := core.NewManager[alg.Q](alg.Ring{}, core.NormLeft)
			s := sim.New(m, c.N)
			if err := s.Run(c, nil); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var internal int
			for i := 0; i < b.N; i++ {
				pm := plaindd.NewManager[alg.Q](alg.Ring{})
				p := plaindd.FromQMDD(pm, m, s.State, c.N)
				internal, _ = p.NodeCount()
			}
			b.ReportMetric(float64(internal), "plainNodes")
			b.ReportMetric(float64(s.State.NodeCount()), "qmddNodes")
		})
	}
}

// BenchmarkMatVecVsMatMat contrasts the two simulation styles the QMDD
// literature compares ([25]): gate-by-gate matrix-vector evolution vs
// building the full circuit unitary by matrix-matrix multiplication.
func BenchmarkMatVecVsMatMat(b *testing.B) {
	c := algorithms.Grover(7, 50, 0)
	b.Run("matvec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := core.NewManager[alg.Q](alg.Ring{}, core.NormLeft)
			s := sim.New(m, c.N)
			if err := s.Run(c, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("matmat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := core.NewManager[alg.Q](alg.Ring{}, core.NormLeft)
			u, err := sim.BuildUnitary(m, c)
			if err != nil {
				b.Fatal(err)
			}
			m.Mul(u, m.BasisState(c.N, 0))
		}
	})
}

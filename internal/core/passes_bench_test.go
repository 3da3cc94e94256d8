package core_test

import (
	"testing"

	"repro/internal/alg"
	"repro/internal/algorithms"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/num"
	"repro/internal/sim"
)

// BenchmarkDiagramPasses times the read-only passes over a final state's
// distinct nodes (all built on one node walk) on the Grover-8 and BWT 6×60
// states, exact and float at ε = 0.
func BenchmarkDiagramPasses(b *testing.B) {
	for _, job := range []struct {
		name string
		c    *circuit.Circuit
	}{{"grover8", algorithms.Grover(8, 1<<8-2, 0)}, {"bwt", algorithms.BWT(6, 60)}} {
		benchPasses(b, "alg/"+job.name, core.NewManager[alg.Q](alg.Ring{}, core.NormLeft), job.c)
		benchPasses(b, "float0/"+job.name, core.NewManager[complex128](num.NewRing(0), core.NormLeft), job.c)
	}
}

// passSink keeps the benchmarked passes' results live.
var passSink float64

func benchPasses[T any](b *testing.B, name string, m *core.Manager[T], c *circuit.Circuit) {
	s := sim.New(m, c.N)
	if err := s.Run(c, nil); err != nil {
		b.Fatal(err)
	}
	v := s.State
	for _, pass := range []struct {
		name string
		run  func(b *testing.B) float64
	}{
		{"NodeCount", func(*testing.B) float64 { return float64(v.NodeCount()) }},
		{"Norm2", func(*testing.B) float64 { return m.Norm2(v) }},
		{"NewSampler", func(b *testing.B) float64 {
			if _, err := m.NewSampler(v, c.N); err != nil {
				b.Fatal(err)
			}
			return 1
		}},
		{"SupportSize", func(*testing.B) float64 { return float64(m.SupportSize(v, c.N)) }},
	} {
		b.Run(name+"/"+pass.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				passSink += pass.run(b)
			}
		})
	}
}

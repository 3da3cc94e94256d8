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

// BenchmarkManagerReset times Manager.Reset, the engine's between-job reset
// of a warm manager, on an idle manager and after a Grover-8 job (the job
// itself is not timed), for the exact ring and the float ring at ε = 1e-10.
func BenchmarkManagerReset(b *testing.B) {
	grover := algorithms.Grover(8, 1<<8-2, 0)
	for _, job := range []struct {
		name string
		c    *circuit.Circuit
	}{{"idle", nil}, {"grover8", grover}} {
		b.Run("alg/"+job.name, func(b *testing.B) {
			benchReset(b, core.NewManager[alg.Q](alg.Ring{}, core.NormLeft), job.c)
		})
		b.Run("float/"+job.name, func(b *testing.B) {
			benchReset(b, core.NewManager[complex128](num.NewRing(1e-10), core.NormLeft), job.c)
		})
	}
}

func benchReset[T any](b *testing.B, m *core.Manager[T], c *circuit.Circuit) {
	b.ResetTimer() // exclude NewManager's table allocation
	for i := 0; i < b.N; i++ {
		if c != nil {
			b.StopTimer()
			if err := sim.New(m, c.N).Run(c, nil); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		m.Reset()
	}
}

package ddio

import (
	"io"
	"strings"
	"testing"

	"repro/internal/alg"
	"repro/internal/algorithms"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/num"
	"repro/internal/sim"
)

// BenchmarkWriteMeta times the checkpoint encoding of the Grover-8 and
// BWT 6×60 final states, exact and float at ε = 0.
func BenchmarkWriteMeta(b *testing.B) {
	for _, job := range []struct {
		name string
		c    *circuit.Circuit
	}{{"grover8", algorithms.Grover(8, 1<<8-2, 0)}, {"bwt", algorithms.BWT(6, 60)}} {
		benchWriteMeta(b, "alg/"+job.name, core.NewManager[alg.Q](alg.Ring{}, core.NormLeft), AlgCodec{}, job.c, Meta{Repr: "alg", Norm: "left"})
		benchWriteMeta(b, "float0/"+job.name, core.NewManager[complex128](num.NewRing(0), core.NormLeft), NumCodec{}, job.c, Meta{Repr: "float", Norm: "left"})
	}
}

func benchWriteMeta[T any](b *testing.B, name string, m *core.Manager[T], codec Codec[T], c *circuit.Circuit, meta Meta) {
	s := sim.New(m, c.N)
	if err := s.Run(c, nil); err != nil {
		b.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteMeta(&sb, m, codec, s.State, c.N, meta); err != nil {
		b.Fatal(err)
	}
	b.Run(name, func(b *testing.B) {
		b.SetBytes(int64(sb.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := WriteMeta(io.Discard, m, codec, s.State, c.N, meta); err != nil {
				b.Fatal(err)
			}
		}
	})
}

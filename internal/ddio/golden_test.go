package ddio

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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

// golden is what TestWriteAndDrawGolden pins for one final state: the
// SHA-256 of its WriteMeta bytes, the SHA-256 of 2,000 draws (little-endian
// uint64s) from a Sampler seeded with 1, and the bits of its Norm2.
type golden struct {
	file, draws string
	norm2       uint64
}

func goldenDigests[T any](t *testing.T, m *core.Manager[T], codec Codec[T], c *circuit.Circuit, meta Meta) golden {
	t.Helper()
	s := sim.New(m, c.N)
	if err := s.Run(c, nil); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := WriteMeta(h, m, codec, s.State, c.N, meta); err != nil {
		t.Fatal(err)
	}
	g := golden{file: hex.EncodeToString(h.Sum(nil)), norm2: math.Float64bits(m.Norm2(s.State))}

	smp, err := m.NewSampler(s.State, c.N)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	h.Reset()
	var buf [8]byte
	for i := 0; i < 2000; i++ {
		idx, err := smp.Draw(rng)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(buf[:], idx)
		h.Write(buf[:])
	}
	g.draws = hex.EncodeToString(h.Sum(nil))
	return g
}

// TestWriteAndDrawGolden pins the node order and bytes of WriteMeta (cached
// "ddio" outputs and prefix checkpoints carry them) and the Sampler's
// seeded draws and Norm2 bits on the paper's Grover-8 and BWT 6×60 final states, for the
// exact ring and for float at ε = 0 and ε = 1e-10. A failure means stored
// diagrams or seeded shot histograms changed: fix the change, not the pins.
func TestWriteAndDrawGolden(t *testing.T) {
	circuits := []struct {
		name string
		c    *circuit.Circuit
	}{
		{"grover8", algorithms.Grover(8, 1<<8-2, 0)},
		{"bwt6x60", algorithms.BWT(6, 60)},
	}
	want := map[string]golden{
		"grover8/alg":        {"adebf0c9ea1cad8a97e4b726b7c012212c1c16feb2bf256effe06116cc931a5e", "dcb3a6a7256097031b49dc4084db98a30e9003c32ae4500c77917bfab1a3abc1", 0x3ff0000000000000},
		"grover8/float0":     {"bad6561c4ff52eeefe113925e300f90dcf8ee68a2ed06c91a7b4ac5ccc7e43b0", "dcb3a6a7256097031b49dc4084db98a30e9003c32ae4500c77917bfab1a3abc1", 0x3ff000000000006e},
		"grover8/float1e-10": {"7e9daf4686661e0c5120fcb52a6d72313318efd5dbdb7ceb5d28eb7be8158bde", "dcb3a6a7256097031b49dc4084db98a30e9003c32ae4500c77917bfab1a3abc1", 0x3feffffffffffa19},
		"bwt6x60/alg":        {"7db790e11966960695767a68560c9371e0cda33d18938cf850856207f4002e78", "25acd3ec199660802df1c03e933c93640a26aa35978175d0e5bf7c822b4a8370", 0x3ff0000000000001},
		"bwt6x60/float0":     {"fcb8ebb1ea87a4016c0aa48c25ecfc630e5e84bec97c3532e8f85882ac0c1b5d", "25acd3ec199660802df1c03e933c93640a26aa35978175d0e5bf7c822b4a8370", 0x3ff000000000004a},
		"bwt6x60/float1e-10": {"a25023c05a6e450bb1e53617a3f5e2a13c5ee8456135f879707a0f4240d9cc3f", "25acd3ec199660802df1c03e933c93640a26aa35978175d0e5bf7c822b4a8370", 0x3ff000000000003f},
	}
	for _, tc := range circuits {
		got := map[string]golden{}
		m := core.NewManager[alg.Q](alg.Ring{}, core.NormLeft)
		got[tc.name+"/alg"] = goldenDigests(t, m, AlgCodec{}, tc.c, Meta{Repr: "alg", Norm: "left"})
		for _, eps := range []float64{0, 1e-10} {
			fm := core.NewManager[complex128](num.NewRing(eps), core.NormLeft)
			name := tc.name + "/float0"
			if eps > 0 {
				name = tc.name + "/float1e-10"
			}
			got[name] = goldenDigests(t, fm, NumCodec{}, tc.c, Meta{Repr: "float", Norm: "left", Eps: eps})
		}
		for name, g := range got {
			if w := want[name]; g != w {
				t.Errorf("%s: got {%q, %q, %#x}, want {%q, %q, %#x}", name, g.file, g.draws, g.norm2, w.file, w.draws, w.norm2)
			}
		}
	}
}

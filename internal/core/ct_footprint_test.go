package core_test

import (
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/alg"
	"repro/internal/algorithms"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/num"
	"repro/internal/sim"
)

func runJob[T any](tb testing.TB, m *core.Manager[T], c *circuit.Circuit) {
	tb.Helper()
	if err := sim.New(m, c.N).Run(c, nil); err != nil {
		tb.Fatal(err)
	}
}

// TestComputeTableStatsUnchanged pins a Grover-8 float job's compute-table
// counters at ε = 1e-10 to what the direct-mapped table reported: the
// compact storage must hit, miss and fill exactly as it did.
func TestComputeTableStatsUnchanged(t *testing.T) {
	m := core.NewManager[complex128](num.NewRing(1e-10), core.NormLeft)
	runJob(t, m, algorithms.Grover(8, 1<<8-2, 0))
	st := m.Stats()
	if st.CTLookups != 7104 || st.CTHits != 2862 || st.CTEntries != 4205 || st.CTCapacity != core.DefaultCTSize {
		t.Fatalf("compute table: %d lookups, %d hits, %d entries, %d slots; want 7104, 2862, 4205, %d",
			st.CTLookups, st.CTHits, st.CTEntries, st.CTCapacity, core.DefaultCTSize)
	}
}

// TestComputeTableFootprint: the engine's worker keeps one exact manager
// and up to eight float managers (one per ε); after a small job they hold
// what the job filled, not 2¹⁸ slots each (about 134 MiB together when every
// table was allocated whole).
func TestComputeTableFootprint(t *testing.T) {
	c := algorithms.Grover(4, 1<<4-2, 0)
	am := core.NewManager[alg.Q](alg.Ring{}, core.NormLeft)
	runJob(t, am, c)
	total := core.CTBytes(am)
	for i := 0; i < 8; i++ {
		eps := 0.0
		if i > 0 {
			eps = 1 / float64(int(1)<<(4*i))
		}
		fm := core.NewManager[complex128](num.NewRing(eps), core.NormLeft)
		runJob(t, fm, c)
		total += core.CTBytes(fm)
	}
	if total >= 2<<20 {
		t.Fatalf("nine managers after Grover-4 hold %d compute-table bytes, want < 2 MiB", total)
	}
	t.Logf("nine managers after Grover-4: %d compute-table bytes", total)
}

// TestComputeTableGrowthBounded: a job re-run after Reset allocates nothing
// in the compute table (its arrays kept their size), and no shard doubles
// more than log₂(16384/64) = 8 times in a manager's lifetime. Counted
// directly, since testing.AllocsPerRun would divide a growth away.
func TestComputeTableGrowthBounded(t *testing.T) {
	t.Run("alg/grover8", func(t *testing.T) {
		checkRerunGrowsNothing(t, core.NewManager[alg.Q](alg.Ring{}, core.NormLeft), algorithms.Grover(8, 1<<8-2, 0))
	})
	t.Run("float0/bwt", func(t *testing.T) {
		checkRerunGrowsNothing(t, core.NewManager[complex128](num.NewRing(0), core.NormLeft), algorithms.BWT(6, 60))
	})
}

func checkRerunGrowsNothing[T any](t *testing.T, m *core.Manager[T], c *circuit.Circuit) {
	maxGrows := bits.Len(uint(core.DefaultCTSize/16/64)) - 1
	runJob(t, m, c)
	g1, b1 := core.CTGrowths(m), core.CTBytes(m)
	m.Reset()
	runJob(t, m, c)
	g2, b2 := core.CTGrowths(m), core.CTBytes(m)
	if fmt.Sprint(g1) != fmt.Sprint(g2) || b1 != b2 {
		t.Fatalf("re-run after Reset grew the table: growths %v → %v, %d → %d bytes", g1, g2, b1, b2)
	}
	for s, g := range g2 {
		if g > maxGrows {
			t.Fatalf("shard %d doubled %d times, at most %d", s, g, maxGrows)
		}
	}
}

// BenchmarkComputeTable reports the compute table's storage (entry arrays
// and dirty-slot lists, in bytes) after one Grover-8 or BWT job per ring.
// The job is the timed part; the metric is the point.
func BenchmarkComputeTable(b *testing.B) {
	for _, job := range []struct {
		name string
		c    *circuit.Circuit
	}{{"grover8", algorithms.Grover(8, 1<<8-2, 0)}, {"bwt", algorithms.BWT(6, 60)}} {
		b.Run("alg/"+job.name, func(b *testing.B) {
			benchCTBytes(b, func() *core.Manager[alg.Q] { return core.NewManager[alg.Q](alg.Ring{}, core.NormLeft) }, job.c)
		})
		b.Run("float/"+job.name, func(b *testing.B) {
			benchCTBytes(b, func() *core.Manager[complex128] {
				return core.NewManager[complex128](num.NewRing(1e-10), core.NormLeft)
			}, job.c)
		})
		b.Run("float0/"+job.name, func(b *testing.B) {
			benchCTBytes(b, func() *core.Manager[complex128] {
				return core.NewManager[complex128](num.NewRing(0), core.NormLeft)
			}, job.c)
		})
	}
}

func benchCTBytes[T any](b *testing.B, newM func() *core.Manager[T], c *circuit.Circuit) {
	var m *core.Manager[T]
	for i := 0; i < b.N; i++ {
		m = newM()
		runJob(b, m, c)
	}
	b.ReportMetric(float64(core.CTBytes(m)), "ct-bytes")
	b.ReportMetric(float64(m.Stats().CTEntries), "ct-entries")
}

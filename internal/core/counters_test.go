package core_test

import (
	"testing"

	"repro/internal/alg"
	"repro/internal/algorithms"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/num"
)

// loweredGrover8 is Grover-8 marking the given element, lowered as
// load.Lower lowers it (13 qubits with 5 ancillas), the shape of
// perfbench's batch-prefix base circuits.
func loweredGrover8(tb testing.TB, marked uint64) *circuit.Circuit {
	tb.Helper()
	c, err := load.Lower(algorithms.Grover(8, marked, 0))
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// TestGroverCounterCeilings gates the deterministic cost of a cold lowered
// Grover-8 run (marking 37, 824 gates) per ring: compute-table and unique-table lookups, and heap
// allocations per gate, the fresh manager included (allocations are not
// checked under the race detector, which makes sync.Pool drop items).
// Measured on a 2-vCPU Xeon:
//
//   - alg: 10,757 CT lookups, 6,399 unique lookups and 28.01 allocs/gate,
//     gated with 2% headroom. Before exact same-node Adds became one
//     memoized weight addition (ops.go) the run read 16,767, 9,920 and
//     28.63, so each ceiling fails there.
//   - float (ε = 1e-10) and float0 (ε = 0) never take that shortcut, so
//     their lookups are pinned exactly; allocations read 18.07 and 123.63
//     allocs/gate and get 2% headroom.
func TestGroverCounterCeilings(t *testing.T) {
	c := loweredGrover8(t, 37)
	for _, row := range []struct {
		name             string
		run              func(tb testing.TB) core.Stats
		ct, unique       uint64
		exact            bool // lookups pinned, not ceilinged
		maxAllocsPerGate float64
	}{
		{"alg", func(tb testing.TB) core.Stats {
			return runStats(tb, core.NewManager[alg.Q](alg.Ring{}, core.NormLeft), c)
		}, 10_972, 6_526, false, 28.57},
		{"float", func(tb testing.TB) core.Stats {
			return runStats(tb, core.NewManager[complex128](num.NewRing(1e-10), core.NormLeft), c)
		}, 16_766, 9_924, true, 18.43},
		{"float0", func(tb testing.TB) core.Stats {
			return runStats(tb, core.NewManager[complex128](num.NewRing(0), core.NormLeft), c)
		}, 276_703, 249_749, true, 126.10},
	} {
		t.Run(row.name, func(t *testing.T) {
			var st core.Stats
			allocs := testing.AllocsPerRun(1, func() { st = row.run(t) }) / float64(len(c.Gates))
			t.Logf("%d CT lookups, %d unique lookups, %.3f allocs/gate", st.CTLookups, st.UniqueLookups, allocs)
			switch {
			case row.exact && (st.CTLookups != row.ct || st.UniqueLookups != row.unique):
				t.Errorf("%d CT and %d unique lookups, want exactly %d and %d", st.CTLookups, st.UniqueLookups, row.ct, row.unique)
			case st.CTLookups > row.ct || st.UniqueLookups > row.unique:
				t.Errorf("%d CT and %d unique lookups, ceilings %d and %d", st.CTLookups, st.UniqueLookups, row.ct, row.unique)
			}
			if !raceEnabled && allocs > row.maxAllocsPerGate {
				t.Errorf("%.3f allocs/gate, ceiling %.2f", allocs, row.maxAllocsPerGate)
			}
		})
	}
}

func runStats[T any](tb testing.TB, m *core.Manager[T], c *circuit.Circuit) core.Stats {
	runJob(tb, m, c)
	return m.Stats()
}

// BenchmarkGroverLowered times the lowered Grover-8 run per ring on a warm
// manager, reset between runs as the engine's workers reset theirs, and
// reports the run's compute-table and unique-table lookups.
func BenchmarkGroverLowered(b *testing.B) {
	c := loweredGrover8(b, 37)
	b.Run("alg", func(b *testing.B) { benchRun(b, core.NewManager[alg.Q](alg.Ring{}, core.NormLeft), c) })
	b.Run("float", func(b *testing.B) {
		benchRun(b, core.NewManager[complex128](num.NewRing(1e-10), core.NormLeft), c)
	})
	b.Run("float0", func(b *testing.B) { benchRun(b, core.NewManager[complex128](num.NewRing(0), core.NormLeft), c) })
}

func benchRun[T any](b *testing.B, m *core.Manager[T], c *circuit.Circuit) {
	b.ReportAllocs()
	var st core.Stats
	for i := 0; i < b.N; i++ {
		m.Reset()
		runJob(b, m, c)
		st = m.Stats()
	}
	b.ReportMetric(float64(st.CTLookups), "ct-lookups/op")
	b.ReportMetric(float64(st.UniqueLookups), "unique-lookups/op")
}

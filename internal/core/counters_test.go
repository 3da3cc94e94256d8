package core_test

import (
	"testing"

	"repro/internal/alg"
	"repro/internal/algorithms"
	"repro/internal/bench"
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

// loweredCold is a circuit of perfbench's cold-sim round (BWT depth 6 × 60
// steps, or GSE with 3 phase bits and SK depth 1), lowered as load.Lower
// lowers it.
func loweredCold(tb testing.TB, family string) *circuit.Circuit {
	tb.Helper()
	p := bench.DefaultParams()
	c := bench.BWTCircuit(p)
	if family == "gse" {
		var err error
		if c, err = bench.GSECircuit(p); err != nil {
			tb.Fatal(err)
		}
	}
	low, err := load.Lower(c)
	if err != nil {
		tb.Fatal(err)
	}
	return low
}

// ringRun runs c on a fresh manager of one ring and returns its counters.
type ringRun struct {
	name string
	run  func(tb testing.TB, c *circuit.Circuit) core.Stats
}

// rings are the three representations every perfbench workload runs: exact
// Q[ω], float at ε = 1e-10, and the paper's ε = 0 float baseline.
var rings = []ringRun{
	{"alg", func(tb testing.TB, c *circuit.Circuit) core.Stats {
		return runStats(tb, core.NewManager[alg.Q](alg.Ring{}, core.NormLeft), c)
	}},
	{"float", func(tb testing.TB, c *circuit.Circuit) core.Stats {
		return runStats(tb, core.NewManager[complex128](num.NewRing(1e-10), core.NormLeft), c)
	}},
	{"float0", func(tb testing.TB, c *circuit.Circuit) core.Stats {
		return runStats(tb, core.NewManager[complex128](num.NewRing(0), core.NormLeft), c)
	}},
}

// counterGate is one ring's row of a counter gate: its exact compute-table
// and unique-table lookups and its allocations-per-gate ceiling.
type counterGate struct {
	ct, unique       uint64
	maxAllocsPerGate float64
}

// gateCounters runs c cold on each ring (alg, float, float0), pins its
// lookups and ceilings its heap allocations per gate, the fresh manager
// included. Allocations are not checked under the race detector, which
// makes sync.Pool drop items.
func gateCounters(t *testing.T, c *circuit.Circuit, rows [3]counterGate) {
	for r, ring := range rings {
		row := rows[r]
		t.Run(ring.name, func(t *testing.T) {
			var st core.Stats
			allocs := testing.AllocsPerRun(1, func() { st = ring.run(t, c) }) / float64(len(c.Gates))
			t.Logf("%d CT lookups, %d unique lookups, %.3f allocs/gate", st.CTLookups, st.UniqueLookups, allocs)
			if st.CTLookups != row.ct || st.UniqueLookups != row.unique {
				t.Errorf("%d CT and %d unique lookups, want exactly %d and %d", st.CTLookups, st.UniqueLookups, row.ct, row.unique)
			}
			if !raceEnabled && allocs > row.maxAllocsPerGate {
				t.Errorf("%.3f allocs/gate, ceiling %.2f", allocs, row.maxAllocsPerGate)
			}
		})
	}
}

// TestGroverCounterCeilings gates the deterministic cost of a cold lowered
// Grover-8 run (marking 37, 824 gates) per ring. Measured on a 2-vCPU Xeon,
// each ceiling is the measured allocs/gate plus 2%:
//
//   - lookups: alg 10,757 CT / 6,399 unique; float 16,766 / 9,924; float0
//     276,703 / 249,749. A change to the tables' layout must not move them.
//   - allocs/gate: alg 21.30, float 11.36, float0 63.26. Before a node
//     shared one allocation with its edges they read 28.01, 18.07 and
//     123.63, so each ceiling fails there.
func TestGroverCounterCeilings(t *testing.T) {
	gateCounters(t, loweredGrover8(t, 37), [3]counterGate{
		{10_757, 6_399, 21.73},
		{16_766, 9_924, 11.59},
		{276_703, 249_749, 64.53},
	})
}

// TestBWTCounterCeilings is the same gate on the lowered BWT 6×60 job of
// perfbench's cold-sim round, whose float0 run is the paper's ε = 0
// baseline. Measured on a 2-vCPU Xeon:
//
//   - lookups: alg 511,670 CT / 242,226 unique; float 535,170 / 256,953;
//     float0 3,415,912 / 1,441,437.
//   - allocs/gate: alg 22.04, float 7.42, float0 21.05 (26.64, 12.03 and
//     40.45 before a node shared one allocation with its edges).
func TestBWTCounterCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("one sequential job: the plain run pins the same counters in a tenth of the race detector's time")
	}
	gateCounters(t, loweredCold(t, "bwt"), [3]counterGate{
		{511_670, 242_226, 22.49},
		{535_170, 256_953, 7.58},
		{3_415_912, 1_441_437, 21.48},
	})
}

func runStats[T any](tb testing.TB, m *core.Manager[T], c *circuit.Circuit) core.Stats {
	runJob(tb, m, c)
	return m.Stats()
}

// BenchmarkGroverLowered times the lowered Grover-8 run per ring on a warm
// manager, reset between runs as the engine's workers reset theirs, and
// reports the run's compute-table and unique-table lookups.
func BenchmarkGroverLowered(b *testing.B) {
	benchRings(b, loweredGrover8(b, 37))
}

// BenchmarkColdJobs is BenchmarkGroverLowered for the lowered BWT 6×60 and
// GSE jobs of perfbench's cold-sim round, whose float0 BWT run dominates
// that workload.
func BenchmarkColdJobs(b *testing.B) {
	for _, family := range []string{"bwt", "gse"} {
		c := loweredCold(b, family)
		b.Run(family, func(b *testing.B) { benchRings(b, c) })
	}
}

// benchRings runs benchRun on one warm manager per ring.
func benchRings(b *testing.B, c *circuit.Circuit) {
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

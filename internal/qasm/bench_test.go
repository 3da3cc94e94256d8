package qasm_test

import (
	"os"
	"testing"

	"repro/internal/circuit"
	"repro/internal/qasm"
)

// bwtSource returns the lowered BWT 6×60 program (the paper's Fig. 4
// workload, 219 KB, 14,341 gates) as a client submits it.
func bwtSource() string { return workloads()["bwt6x60"].src }

// BenchmarkParse parses the BWT program; MB/s is source throughput.
func BenchmarkParse(b *testing.B) {
	src := bwtSource()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qasm.Parse(src, "bwt"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFingerprint hashes the parsed BWT circuit; MB/s is measured
// against the source size, so it compares directly with BenchmarkParse.
func BenchmarkFingerprint(b *testing.B) {
	src := bwtSource()
	c, err := qasm.Parse(src, "bwt")
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		circuit.Fingerprint(c)
	}
}

// TestParseAllocationsPerGate is the parser's allocation gate (allocation
// counts are deterministic, so the bound is exact rather than statistical).
// A parse allocates its parser, register and definition maps, the gate
// list, one arena chunk per few thousand controls or parameters, and the
// stacks for scratch and user-gate expansions — never a slice per
// statement. The adder's gate definitions cost their token lists and its
// 11 gates amortize little; BWT's 14,341 gates amortize everything.
func TestParseAllocationsPerGate(t *testing.T) {
	adder, err := os.ReadFile("testdata/adder4.qasm")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		src     string
		perGate float64
	}{
		{"adder4.qasm", string(adder), 4},
		{"bwt6x60", bwtSource(), 0.002},
	} {
		c, err := qasm.Parse(tc.src, tc.name)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() { qasm.Parse(tc.src, tc.name) })
		if got := allocs / float64(c.Len()); got > tc.perGate {
			t.Errorf("%s: %.0f allocations for %d gates (%.3f per gate), bound %v per gate",
				tc.name, allocs, c.Len(), got, tc.perGate)
		}
	}
}

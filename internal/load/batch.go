package load

import (
	"fmt"
	"strings"

	"repro/internal/bench"
	"repro/internal/qasm"
)

// BatchWorkload is the shared-prefix variant sweep qbench -prefix-bench drives:
// one Grover circuit as the shared prefix, plus n small Clifford+T suffixes
// that make each variant distinct. The same gates are packaged two ways —
// Base+Suffixes for POST /v1/batches, and Variants as standalone programs
// for cold one-job-per-variant submissions — so the two submission paths
// simulate identical circuits.
type BatchWorkload struct {
	// Base is the shared-prefix program (lowered Grover, purely unitary).
	Base string
	// Suffixes[i] is a complete program over the same register whose gates
	// are appended to Base's to form variant i.
	Suffixes []string
	// Variants[i] is Base+suffix i concatenated into one standalone program.
	Variants []string
	// Qubits is the lowered register width (original + ancillas).
	Qubits int
	// PrefixGates / SuffixGates are the shared and per-variant gate counts.
	PrefixGates int
	SuffixGates int
}

// BatchPrograms builds the n-variant Grover batch workload from the figure
// parameters. The suffixes are Clifford+T only (t/s phases), so every
// variant is exactly representable in Q[ω] as well as in float.
func BatchPrograms(p bench.FigureParams, n int) (*BatchWorkload, error) {
	low, err := Lower(bench.GroverCircuit(p))
	if err != nil {
		return nil, fmt.Errorf("load: lowering grover base: %w", err)
	}
	var sb strings.Builder
	if err := qasm.Write(&sb, low); err != nil {
		return nil, fmt.Errorf("load: writing grover base: %w", err)
	}
	base := sb.String()
	w := &BatchWorkload{
		Base:        base,
		Qubits:      low.N,
		PrefixGates: low.Len(),
		SuffixGates: low.N,
	}
	header := fmt.Sprintf("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[%d];\n", low.N)
	for i := 0; i < n; i++ {
		gates := variantGates(low.N, i)
		w.Suffixes = append(w.Suffixes, header+gates)
		w.Variants = append(w.Variants, base+gates)
	}
	return w, nil
}

// variantGates encodes index i as a phase pattern: qubit b gets a t when bit
// b of i is set, an s otherwise — n gates, distinct for every i < 2^n.
func variantGates(n, i int) string {
	var sb strings.Builder
	for b := 0; b < n; b++ {
		if i>>uint(b)&1 == 1 {
			fmt.Fprintf(&sb, "t q[%d];\n", b)
		} else {
			fmt.Fprintf(&sb, "s q[%d];\n", b)
		}
	}
	return sb.String()
}

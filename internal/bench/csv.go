package bench

import (
	"fmt"
	"io"
	"strings"
)

// WriteCSV emits all samples of all runs as one tidy CSV with a run label
// column — directly plottable against the paper's figures.
func WriteCSV(w io.Writer, r *Result) error {
	if _, err := fmt.Fprintln(w, "experiment,run,gates,nodes,cum_seconds,error,max_bits,norm,failed"); err != nil {
		return err
	}
	for _, run := range r.Runs {
		for _, s := range run.Samples {
			if _, err := fmt.Fprintf(w, "%s,%s,%d,%d,%.6f,%.6e,%d,%.6f,%v\n",
				r.Name, run.Label, s.Gate, s.Nodes, s.CumSeconds, s.Error, s.MaxBits, s.Norm, run.Failed); err != nil {
				return err
			}
		}
	}
	return nil
}

// Summary renders a per-run digest table: final node counts, peak node
// counts, total time, final error — the row set a reader compares against
// the corresponding figure.
func Summary(r *Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "experiment %s (%d qubits)\n", r.Name, r.N)
	fmt.Fprintf(&sb, "%-22s %10s %10s %12s %14s %9s  %s\n",
		"run", "peak nodes", "final", "time (s)", "final error", "max bits", "status")
	for _, run := range r.Runs {
		final, finalErr, maxBits := 0, 0.0, 0
		for _, s := range run.Samples {
			final = s.Nodes
			finalErr = s.Error
			if s.MaxBits > maxBits {
				maxBits = s.MaxBits
			}
		}
		status := "ok"
		if run.Failed {
			status = "FAILED: " + run.FailNote
		}
		fmt.Fprintf(&sb, "%-22s %10d %10d %12.3f %14.3e %9d  %s\n",
			run.Label, run.PeakNodes, final, run.Total.Seconds(), finalErr, maxBits, status)
	}
	return sb.String()
}

// StatsSummary renders a per-run table of the manager's hash-table counters:
// unique-table and compute-table hit rates, compute-table load factor, and
// the number of distinct interned weights. These are the knobs behind the
// perf numbers (a low CT hit rate suggests a larger -ctsize, a huge intern
// table signals weight churn under the chosen normalization scheme).
func StatsSummary(r *Result) string {
	rate := func(hits, lookups uint64) float64 {
		if lookups == 0 {
			return 0
		}
		return 100 * float64(hits) / float64(lookups)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "manager counters for %s\n", r.Name)
	fmt.Fprintf(&sb, "%-22s %10s %9s %10s %9s %12s %11s %8s %9s\n",
		"run", "nodes", "uniq hit%", "ct hit%", "ct load%", "scalar looks", "scalar hit%",
		"weights", "prunes")
	for _, run := range r.Runs {
		st := run.Stats
		fmt.Fprintf(&sb, "%-22s %10d %8.1f%% %9.1f%% %8.1f%% %12d %10.1f%% %8d %9d\n",
			run.Label, st.UniqueNodes,
			rate(st.UniqueHits, st.UniqueLookups),
			rate(st.CTHits, st.CTLookups),
			100*st.CTLoadFactor(),
			st.ScalarLookups, rate(st.ScalarHits, st.ScalarLookups),
			st.InternedWeights, st.Prunes)
	}
	return sb.String()
}

// Series renders one ASCII chart (log-ish bucketed) of a quantity over
// applied gates for every run — a terminal stand-in for the paper's plots.
func Series(r *Result, quantity string, width int) string {
	if width <= 0 {
		width = 60
	}
	pick := func(s Sample) float64 {
		switch quantity {
		case "nodes":
			return float64(s.Nodes)
		case "error":
			return s.Error
		case "time":
			return s.CumSeconds
		case "bits":
			return float64(s.MaxBits)
		}
		return 0
	}
	maxVal := 0.0
	for _, run := range r.Runs {
		for _, s := range run.Samples {
			if v := pick(s); v > maxVal {
				maxVal = v
			}
		}
	}
	if maxVal == 0 {
		maxVal = 1
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s over applied gates (full scale = %.4g)\n", quantity, maxVal)
	for _, run := range r.Runs {
		fmt.Fprintf(&sb, "%-22s ", run.Label)
		// Resample the trace to the requested width.
		n := len(run.Samples)
		if n == 0 { // cancelled or refused before the first sample point
			sb.WriteString("(no samples)\n")
			continue
		}
		for i := 0; i < width; i++ {
			idx := i * n / width
			if idx >= n {
				idx = n - 1
			}
			v := pick(run.Samples[idx]) / maxVal
			sb.WriteByte(" .:-=+*#%@"[bucket(v)])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func bucket(v float64) int {
	if v <= 0 {
		return 0
	}
	b := int(v*9) + 1
	if b > 9 {
		b = 9
	}
	return b
}

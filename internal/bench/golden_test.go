package bench

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// figureCSVDigests pins the figure CSVs of smallParams byte for byte, with
// the cum_seconds column blanked: every node count, error, bit width, norm
// and failure verdict of every sample. A mismatch means the per-gate series
// changed — fix the change, not the digest, unless changing the series is
// the point.
var figureCSVDigests = map[string]string{
	"2":     "8611a999a443422ac0c2cfde6d5393fe634939fbcc9abdfb1b1bb2a8f42ee286",
	"3":     "fc53596f957ed469bd9ebefe7588a94a08c495b798fe92d7e9d16adc9163c772",
	"4":     "2204ae1a3fc2844aea6c70c6f240f50b5e446e7595d04c547a4ed57bff2bc6b5",
	"5":     "bbc23627b582dcd508292cb965012d7853770290425e5b82204ed1c67cce46db",
	"norms": "0166dcf44610212f15841f21b81492484cbbe5946f5ed709a9d0768616386a4e",
}

// csvDigest is the SHA-256 of WriteCSV's output with column 5
// (cum_seconds) emptied on every line.
func csvDigest(t *testing.T, r *Result) string {
	t.Helper()
	var sb strings.Builder
	if err := WriteCSV(&sb, r); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(sb.String(), "\n")
	for i, line := range lines {
		if f := strings.Split(line, ","); len(f) > 4 {
			f[4] = ""
			lines[i] = strings.Join(f, ",")
		}
	}
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:])
}

func TestFigureCSVGolden(t *testing.T) {
	p := smallParams()
	for _, fig := range []string{"2", "3", "4", "5", "norms"} {
		t.Run(fig, func(t *testing.T) {
			var (
				res *Result
				err error
			)
			if fig == "norms" {
				res, err = NormSchemeComparison(context.Background(), BWTCircuit(p), p.Stride, p.Parallel)
			} else {
				res, err = Figure(context.Background(), fig, p)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := csvDigest(t, res); got != figureCSVDigests[fig] {
				t.Errorf("fig %s CSV digest = %s, want %s", fig, got, figureCSVDigests[fig])
			}
		})
	}
}

// tuneCandidates are qsim tune's default -eps candidates.
var tuneCandidates = []float64{1e-3, 1e-5, 1e-10, 1e-13, 1e-15}

// goldenTuneTable pins a whole tuning session on smallParams' Grover: every
// trial's verdict and the exact reference's peak.
const goldenTuneTable = `eps=0.001 peak=119 error=0.02793313208187298 failed=false note="" accepted=false
eps=1e-05 peak=21 error=7.976027451662203e-17 failed=false note="" accepted=true
eps=1e-10 peak=21 error=8.358742452642218e-17 failed=false note="" accepted=true
eps=1e-13 peak=21 error=8.358742452642218e-17 failed=false note="" accepted=true
eps=1e-15 peak=21 error=8.358742452642218e-17 failed=false note="" accepted=true
best=1e-05 algebraic_nodes=18
`

// goldenExactPeak is the exact per-gate peak of smallParams' Grover, so
// 4 × goldenExactPeak is qsim tune's default node budget.
const goldenExactPeak = 18

func tuneTable(r *TuneResult) string {
	var sb strings.Builder
	for _, t := range r.Trials {
		fmt.Fprintf(&sb, "eps=%g peak=%d error=%g failed=%v note=%q accepted=%v\n",
			t.Eps, t.PeakNodes, t.Error, t.Failed, t.FailNote, t.Accepted)
	}
	fmt.Fprintf(&sb, "best=%g algebraic_nodes=%d\n", r.Best, r.AlgebraicNodes)
	return sb.String()
}

// TestTuneTableGolden: an explicit budget of 4× the exact peak and the
// default budget (MaxNodes 0, derived from the one reference run) give the
// same table.
func TestTuneTableGolden(t *testing.T) {
	c := GroverCircuit(smallParams())
	for _, maxNodes := range []int{4 * goldenExactPeak, 0} {
		res, err := Tune(context.Background(), c, TuneParams{
			Candidates: tuneCandidates,
			MaxNodes:   maxNodes,
			MaxError:   1e-10,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := tuneTable(res); got != goldenTuneTable {
			t.Errorf("MaxNodes %d: tune table:\n%s\nwant:\n%s", maxNodes, got, goldenTuneTable)
		}
		if res.MaxNodes != 4*goldenExactPeak {
			t.Errorf("MaxNodes %d: session budget %d, want %d", maxNodes, res.MaxNodes, 4*goldenExactPeak)
		}
	}
}

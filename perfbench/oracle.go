package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"repro/internal/alg"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/ddio"
	"repro/internal/engine"
	"repro/internal/qasm"
	"repro/internal/sim"
)

// Tolerances of the float checks: a float result's norm² must be 1 and its
// sorted top-K probabilities must match the exact result's, each within
// these absolute bounds.
const (
	normTol = 1e-6
	probTol = 1e-6
)

// digestsFile holds the committed digests of every exact result the
// benchmark can ask for, one "key digest" line each. Regenerate it with
// `go run . -gen-digests digests.txt` from this directory.
//
//go:embed digests.txt
var digestsFile string

// oracle checks results: exact (alg) results byte-exact against the
// committed digests, float results against the exact top-K.
type oracle struct {
	want map[string]string
}

func loadOracle() (*oracle, error) {
	o := &oracle{want: make(map[string]string)}
	for i, line := range strings.Split(strings.TrimSpace(digestsFile), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("digests.txt line %d: want \"key digest\"", i+1)
		}
		o.want[f[0]] = f[1]
	}
	return o, nil
}

// canonResult is the deterministic part of a result envelope: timings and
// manager statistics never take part in a digest.
type canonResult struct {
	Qubits     int                `json:"qubits"`
	Gates      int                `json:"gates"`
	Norm2      float64            `json:"norm2"`
	Amplitudes []engine.Amplitude `json:"amplitudes"`
}

// digestOf is the sha256 (first 128 bits, hex) of a result's canonical JSON.
func digestOf(r *engine.JobResult) string {
	b, err := json.Marshal(canonResult{r.Qubits, r.Gates, r.Norm2, r.Amplitudes})
	if err != nil {
		panic(err) // plain structs of numbers and strings always marshal
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// batchDigest folds the digests of one batch's variant results, indexed by
// suffix family member, into one digest.
func batchDigest(byID []*engine.JobResult) string {
	h := sha256.New()
	for id, r := range byID {
		fmt.Fprintf(h, "%d=%s\n", id, digestOf(r))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// checkDigest compares an exact result digest with the committed one.
func (o *oracle) checkDigest(key, got string) error {
	want, ok := o.want[key]
	if !ok {
		return fmt.Errorf("%s: no committed digest", key)
	}
	if got != want {
		return fmt.Errorf("%s: digest %s, committed %s", key, got, want)
	}
	return nil
}

// checkAlg checks one exact result of the named circuit.
func (o *oracle) checkAlg(name string, r *engine.JobResult) error {
	return o.checkDigest(name, digestOf(r))
}

// checkFloat checks a float result against the exact result of the same
// circuit: norm² = 1, the same number of amplitudes, sorted probabilities
// equal within probTol, and the same most likely outcome wherever the exact
// result has a clear one. A collapsed run (norm² 0, no amplitudes) fails.
func checkFloat(f, exact *engine.JobResult) error {
	switch {
	case f == nil:
		return errors.New("no result")
	case math.Abs(f.Norm2-1) > normTol:
		return fmt.Errorf("norm² %.9g, want 1 ± %g", f.Norm2, normTol)
	case len(f.Amplitudes) == 0 || len(f.Amplitudes) != len(exact.Amplitudes):
		return fmt.Errorf("%d amplitudes, exact result has %d", len(f.Amplitudes), len(exact.Amplitudes))
	}
	fp, ep := probsOf(f), probsOf(exact)
	for i := range fp {
		if math.Abs(fp[i]-ep[i]) > probTol {
			return fmt.Errorf("probability #%d is %.9g, exact %.9g", i, fp[i], ep[i])
		}
	}
	a := exact.Amplitudes
	if len(a) > 1 && a[0].Prob-a[1].Prob > probTol && f.Amplitudes[0].Index != a[0].Index {
		return fmt.Errorf("most likely outcome %d, exact %d", f.Amplitudes[0].Index, a[0].Index)
	}
	return nil
}

func probsOf(r *engine.JobResult) []float64 {
	p := make([]float64, len(r.Amplitudes))
	for i, a := range r.Amplitudes {
		p[i] = a.Prob
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(p)))
	return p
}

// resultOf builds the amplitude envelope of a final state exactly as the
// engine does for output "amplitudes".
func resultOf[T any](m *core.Manager[T], codec ddio.Codec[T], st core.Edge[T], n, gates int, repr string) *engine.JobResult {
	res := &engine.JobResult{Qubits: n, Gates: gates, Representation: repr, Norm2: m.Norm2(st), StateNodes: st.NodeCount()}
	idxs, probs := m.TopOutcomes(st, n, topK)
	for i, idx := range idxs {
		amp := m.Amplitude(st, n, idx)
		c := m.R.Complex128(amp)
		res.Amplitudes = append(res.Amplitudes, engine.Amplitude{
			Index: idx,
			State: fmt.Sprintf("%0*b", n, idx),
			Re:    real(c),
			Im:    imag(c),
			Prob:  probs[i],
			Exact: codec.Encode(amp),
		})
	}
	return res
}

// referenceAlg simulates a QASM program exactly on a fresh manager — a path
// independent of the engine, its cache and its checkpoints.
func referenceAlg(src string) (*engine.JobResult, error) {
	c, err := qasm.Parse(src, "reference")
	if err != nil {
		return nil, err
	}
	c = c.StripReadout()
	m := core.NewManager[alg.Q](alg.Ring{}, core.NormLeft)
	s := sim.New(m, c.N)
	if err := s.Run(c, nil); err != nil {
		return nil, err
	}
	return resultOf[alg.Q](m, ddio.AlgCodec{}, s.State, c.N, c.Len(), "alg"), nil
}

// referenceBatchAlg simulates the prefix once and extends its state by each
// suffix family member — exact and canonical, so identical to cold runs of
// the variants. It returns the variant results by family index.
func referenceBatchAlg(base string) ([]*engine.JobResult, error) {
	bc, err := qasm.Parse(base, "reference base")
	if err != nil {
		return nil, err
	}
	m := core.NewManager[alg.Q](alg.Ring{}, core.NormLeft)
	s := sim.New(m, bc.N)
	if err := s.Run(bc, nil); err != nil {
		return nil, err
	}
	prefixState := s.State
	out := make([]*engine.JobResult, batchVariants)
	for id := range out {
		sc, err := qasm.Parse(batchSuffix(bc.N, id), "reference suffix")
		if err != nil {
			return nil, err
		}
		v := &circuit.Circuit{N: bc.N, Gates: append(append([]circuit.Gate{}, bc.Gates...), sc.Gates...)}
		s.State = prefixState
		if err := s.RunFromCtx(context.Background(), v, len(bc.Gates), nil); err != nil {
			return nil, err
		}
		out[id] = resultOf[alg.Q](m, ddio.AlgCodec{}, s.State, v.N, v.Len(), "alg")
	}
	return out, nil
}

// writeDigests computes the digest of every exact result the benchmark can
// request, with the reference simulator, and writes the digests file.
func writeDigests(path string) error {
	var lines []string
	bwt, gse, err := paperJobs()
	if err != nil {
		return err
	}
	jobs := []job{bwt, gse}
	for i := 0; i < coldGroverPool; i++ {
		g, err := groverJob(coldGroverQubits, coldGroverMarked(i))
		if err != nil {
			return err
		}
		jobs = append(jobs, g)
	}
	for m := 0; m < 1<<serveGroverQubits; m++ {
		g, err := groverJob(serveGroverQubits, uint64(m))
		if err != nil {
			return err
		}
		jobs = append(jobs, g)
		vs, err := referenceBatchAlg(g.QASM)
		if err != nil {
			return err
		}
		lines = append(lines, fmt.Sprintf("batch/m=%d %s", m, batchDigest(vs)))
	}
	for _, j := range jobs {
		r, err := referenceAlg(j.QASM)
		if err != nil {
			return fmt.Errorf("%s: %w", j.Name, err)
		}
		lines = append(lines, j.Name+" "+digestOf(r))
	}
	sort.Strings(lines)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, l := range lines {
		io.WriteString(w, l+"\n")
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/algorithms"
	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/load"
	"repro/internal/qasm"
)

// Input sizes. Every input the system receives is generated here from the
// seed; the system only ever sees the resulting OpenQASM text.
const (
	serveGroverQubits = 8  // serve-zipf and batch-prefix Grover size
	coldGroverQubits  = 10 // cold-sim Grover size
	coldGroverPool    = 16 // cold-sim marked elements the seed picks from
	serveGroverJobs   = 28 // distinct Grover-8 circuits in the serve catalog
	serveWarmRanks    = 16 // catalog ranks served once during set-up
	batchVariants     = 16 // suffix variants per batch
	topK              = 16 // amplitude list length of every job
	floatEps          = 1e-10
	zipfS             = 1.3
)

// reprs is the order in which per-representation metrics are reported:
// exact Q[ω], float at ε=1e-10, float at ε=0.
var reprs = []string{"alg", "float", "float0"}

// job is one simulation request: a lowered circuit plus the representation
// it runs in. Name identifies the circuit; it keys the committed digests.
type job struct {
	Name   string // e.g. "grover8/m=37", "bwt6x60", "gse3b1"
	Family string // grover, bwt or gse
	QASM   string
	Repr   string // "alg" or "float" (wire names)
	Eps    float64
}

// reprKey names the job's representation as the metrics do.
func (j job) reprKey() string {
	switch {
	case j.Repr == "alg":
		return "alg"
	case j.Eps == 0:
		return "float0"
	}
	return "float"
}

// withRepr returns j in another representation.
func (j job) withRepr(key string) job {
	switch key {
	case "alg":
		j.Repr, j.Eps = "alg", 0
	case "float":
		j.Repr, j.Eps = "float", floatEps
	default:
		j.Repr, j.Eps = "float", 0
	}
	return j
}

// lowered writes c as portable OpenQASM 2.0, lowering multi-controlled and
// negatively controlled gates over clean ancillas first.
func lowered(c *circuit.Circuit) (string, error) {
	low, err := load.Lower(c)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	if err := qasm.Write(&sb, low); err != nil {
		return "", err
	}
	return sb.String(), nil
}

func groverJob(n int, marked uint64) (job, error) {
	src, err := lowered(algorithms.Grover(n, marked, 0))
	if err != nil {
		return job{}, err
	}
	return job{Name: fmt.Sprintf("grover%d/m=%d", n, marked), Family: "grover", QASM: src}, nil
}

// coldGroverMarked is the cold-sim pool of Grover-10 marked elements.
func coldGroverMarked(i int) uint64 { return uint64((i*389 + 77) % (1 << coldGroverQubits)) }

// paperJobs builds the BWT (depth 6 × 60 steps) and GSE (3 phase bits, SK
// depth 1) circuits at the repository's CI figure scale.
func paperJobs() (bwt, gse job, err error) {
	p := bench.DefaultParams()
	src, err := lowered(bench.BWTCircuit(p))
	if err != nil {
		return bwt, gse, err
	}
	bwt = job{Name: fmt.Sprintf("bwt%dx%d", p.BWTDepth, p.BWTSteps), Family: "bwt", QASM: src}
	g, err := bench.GSECircuit(p)
	if err != nil {
		return bwt, gse, err
	}
	if src, err = lowered(g); err != nil {
		return bwt, gse, err
	}
	gse = job{Name: fmt.Sprintf("gse%db%d", p.GSEPhaseBits, p.GSESKDepth), Family: "gse", QASM: src}
	return bwt, gse, nil
}

// coldSimRound is the job list of one cold-sim round, in a seeded order:
// Grover-10 (seeded marked element) in alg and float; BWT and GSE in alg,
// float and float0.
func coldSimRound(seed int64) ([]job, error) {
	rng := rand.New(rand.NewSource(seed))
	g, err := groverJob(coldGroverQubits, coldGroverMarked(rng.Intn(coldGroverPool)))
	if err != nil {
		return nil, err
	}
	bwt, gse, err := paperJobs()
	if err != nil {
		return nil, err
	}
	jobs := []job{g.withRepr("alg"), g.withRepr("float")}
	for _, c := range []job{bwt, gse} {
		for _, r := range reprs {
			jobs = append(jobs, c.withRepr(r))
		}
	}
	rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	return jobs, nil
}

// serveInputs is the serve-zipf traffic: a catalog in zipf-rank order and
// the open-loop schedule of catalog picks.
type serveInputs struct {
	Catalog  []job
	Schedule []int
	Rate     float64
}

// serveCatalog builds the catalog in rank order. The head — the ranks
// served once in set-up — mixes cheap Grover-8 and GSE hits with the two
// BWT jobs, whose 219 KB programs make the costliest hits; the tail is
// Grover-8 jobs over seeded distinct marked elements, each of which misses
// once. BWT at ε=0 is left out: one run takes over a second.
func serveCatalog(rng *rand.Rand) ([]job, error) {
	marked := rng.Perm(1 << serveGroverQubits)[:serveGroverJobs]
	grover := make([]job, len(marked))
	for i, m := range marked {
		g, err := groverJob(serveGroverQubits, uint64(m))
		if err != nil {
			return nil, err
		}
		grover[i] = g
	}
	bwt, gse, err := paperJobs()
	if err != nil {
		return nil, err
	}
	cat := []job{
		grover[0].withRepr("alg"), grover[0].withRepr("float"), gse.withRepr("alg"),
		grover[1].withRepr("alg"), gse.withRepr("float"), grover[1].withRepr("float"),
		gse.withRepr("float0"), grover[0].withRepr("float0"),
	}
	for _, g := range grover[2:4] {
		for _, r := range reprs {
			cat = append(cat, g.withRepr(r))
		}
	}
	cat = append(cat, bwt.withRepr("float"), bwt.withRepr("alg"))
	for _, g := range grover[4:] {
		for _, r := range reprs {
			cat = append(cat, g.withRepr(r))
		}
	}
	return cat, nil
}

// serveZipfInputs builds the catalog and a schedule of rate·seconds picks
// from the seed. Rank k is picked in proportion to (k+1)^-s, the zipf law
// with s = 1.3: the counts per rank are the law's expected counts (largest
// remainders rounded up), so every seed sends the same number of requests
// to each rank. The first request for each rank past the warmed head — a
// cache miss — is placed at evenly spaced slots, in a seeded order, so
// misses arrive at a steady rate instead of in a burst at the start; every
// other request fills the remaining slots in a seeded random order, never
// before its rank's first request.
func serveZipfInputs(seed int64, rate, seconds float64) (*serveInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	cat, err := serveCatalog(rng)
	if err != nil {
		return nil, err
	}
	n := max(1, int(rate*seconds))
	return &serveInputs{Catalog: cat, Schedule: zipfSchedule(rng, zipfCounts(len(cat), n), serveWarmRanks), Rate: rate}, nil
}

func zipfSchedule(rng *rand.Rand, counts []int, warm int) []int {
	n := 0
	for _, c := range counts {
		n += c
	}
	var tail []int
	for k := warm; k < len(counts); k++ {
		if counts[k] > 0 {
			tail = append(tail, k)
		}
	}
	rng.Shuffle(len(tail), func(a, b int) { tail[a], tail[b] = tail[b], tail[a] })
	firstAt := map[int]int{} // slot → rank whose first request it holds
	for i, k := range tail {
		firstAt[(2*i+1)*n/(2*len(tail))] = k
	}
	var pool []int // requests free to go in the next open slot
	for k := 0; k < min(warm, len(counts)); k++ {
		for c := counts[k]; c > 0; c-- {
			pool = append(pool, k)
		}
	}
	sched := make([]int, n)
	for s := range sched {
		k, first := firstAt[s]
		if !first && len(pool) == 0 {
			// Only first requests remain eligible: pull the next one forward.
			for d := s + 1; d < n; d++ {
				if k, first = firstAt[d]; first {
					delete(firstAt, d)
					break
				}
			}
		}
		if first {
			sched[s] = k
			for c := counts[k] - 1; c > 0; c-- {
				pool = append(pool, k)
			}
			continue
		}
		i := rng.Intn(len(pool))
		sched[s] = pool[i]
		pool[i] = pool[len(pool)-1]
		pool = pool[:len(pool)-1]
	}
	return sched
}

// zipfCounts splits n picks over ranks by the zipf law, rounding by largest
// remainder so the counts sum to n.
func zipfCounts(ranks, n int) []int {
	w := make([]float64, ranks)
	var sum float64
	for k := range w {
		w[k] = math.Pow(float64(k+1), -zipfS)
		sum += w[k]
	}
	counts := make([]int, ranks)
	rem := make([]int, ranks)
	left := n
	for k := range w {
		exact := float64(n) * w[k] / sum
		counts[k] = int(exact)
		left -= counts[k]
		rem[k] = k
		w[k] = exact - float64(counts[k])
	}
	sort.SliceStable(rem, func(a, b int) bool { return w[rem[a]] > w[rem[b]] })
	for _, k := range rem[:left] {
		counts[k]++
	}
	return counts
}

// batchRound is one batch-prefix round: a lowered Grover-8 prefix over a
// fresh marked element and the suffix family in a seeded order.
type batchRound struct {
	Marked    uint64
	Base      string
	SuffixIDs []int    // suffix family index of each variant, in submission order
	Suffixes  []string // complete programs whose gates extend Base
}

// batchSuffix is member i of the fixed Clifford+T suffix family: a t/s
// phase pattern over the data qubits followed by one Hadamard. The members
// are pairwise distinct for i < 16 and exactly representable in Q[ω].
func batchSuffix(qubits, i int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[%d];\n", qubits)
	pattern := (i*37 + 11) & 0xff
	for b := 0; b < serveGroverQubits; b++ {
		if pattern>>b&1 == 1 {
			fmt.Fprintf(&sb, "t q[%d];\n", b)
		} else {
			fmt.Fprintf(&sb, "s q[%d];\n", b)
		}
	}
	fmt.Fprintf(&sb, "h q[%d];\n", i%serveGroverQubits)
	return sb.String()
}

// batchRounds yields the round generator for a seed: round r uses the r-th
// marked element of a seeded permutation, so no round's prefix repeats an
// earlier one and checkpoints from earlier rounds never serve it. ok is
// false once the 256 marked elements are used up. Each round is a pure
// function of (seed, r).
func batchRounds(seed int64) func(r int) (batchRound, bool, error) {
	perm := rand.New(rand.NewSource(seed)).Perm(1 << serveGroverQubits)
	return func(r int) (batchRound, bool, error) {
		if r >= len(perm) {
			return batchRound{}, false, nil
		}
		rng := rand.New(rand.NewSource(seed + int64(r+1)*7919))
		b := batchRound{Marked: uint64(perm[r])}
		g, err := groverJob(serveGroverQubits, b.Marked)
		if err != nil {
			return b, false, err
		}
		b.Base = g.QASM
		qubits, err := qasmQubits(g.QASM)
		if err != nil {
			return b, false, err
		}
		b.SuffixIDs = rng.Perm(batchVariants)
		for _, id := range b.SuffixIDs {
			b.Suffixes = append(b.Suffixes, batchSuffix(qubits, id))
		}
		return b, true, nil
	}
}

func qasmQubits(src string) (int, error) {
	c, err := qasm.Parse(src, "input")
	if err != nil {
		return 0, err
	}
	return c.N, nil
}

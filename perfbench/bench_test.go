package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/qcache"
	"repro/internal/ring"
)

// declared reads the metric lists of BENCHMARK.json.
func declared(t *testing.T) (e2e, layers map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		layers[m.Name] = m.Unit
	}
	return e2e, layers
}

func asMap(defs []metricDef) map[string]string {
	m := map[string]string{}
	for _, d := range defs {
		m[d.name] = d.unit
	}
	return m
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	e2e, layers := declared(t)
	if got := asMap(endToEnd); !reflect.DeepEqual(got, e2e) {
		t.Errorf("end-to-end metrics differ from BENCHMARK.json:\n got %v\nwant %v", got, e2e)
	}
	if got := asMap(perLayer); !reflect.DeepEqual(got, layers) {
		t.Errorf("per-layer metrics differ from BENCHMARK.json:\n got %v\nwant %v", got, layers)
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that the last output line names every declared metric with its
// unit and that every output was correct.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e2e, layers := declared(t)
	for _, w := range []string{"cold-sim", "serve-zipf", "batch-prefix"} {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, traced), func(t *testing.T) {
				var buf bytes.Buffer
				o := opts{workload: w, seed: 3, seconds: 0.3, trace: traced, out: t.TempDir()}
				if err := run(o, &buf); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				if !strings.HasPrefix(lines[0], "host {") {
					t.Errorf("first line is not the host record: %q", lines[0])
				}
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := e2e
				if traced {
					want = layers
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, %d declared", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
						t.Errorf("metric %s: got %+v, want unit %q", name, m, unit)
					}
				}
			})
		}
	}
}

// TestCheckerFlagsCollapsedFloat replays a real failure: BWT 6×60 in float
// at ε=1e-15 finishes with status done, norm² 0 and no amplitudes — the
// paper's zero-vector collapse. The serve harness behind BENCH_serve.json
// counted that job as ok; the checker must not.
func TestCheckerFlagsCollapsedFloat(t *testing.T) {
	bwt, _, err := paperJobs()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(engine.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Shutdown(time.Minute)
	collapsed := bwt.withRepr("float")
	collapsed.Eps = 1e-15
	v, err := submitWait(eng, collapsed)
	if err != nil {
		t.Fatal(err)
	}
	if v.Result.Norm2 != 0 || len(v.Result.Amplitudes) != 0 {
		t.Fatalf("expected the collapsed result (norm² 0, no amplitudes), got norm² %g with %d amplitudes", v.Result.Norm2, len(v.Result.Amplitudes))
	}
	or, err := loadOracle()
	if err != nil {
		t.Fatal(err)
	}
	exact, err := submitWait(eng, bwt.withRepr("alg"))
	if err != nil {
		t.Fatal(err)
	}
	if err := or.checkAlg(bwt.Name, exact.Result); err != nil {
		t.Fatal(err)
	}
	if err := checkFloat(v.Result, exact.Result); err == nil {
		t.Error("checker accepted a collapsed float result")
	}
	good, err := submitWait(eng, bwt.withRepr("float"))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFloat(good.Result, exact.Result); err != nil {
		t.Errorf("checker refused a good float result: %v", err)
	}
	recs := []record{{job: collapsed, res: v.Result}, {job: bwt.withRepr("alg"), res: exact.Result}}
	if _, failed := checkJobs(recs, or); failed != 1 {
		t.Errorf("checkJobs counted %d failures, want 1", failed)
	}
}

func TestDigestsFileIsCurrent(t *testing.T) {
	or, err := loadOracle()
	if err != nil {
		t.Fatal(err)
	}
	bwt, gse, err := paperJobs()
	if err != nil {
		t.Fatal(err)
	}
	g, err := groverJob(serveGroverQubits, 200)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []job{gse, g} {
		r, err := referenceAlg(j.QASM)
		if err != nil {
			t.Fatal(err)
		}
		if err := or.checkAlg(j.Name, r); err != nil {
			t.Error(err)
		}
	}
	vs, err := referenceBatchAlg(g.QASM)
	if err != nil {
		t.Fatal(err)
	}
	if err := or.checkDigest("batch/m=200", batchDigest(vs)); err != nil {
		t.Error(err)
	}
	if _, ok := or.want[bwt.Name]; !ok {
		t.Errorf("no digest for %s", bwt.Name)
	}
}

// heldOutSeed is never used while tuning the benchmark or a change; a
// claimed gain must also hold on it (README.md).
const heldOutSeed = 1009

func TestSeededInputs(t *testing.T) {
	a, err := serveZipfInputs(7, serveRate, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := serveZipfInputs(7, serveRate, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("one seed gave two different serve inputs")
	}
	c, err := serveZipfInputs(heldOutSeed, serveRate, 10)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Schedule, c.Schedule) {
		t.Error("two seeds gave the same schedule")
	}
	counts := zipfCounts(len(a.Catalog), len(a.Schedule))
	seen := make([]int, len(a.Catalog))
	for _, k := range a.Schedule {
		seen[k]++
	}
	if !reflect.DeepEqual(seen, counts) {
		t.Errorf("schedule does not follow the zipf counts")
	}
	for k := 1; k < len(counts); k++ {
		if counts[k] > counts[k-1] {
			t.Errorf("zipf count rises at rank %d", k)
		}
	}

	ra, rb, rc := batchRounds(7), batchRounds(7), batchRounds(heldOutSeed)
	x, _, err := ra(3)
	if err != nil {
		t.Fatal(err)
	}
	y, _, _ := rb(3)
	z, _, _ := rc(3)
	if !reflect.DeepEqual(x, y) || reflect.DeepEqual(x, z) {
		t.Error("batch rounds are not a pure function of (seed, round)")
	}

	// The same seed gives the same result digests.
	da, db := replayDigests(t, a), replayDigests(t, b)
	if !reflect.DeepEqual(da, db) {
		t.Error("replays of one seed gave different result digests")
	}
}

func replayDigests(t *testing.T, in *serveInputs) []string {
	t.Helper()
	cache, err := qcache.New(serveCacheBytes, "")
	if err != nil {
		t.Fatal(err)
	}
	rp := newReplayer(cache, ring.New([]string{"a", "b"}, 0))
	var out []string
	for i, p := range in.Schedule[:40] {
		if in.Catalog[p].Family == "bwt" {
			continue // kept out for time; the digests file covers it
		}
		res, err := rp.job(fmt.Sprint(i), in.Catalog[p])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, digestOf(res))
	}
	return out
}

// TestReplayCountsRepeat is the determinism self-test: two replays of one
// seed report identical per-layer counts. They are counts, not speeds.
// Allocations per gate repeat to within 0.1%: Go seeds every
// map's hash randomly, and map growth allocates by the resulting layout.
func TestReplayCountsRepeat(t *testing.T) {
	counts := func() map[string]float64 {
		cache, err := qcache.New(batchCacheBytes, "")
		if err != nil {
			t.Fatal(err)
		}
		rp := newReplayer(cache, nil)
		rp.tr = &tracer{}
		br, _, err := batchRounds(5)(0)
		if err != nil {
			t.Fatal(err)
		}
		for i, key := range batchReprs {
			if err := rp.batch(fmt.Sprint(i), i, br, batchJob(br, key)); err != nil {
				t.Fatal(err)
			}
		}
		rep := newReport()
		rp.metrics(rep)
		out := map[string]float64{}
		for name, m := range rep.metrics {
			// qcache.bytes is left out: envelopes carry their elapsed_ms.
			if m.Unit == "count" || name == "prefix.checkpoint_bytes" || m.Unit == "bits" || m.Unit == "allocs/gate" ||
				m.Unit == "B/gate" || strings.HasSuffix(name, "_ratio") || strings.Contains(name, "hit_ratio") {
				out[name] = m.Value
			}
		}
		return out
	}
	counts() // first use fills package-level gate and ring caches
	a, b := counts(), counts()
	if len(a) < 30 {
		t.Fatalf("only %d counts compared", len(a))
	}
	for name, v := range a {
		tol := 0.0
		if strings.Contains(name, "_per_gate.") {
			if raceEnabled {
				continue
			}
			tol = 1e-3 * v // map growth follows the random hash seed
		}
		if math.Abs(b[name]-v) > tol {
			t.Errorf("%s: %v then %v", name, v, b[name])
		}
	}
	if a["prefix.checkpoints"] == 0 || a["prefix.gates_skipped_ratio"] == 0 {
		t.Errorf("the batch replay stored no checkpoints or skipped no gates: %v", a)
	}
}

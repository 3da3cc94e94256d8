// Command perfbench is the repository's layered benchmark. It drives the
// simulation service through its public entry points — engine.Submit and
// SubmitBatch, and router.Router in front of server.Server — on inputs it
// generates from a seed, checks every result, and prints the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run) named in
// BENCHMARK.json. See README.md in this directory.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload cold-sim --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"text/tabwriter"
	"time"

	"repro/internal/engine"
)

// opts are the command-line settings of one run.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for span files
}

func (o opts) duration() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a run prints: the checked-output tally, the metrics and an
// informational line for people (sample counts, limits, host).
type report struct {
	attempted, failed int
	metrics           map[string]metric
	info              map[string]any
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, info: map[string]any{}}
}

// set records a metric; its unit comes from the declared metric table.
func (r *report) set(name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	r.metrics[name] = metric{Value: v, Unit: u}
}

func (r *report) count(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(opts, *oracle, *report) error{
	"cold-sim":     runColdSim,
	"serve-zipf":   runServeZipf,
	"batch-prefix": runBatchPrefix,
}

func main() {
	var o opts
	var traceFlag int
	var gen string
	flag.StringVar(&o.workload, "workload", "", "workload: cold-sim, serve-zipf or batch-prefix")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run: print the per-layer metrics and write spans")
	flag.StringVar(&o.out, "out", filepath.Join("perfbench", "out"), "directory for span files of traced runs")
	flag.StringVar(&gen, "gen-digests", "", "write the committed exact-result digests to this file and exit")
	flag.Parse()
	o.trace = traceFlag == 1

	if gen != "" {
		if err := writeDigests(gen); err != nil {
			fatal(err)
		}
		return
	}
	if err := run(o, os.Stdout); err != nil {
		fatal(err)
	}
}

// run executes one benchmark run and writes its report to w; the last line
// is the result object.
func run(o opts, w io.Writer) error {
	workload, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 {
		return fmt.Errorf("unknown workload %q or non-positive --seconds (workloads: cold-sim, serve-zipf, batch-prefix)", o.workload)
	}
	or, err := loadOracle()
	if err != nil {
		return err
	}
	rep := newReport()
	if err := workload(o, or, rep); err != nil {
		return err
	}
	rep.set("peak_rss_mb", peakRSSMB())
	if !o.trace {
		rep.set("ok_ratio", ratio(float64(rep.attempted-rep.failed), float64(rep.attempted)))
	}
	if rep.attempted < 1 {
		return errors.New("no request was attempted")
	}
	names := endToEnd
	if o.trace {
		names = perLayer
	}
	out := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	var missing []string
	for _, n := range names {
		m, ok := rep.metrics[n.name]
		if !ok {
			missing = append(missing, n.name)
		}
		out.Metrics[n.name] = m
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %v", missing)
	}
	hostLine, err := json.Marshal(host(o.workload, o.seed, int(o.seconds), o.trace))
	if err != nil {
		return err
	}
	infoLine, err := json.Marshal(rep.info)
	if err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "host %s\ninfo %s\n%s\n", hostLine, infoLine, line)
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// record is one client-visible request: a job (or one variant of a batch),
// what came back, and how long the client waited for it.
type record struct {
	job     job
	round   int
	res     *engine.JobResult
	cached  bool
	latency time.Duration
	err     error // refusal or transport failure
	batch   int   // batch-prefix: batch index
	suffix  int   // batch-prefix: suffix family member

	due  time.Time       // serve-zipf: when the request was due
	view *engine.JobView // serve-zipf: the job view as served
}

func (r *record) setView(v engine.JobView) {
	r.res, r.cached = v.Result, v.Cached
	if v.Status != engine.StatusDone && r.err == nil {
		msg := v.Status
		if v.Error != nil {
			msg += ": " + v.Error.Message
		}
		r.err = errors.New(msg)
	}
}

// checkJobs checks every record against the oracle and returns the number
// attempted and failed. Exact results are checked against the committed
// digests; float results against the exact result of the same circuit —
// one seen in the run, or else the reference simulator's.
func checkJobs(recs []record, or *oracle) (attempted, failed int) {
	exact := map[string]*engine.JobResult{}
	bad := make([]bool, len(recs))
	fail := func(i int, err error) {
		fmt.Fprintf(os.Stderr, "check: %s/%s: %v\n", recs[i].job.Name, recs[i].job.reprKey(), err)
		bad[i] = true
		failed++
	}
	for i, r := range recs {
		switch {
		case r.err != nil:
			fail(i, r.err)
		case r.res == nil:
			fail(i, errors.New("no result"))
		case r.job.Repr == "alg":
			if err := or.checkAlg(r.job.Name, r.res); err != nil {
				fail(i, err)
			} else {
				exact[r.job.Name] = r.res
			}
		}
	}
	for i, r := range recs {
		if bad[i] || r.job.Repr == "alg" {
			continue
		}
		ref, ok := exact[r.job.Name]
		if !ok {
			var err error
			if ref, err = referenceAlg(r.job.QASM); err == nil {
				err = or.checkAlg(r.job.Name, ref)
			}
			if err != nil {
				fail(i, fmt.Errorf("reference: %w", err))
				continue
			}
			exact[r.job.Name] = ref
		}
		if err := checkFloat(r.res, ref); err != nil {
			fail(i, err)
		}
	}
	return len(recs), failed
}

// setupRuns is how many times a run brings its system up; setup_s is the
// median, and the last system brought up is the one measured.
const setupRuns = 3

// timedSetup brings a system up setupRuns times, closing all but the last,
// and returns the last with the median bring-up time in seconds.
func timedSetup[S any](up func() (S, error), down func(S)) (S, float64, error) {
	var s S
	var times []float64
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		next, err := up()
		if err != nil {
			return s, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i > 0 {
			down(s)
			// Return the discarded system's memory, so the measured run
			// starts from the same heap whichever set-up was slowest.
			debug.FreeOSMemory()
		}
		s = next
	}
	return s, median(times), nil
}

// engineSpans adds the engine's side of a job, from the stamps on its view:
// the wait in the queue and the run on a worker. A job served from the
// cache has neither.
func engineSpans(tr *tracer, rid string, parent int, v engine.JobView) {
	if tr == nil || v.StartedAt == nil || v.FinishedAt == nil {
		return
	}
	tr.add("engine.queue_wait", rid, parent, v.QueuedAt, *v.StartedAt)
	tr.add("engine.run", rid, parent, *v.StartedAt, *v.FinishedAt)
}

// traced is the traced run of a workload. It runs the workload's loop for
// half the time untraced and half traced, each on a freshly set-up system,
// so the difference of their median latencies is the tracing overhead; then
// it sends the workload's replay slice through the replayer. Spans of both
// go to one file under o.out together with the per-layer self times.
func traced(o opts, or *oracle, rep *report, check func([]record, *oracle) (int, int),
	loop func(time.Duration, *tracer) ([]record, error), replay func(*replayer) error, rp *replayer) error {
	half := o.duration() / 2
	base, err := loop(half, nil)
	if err != nil {
		return err
	}
	tr := &tracer{}
	recs, err := loop(half, tr)
	if err != nil {
		return err
	}
	rp.tr = tr
	if err := replay(rp); err != nil {
		return err
	}
	for _, set := range [][]record{base, recs, rp.recs} {
		rep.count(check(set, or))
	}

	untracedMS, tracedMS := median(latenciesMS(base)), median(latenciesMS(recs))
	rep.set("trace.overhead_ms", tracedMS-untracedMS)
	total, self := tr.times()
	rep.set("server.handle_self_ms", mean(msOf(self["server.ServeHTTP"])))
	wait := msOf(total["engine.queue_wait"])
	rep.set("engine.queue_wait_ms.p50", percentile(wait, 0.50))
	rep.set("engine.queue_wait_ms.p99", percentile(wait, 0.99))
	rp.metrics(rep)

	path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	err = tr.write(path, map[string]any{
		"host":                    host(o.workload, o.seed, int(o.seconds), true),
		"untraced_latency_ms_p50": untracedMS,
		"traced_latency_ms_p50":   tracedMS,
		"tracing_overhead_ms":     tracedMS - untracedMS,
	})
	if err != nil {
		return err
	}
	rep.info["spans"] = path
	tw := tabwriter.NewWriter(os.Stderr, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "span\tcount\ttotal ms\tself ms\t")
	for _, l := range tr.layers() {
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t\n", l.Name, l.Count, l.TotalMS, l.SelfMS)
	}
	return tw.Flush()
}

// roundRates reports gates_per_s.* and variants_per_s.* for a closed loop
// of rounds: per round and representation, the gates and the results of
// the correct-looking replies over the client's wait for them (share of
// each record's latency), as the median over rounds.
func roundRates(recs []record, share float64, rep *report) {
	type acc struct{ gates, results, secs float64 }
	rounds := map[int]map[string]*acc{}
	for _, r := range recs {
		byRepr := rounds[r.round]
		if byRepr == nil {
			byRepr = map[string]*acc{}
			rounds[r.round] = byRepr
		}
		a := byRepr[r.job.reprKey()]
		if a == nil {
			a = &acc{}
			byRepr[r.job.reprKey()] = a
		}
		a.secs += share * r.latency.Seconds()
		if r.err == nil && r.res != nil {
			a.gates += float64(r.res.Gates)
			a.results++
		}
	}
	for _, key := range reprs {
		var gps, rps []float64
		for _, byRepr := range rounds {
			if a := byRepr[key]; a != nil {
				gps = append(gps, ratio(a.gates, a.secs))
				rps = append(rps, ratio(a.results, a.secs))
			}
		}
		rep.set("gates_per_s."+key, median(gps))
		if key != "float" { // variants/s is declared for alg and float0 only
			rep.set("variants_per_s."+key, median(rps))
		}
	}
	rep.info["rounds"] = len(rounds)
}

func latenciesMS(recs []record) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = ms(r.latency)
	}
	return out
}

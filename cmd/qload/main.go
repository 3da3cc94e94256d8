// Command qload is the open-loop SLO harness for a qmddd tier: it replays a
// mixed Grover/BWT/GSE × representation × ε workload catalog against a
// router or worker at a fixed arrival rate with zipf repeat structure,
// measures serving latency percentiles against a declared p99 objective,
// and writes a BENCH_serve.json report.
//
//	qload -target http://localhost:8090 -rate 20 -duration 30s \
//	      -slo-p99 2s -seed 7 -out BENCH_serve.json
//
// qload is open-loop: arrivals fire on schedule whether or not earlier jobs
// finished, so saturation shows up as latency (and shed 429s), never as a
// politely reduced offered rate. Every job is seed-pinned, so the report's
// results_digest is byte-identical across replays with the same -seed —
// a cross-run and cross-worker determinism check, not just a benchmark.
//
// The exit status encodes the verdict: 0 when the SLO passed (or none was
// declared), 1 on harness errors, 2 when the SLO failed, 3 when any
// workload returned inconsistent results across repeats.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/load"
)

func main() {
	var (
		target   = flag.String("target", "http://localhost:8090", "base URL of the qrouter (or a single qmddd worker)")
		rate     = flag.Float64("rate", 10, "offered arrival rate, jobs/second")
		duration = flag.Duration("duration", 10*time.Second, "how long to generate arrivals")
		sloP99   = flag.Duration("slo-p99", 0, "p99 latency objective the run is judged against (0 = no verdict)")
		seed     = flag.Int64("seed", 1, "workload pick sequence seed (same seed = same sequence = same results digest)")
		zipfS    = flag.Float64("zipf-s", 1.3, "zipf skew of workload repeats (>1; higher = more repeats)")
		topk     = flag.Int("topk", 16, "amplitudes requested per job")
		timeout  = flag.Duration("timeout", 60*time.Second, "per-request deadline")
		tenant   = flag.String("tenant", "", "X-Tenant header value (router admission control)")
		out      = flag.String("out", "BENCH_serve.json", "report path (\"-\" = stdout)")
		scale    = flag.String("scale", "ci", "workload circuit scale: ci (seconds) or paper (hours)")
		grover   = flag.Int("grover-qubits", 0, "override the Grover workload width (0 = scale default)")
	)
	flag.Parse()
	log.SetPrefix("qload: ")
	log.SetFlags(0)

	p := bench.DefaultParams()
	switch *scale {
	case "ci":
	case "paper":
		p.GroverQubits = 15
	default:
		log.Fatalf("unknown -scale %q (want ci or paper)", *scale)
	}
	if *grover > 0 {
		p.GroverQubits = *grover
	}

	log.Printf("building workload catalog (%s scale)…", *scale)
	wls, err := load.Catalog(p)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("%d workloads; offering %.3g jobs/s to %s for %v", len(wls), *rate, *target, *duration)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	rep, err := load.Run(ctx, load.Options{
		Target:   *target,
		Rate:     *rate,
		Duration: *duration,
		SLOP99:   *sloP99,
		Seed:     *seed,
		ZipfS:    *zipfS,
		TopK:     *topk,
		Timeout:  *timeout,
		Tenant:   *tenant,
	}, wls)
	if err != nil {
		log.Fatal(err)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
	} else {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("report written to %s", *out)
	}

	log.Printf("requests=%d ok=%d shed=%d errors=%d cache_hit_rate=%.2f p50=%.1fms p99=%.1fms p999=%.1fms verdict=%s",
		rep.Requests, rep.OK, rep.Shed, rep.Errors, rep.CacheHitRate,
		rep.LatencyMS.P50, rep.LatencyMS.P99, rep.LatencyMS.P999, rep.SLO.Verdict)

	for _, wl := range rep.Workloads {
		if !wl.Consistent {
			fmt.Fprintf(os.Stderr, "qload: workload %s returned INCONSISTENT results across repeats\n", wl.Name)
			os.Exit(3)
		}
	}
	if rep.SLO.Verdict == "fail" {
		os.Exit(2)
	}
}

// Command qrouter is the stateless front tier of a qmddd cluster: it
// consistent-hashes each submitted circuit's canonical fingerprint onto a
// fixed worker membership, so repeats of a circuit always land on the worker
// whose result cache is already warm for it, reroutes around dead or
// draining workers in ring order, and sheds load early — per-tenant
// token-bucket admission control and queue-latency shedding both answer 429
// with a Retry-After the client can obey.
//
//	qrouter -addr :8090 -workers http://w1:8080,http://w2:8080 \
//	        -shed-latency 2s -tenant-rate 50 -tenant-burst 100
//
// Endpoints:
//
//	POST /v1/jobs             submit a circuit (routed to its ring owner)
//	GET  /v1/jobs/{id}        poll a job (scattered over the membership)
//	GET  /v1/jobs/{id}/result fetch a finished job's result (scattered)
//	GET  /v1/cluster          membership, ring shape, per-worker health
//	GET  /v1/version          build identity
//	GET  /healthz             liveness
//	GET  /readyz              readiness (503 while no worker is ready)
//	GET  /metrics             Prometheus text metrics (qrouter_* families)
//
// The router holds no job state: any number of qrouter processes can front
// the same -workers list and make identical routing decisions.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/router"
)

func main() {
	var (
		addr        = flag.String("addr", ":8090", "listen address")
		workers     = flag.String("workers", "", "comma-separated base URLs of the qmddd workers (required)")
		probeEvery  = flag.Duration("probe-interval", time.Second, "worker readiness poll period")
		probeTO     = flag.Duration("probe-timeout", 2*time.Second, "per-probe deadline")
		shedLatency = flag.Duration("shed-latency", 0, "refuse jobs with 429 when the target worker's estimated queue wait exceeds this (0 = off)")
		tenantRate  = flag.Float64("tenant-rate", 0, "sustained jobs/second allowed per tenant (X-Tenant header; 0 = no admission control)")
		tenantBurst = flag.Float64("tenant-burst", 0, "per-tenant burst size (0 = ceil(tenant-rate))")
		maxBody     = flag.Int64("max-body", 1<<20, "request body cap in bytes")
		accessLog   = flag.Bool("access-log", false, "emit one structured access-log line per HTTP exchange to stderr")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println("qrouter", buildinfo.Read())
		return
	}

	var logw io.Writer
	if *accessLog {
		logw = os.Stderr
	}
	rt, err := router.New(router.Config{
		Workers:       strings.Split(*workers, ","),
		ProbeInterval: *probeEvery,
		ProbeTimeout:  *probeTO,
		ShedLatency:   *shedLatency,
		TenantRate:    *tenantRate,
		TenantBurst:   *tenantBurst,
		MaxBodyBytes:  *maxBody,
		AccessLog:     logw,
	})
	if err != nil {
		log.Fatalf("qrouter: %v", err)
	}
	defer rt.Close()

	log.SetPrefix("qrouter: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)
	log.Printf("listening on %s, %d workers (%s)", *addr, len(rt.Healths()), buildinfo.Read())
	srv := &http.Server{
		Addr:              *addr,
		Handler:           rt,
		ReadHeaderTimeout: 10 * time.Second,
	}
	log.Fatal(srv.ListenAndServe())
}

// Command qmddd is the networked QMDD simulation daemon: it accepts
// OpenQASM circuits over HTTP/JSON, runs them on a fixed-size worker pool
// with per-request resource governors, and serves observability endpoints.
//
//	qmddd -addr :8080 -workers 4 -queue 128 -timeout-cap 30s
//
// Endpoints:
//
//	POST /v1/jobs             submit a circuit ({"qasm": …, "wait": true})
//	POST /v1/batches          submit N variants sharing one simulated-once prefix
//	GET  /v1/batches/{id}     poll a batch's aggregate per-variant view
//	GET  /v1/jobs/{id}        poll job status
//	GET  /v1/jobs/{id}/result fetch the finished job's result
//	GET  /v1/cache/{key}      cache peering: the stamped envelope for a key
//	GET  /v1/version          build identity
//	GET  /healthz             liveness (200 while the process serves at all)
//	GET  /readyz              readiness (503 while draining or warming)
//	GET  /metrics             Prometheus text metrics
//
// In a cluster, give every worker -self (its advertised URL) and -peers (the
// full membership): on a local cache miss the worker first asks the ring
// owners of the key for their stored result envelope — validated by checksum
// and provenance stamp — so a topology change migrates warm results instead
// of recomputing them. Put cmd/qrouter in front to shard jobs onto the same
// membership.
//
// On SIGTERM/SIGINT the daemon stops intake (readyz flips unready; healthz
// stays live), drains in-flight jobs through the run governor until -drain
// expires (then cancels them cooperatively), and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		workers     = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queueSize   = flag.Int("queue", 64, "bounded job queue capacity (full queue answers 429)")
		maxBody     = flag.Int64("max-body", 1<<20, "request body cap in bytes (larger answers 413)")
		maxJobs     = flag.Int("max-jobs", 1024, "retained job records")
		maxQubits   = flag.Int("max-qubits", 64, "circuit width cap")
		maxShots    = flag.Int("max-shots", 0, "per-job shot-count cap for histogram jobs (0 = default 1048576); larger requests are rejected")
		nodeCap     = flag.Int("node-cap", 0, "server-side cap on per-job MaxNodes budget (0 = none)")
		weightCap   = flag.Int("weight-cap", 0, "server-side cap on per-job MaxWeights budget (0 = none)")
		byteCap     = flag.Int64("byte-cap", 0, "server-side cap on per-job MaxBytes budget (0 = none)")
		timeoutCap  = flag.Duration("timeout-cap", 0, "server-side cap on per-job wall clock; also the default when a job asks for none (0 = none)")
		minFidFloor = flag.Float64("min-fidelity-floor", 0, "server-side floor for fidelity-bounded approximation: min_fidelity requests below it are raised to it (0 = no floor)")
		cacheBytes  = flag.Int64("cache-bytes", 0, "in-memory result-cache byte cap (0 = cache off)")
		cacheDir    = flag.String("cache-dir", "", "result-cache disk tier; persists across restarts (empty = no disk tier)")
		cacheMax    = flag.Int64("cache-max-bytes", 0, "disk-tier byte cap with LRU-by-access-time eviction (0 = unbounded)")
		ckptEvery   = flag.Int("checkpoint-every", 64, "prefix-checkpoint cadence in gates; warm-starts later runs sharing a prefix (negative = off; needs a cache)")
		ckptBytes   = flag.Int64("checkpoint-bytes", 4<<20, "per-checkpoint serialized size cap; oversized snapshots are skipped (negative = unlimited)")
		maxVariants = flag.Int("max-batch-variants", 128, "variant-count cap for one POST /v1/batches submission")
		self        = flag.String("self", "", "this node's advertised base URL for cache peering (e.g. http://10.0.0.3:8080)")
		peers       = flag.String("peers", "", "comma-separated base URLs of the cluster membership (cache peering off when empty)")
		peerTimeout = flag.Duration("peer-timeout", 2*time.Second, "per-fetch deadline for peer cache lookups")
		accessLog   = flag.Bool("access-log", false, "emit one structured access-log line per HTTP exchange to stderr")
		drain       = flag.Duration("drain", 15*time.Second, "graceful-shutdown drain deadline for in-flight jobs")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println("qmddd", buildinfo.Read())
		return
	}
	if *minFidFloor < 0 || *minFidFloor >= 1 {
		log.Fatalf("qmddd: -min-fidelity-floor must be in [0, 1), got %v", *minFidFloor)
	}

	var logw io.Writer
	if *accessLog {
		logw = os.Stderr
	}
	srv, err := server.New(server.Config{
		Workers:          *workers,
		QueueSize:        *queueSize,
		MaxBodyBytes:     *maxBody,
		MaxJobs:          *maxJobs,
		MaxQubits:        *maxQubits,
		MaxShots:         *maxShots,
		NodeCap:          *nodeCap,
		WeightCap:        *weightCap,
		ByteCap:          *byteCap,
		TimeoutCap:       *timeoutCap,
		MinFidelityFloor: *minFidFloor,
		CacheBytes:       *cacheBytes,
		CacheDir:         *cacheDir,
		CacheMaxBytes:    *cacheMax,
		CheckpointEvery:  *ckptEvery,
		CheckpointBytes:  *ckptBytes,
		MaxBatchVariants: *maxVariants,
		Self:             *self,
		Peers:            strings.Split(*peers, ","),
		PeerTimeout:      *peerTimeout,
		AccessLog:        logw,
	})
	if err != nil {
		log.Fatalf("qmddd: %v", err)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	log.SetPrefix("qmddd: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)

	errCh := make(chan error, 1)
	go func() {
		log.Printf("listening on %s (%s)", *addr, buildinfo.Read())
		errCh <- httpSrv.ListenAndServe()
	}()

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	select {
	case err := <-errCh:
		log.Fatalf("listener failed: %v", err)
	case <-sigCtx.Done():
	}

	// Drain order matters: finish the accepted jobs first so handlers blocked
	// on "wait": true jobs can flush their responses, then shut the listener
	// down gracefully.
	log.Printf("signal received; draining (deadline %v)", *drain)
	start := time.Now()
	srv.Shutdown(*drain)
	httpCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(httpCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	log.Printf("drained in %v; exiting", time.Since(start).Round(time.Millisecond))
}

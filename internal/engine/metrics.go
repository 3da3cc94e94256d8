package engine

import (
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/parsememo"
	"repro/internal/qcache"
)

// metrics is the engine's observability state, rendered as Prometheus text
// exposition format by render — stdlib only, no client library. Job-level
// counters are lock-free atomics bumped on the request and worker paths;
// per-worker utilization and the last manager table snapshot are guarded by
// a mutex and written only by the owning worker between jobs, so scrapes
// never contend with diagram arithmetic.
type metrics struct {
	started   atomic.Uint64 // jobs dequeued by a worker
	completed atomic.Uint64 // jobs finished successfully
	failed    atomic.Uint64 // jobs finished with an error (budget, run error)
	cancelled atomic.Uint64 // jobs cancelled (timeout, shutdown)
	rejected  atomic.Uint64 // submissions refused with 429
	deduped   atomic.Uint64 // submissions collapsed onto an identical in-flight job
	peerHits  atomic.Uint64 // misses answered by a ring peer's cache instead of a simulation

	approximated    atomic.Uint64 // jobs completed approximately (fidelity-bounded degradation fired)
	approxEvents    atomic.Uint64 // approximation events across all jobs
	fidelityGivenUp floatCounter  // Σ (1 − retained fidelity) over approximate jobs

	prefixHits         atomic.Uint64 // jobs warm-started from a prefix checkpoint
	prefixGatesSkipped atomic.Uint64 // gates skipped by warm starts (Σ resume positions)
	checkpointsStored  atomic.Uint64 // prefix-state checkpoints written to the cache
	checkpointBytes    atomic.Uint64 // serialized bytes across stored checkpoints
	batches            atomic.Uint64 // batch submissions accepted
	batchVariants      atomic.Uint64 // variant jobs across accepted batches

	queueLatency histogram // submit → worker pickup, seconds

	mu      sync.Mutex
	workers []workerMetrics
}

// floatCounter is a lock-free monotone float64 counter (CAS on the bit
// pattern — the stdlib has no atomic float).
type floatCounter struct {
	bits atomic.Uint64
}

func (c *floatCounter) add(v float64) {
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (c *floatCounter) load() float64 { return math.Float64frombits(c.bits.Load()) }

// histogram is a fixed-bucket Prometheus histogram (cumulative buckets plus
// sum and count). Good enough for queue latency; no client library needed.
type histogram struct {
	mu     sync.Mutex
	counts [len(queueLatencyBuckets) + 1]uint64 // last bucket is +Inf
	sum    float64
	total  uint64
}

// queueLatencyBuckets spans sub-millisecond pickups on an idle pool out to
// the multi-second waits of a saturated queue.
var queueLatencyBuckets = [...]float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}

func (h *histogram) observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sum += v
	h.total++
	for i, le := range queueLatencyBuckets {
		if v <= le {
			h.counts[i]++
			return
		}
	}
	h.counts[len(queueLatencyBuckets)]++
}

func (h *histogram) render(w io.Writer, name, help string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum uint64
	for i, le := range queueLatencyBuckets {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, le, cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.total)
	fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", name, h.sum, name, h.total)
}

// workerMetrics is one worker's cumulative utilization plus the table
// statistics of the manager its last job ran on.
type workerMetrics struct {
	jobs      uint64
	busy      time.Duration
	peakNodes int // max per-job peak observed over the worker's lifetime
	lastSnap  core.Snapshot
	hasSnap   bool
}

func newMetrics(workers int) *metrics {
	return &metrics{workers: make([]workerMetrics, workers)}
}

// observe records one finished job on worker w.
func (m *metrics) observe(w int, busy time.Duration, snap core.Snapshot) {
	m.mu.Lock()
	defer m.mu.Unlock()
	wm := &m.workers[w]
	wm.jobs++
	wm.busy += busy
	if snap.PeakNodes > wm.peakNodes {
		wm.peakNodes = snap.PeakNodes
	}
	wm.lastSnap = snap
	wm.hasSnap = true
}

// avgServiceSeconds estimates mean per-job service time across the pool —
// the number a readiness probe reports so the router can turn queue depth
// into an expected-wait estimate. Zero until the first job finishes.
func (m *metrics) avgServiceSeconds() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var jobs uint64
	var busy time.Duration
	for i := range m.workers {
		jobs += m.workers[i].jobs
		busy += m.workers[i].busy
	}
	if jobs == 0 {
		return 0
	}
	return busy.Seconds() / float64(jobs)
}

// AvgServiceSeconds reports the pool's mean per-job wall-clock service time.
func (e *Engine) AvgServiceSeconds() float64 { return e.met.avgServiceSeconds() }

// PeerHits reports misses answered by a ring peer's cache.
func (e *Engine) PeerHits() uint64 { return e.met.peerHits.Load() }

// JobsStarted reports jobs dequeued by a worker (the counter the cluster
// smoke test asserts on to prove a warm key was served without simulation).
func (e *Engine) JobsStarted() uint64 { return e.met.started.Load() }

// Deduped reports submissions collapsed onto an identical in-flight job.
func (e *Engine) Deduped() uint64 { return e.met.deduped.Load() }

// PrefixHits reports jobs warm-started from a prefix-state checkpoint.
func (e *Engine) PrefixHits() uint64 { return e.met.prefixHits.Load() }

// PrefixGatesSkipped reports gate applications skipped by warm starts.
func (e *Engine) PrefixGatesSkipped() uint64 { return e.met.prefixGatesSkipped.Load() }

// CheckpointsStored reports prefix-state checkpoints written to the cache.
func (e *Engine) CheckpointsStored() uint64 { return e.met.checkpointsStored.Load() }

// CheckpointBytesStored reports serialized bytes across stored checkpoints.
func (e *Engine) CheckpointBytesStored() uint64 { return e.met.checkpointBytes.Load() }

// RenderMetrics writes the engine's Prometheus text exposition. The
// transport may append its own families (peer-client errors, HTTP-level
// counters) after this call — text format concatenates cleanly.
func (e *Engine) RenderMetrics(w io.Writer) {
	e.met.render(w, len(e.queue), e.cfg.QueueSize, e.cache.Stats(), e.memo.Stats())
}

// render writes the Prometheus text exposition.
func (m *metrics) render(w io.Writer, queueDepth, queueCap int, cs qcache.Stats, ms parsememo.Stats) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("qmddd_jobs_started_total", "Jobs dequeued by a worker.", m.started.Load())
	counter("qmddd_jobs_completed_total", "Jobs finished successfully.", m.completed.Load())
	counter("qmddd_jobs_failed_total", "Jobs finished with an error.", m.failed.Load())
	counter("qmddd_jobs_cancelled_total", "Jobs cancelled by timeout or shutdown.", m.cancelled.Load())
	counter("qmddd_jobs_rejected_total", "Submissions refused with 429.", m.rejected.Load())
	counter("qmddd_jobs_deduped_total", "Submissions collapsed onto an identical in-flight job.", m.deduped.Load())
	counter("qmddd_approximated_jobs_total", "Jobs completed approximately under a min_fidelity floor.", m.approximated.Load())
	counter("qmddd_approximations_total", "Fidelity-bounded approximation events across all jobs.", m.approxEvents.Load())
	fmt.Fprintf(w, "# HELP qmddd_fidelity_given_up_total Cumulative (1 - retained fidelity) over approximate jobs.\n# TYPE qmddd_fidelity_given_up_total counter\nqmddd_fidelity_given_up_total %g\n", m.fidelityGivenUp.load())
	counter("qmddd_cache_hits_total", "Result-cache hits (memory or disk).", cs.Hits)
	counter("qmddd_cache_disk_hits_total", "Result-cache hits served by the disk tier.", cs.DiskHits)
	counter("qmddd_cache_misses_total", "Result-cache misses.", cs.Misses)
	counter("qmddd_cache_stores_total", "Result envelopes stored in the cache.", cs.Stores)
	counter("qmddd_cache_evictions_total", "Memory-tier entries evicted under the byte cap.", cs.Evictions)
	counter("qmddd_cache_disk_evictions_total", "Disk-tier entries evicted under -cache-max-bytes (LRU by access time).", cs.DiskEvictions)
	counter("qmddd_prefix_hits_total", "Jobs warm-started from a prefix-state checkpoint.", m.prefixHits.Load())
	counter("qmddd_prefix_gates_skipped_total", "Gate applications skipped by prefix warm starts.", m.prefixGatesSkipped.Load())
	counter("qmddd_checkpoints_stored_total", "Prefix-state checkpoints written to the cache.", m.checkpointsStored.Load())
	counter("qmddd_checkpoint_bytes_total", "Serialized bytes across stored prefix checkpoints.", m.checkpointBytes.Load())
	counter("qmddd_batches_total", "Batch submissions accepted (POST /v1/batches).", m.batches.Load())
	counter("qmddd_batch_variants_total", "Variant jobs across accepted batches.", m.batchVariants.Load())
	counter("qmddd_cache_peer_hits_total", "Local cache misses answered by a ring peer's cache.", m.peerHits.Load())
	gauge("qmddd_cache_bytes", "Bytes held by the in-memory cache tier (payload + overhead).", cs.Bytes)
	gauge("qmddd_cache_entries", "Entries in the in-memory cache tier.", int64(cs.Entries))
	counter("qmddd_parse_memo_hits_total", "Submitted sources found in the parse memo (no parse, no fingerprint).", ms.Hits)
	counter("qmddd_parse_memo_misses_total", "Submitted sources parsed because the parse memo did not hold them.", ms.Misses)
	gauge("qmddd_parse_memo_entries", "Parsed sources held by the parse memo.", int64(ms.Entries))
	gauge("qmddd_parse_memo_bytes", "Bytes accounted to the parse memo (bounded at parsememo.MaxBytes).", ms.Bytes)
	fmt.Fprintf(w, "# HELP qmddd_queue_depth Jobs waiting in the bounded queue.\n# TYPE qmddd_queue_depth gauge\nqmddd_queue_depth %d\n", queueDepth)
	fmt.Fprintf(w, "# HELP qmddd_queue_capacity Bounded queue capacity.\n# TYPE qmddd_queue_capacity gauge\nqmddd_queue_capacity %d\n", queueCap)
	m.queueLatency.render(w, "qmddd_queue_latency_seconds", "Time from submission to worker pickup.")

	m.mu.Lock()
	defer m.mu.Unlock()
	fmt.Fprintf(w, "# HELP qmddd_worker_jobs_total Jobs run by this worker.\n# TYPE qmddd_worker_jobs_total counter\n")
	for i := range m.workers {
		fmt.Fprintf(w, "qmddd_worker_jobs_total{worker=\"%d\"} %d\n", i, m.workers[i].jobs)
	}
	fmt.Fprintf(w, "# HELP qmddd_worker_busy_seconds_total Wall-clock spent inside jobs.\n# TYPE qmddd_worker_busy_seconds_total counter\n")
	for i := range m.workers {
		fmt.Fprintf(w, "qmddd_worker_busy_seconds_total{worker=\"%d\"} %.6f\n", i, m.workers[i].busy.Seconds())
	}
	fmt.Fprintf(w, "# HELP qmddd_worker_peak_nodes Largest per-job peak node count observed.\n# TYPE qmddd_worker_peak_nodes gauge\n")
	for i := range m.workers {
		fmt.Fprintf(w, "qmddd_worker_peak_nodes{worker=\"%d\"} %d\n", i, m.workers[i].peakNodes)
	}
	fmt.Fprintf(w, "# HELP qmddd_worker_unique_table_nodes Unique-table occupancy after the worker's last job.\n# TYPE qmddd_worker_unique_table_nodes gauge\n")
	for i := range m.workers {
		if m.workers[i].hasSnap {
			fmt.Fprintf(w, "qmddd_worker_unique_table_nodes{worker=\"%d\"} %d\n", i, m.workers[i].lastSnap.UniqueNodes)
		}
	}
	fmt.Fprintf(w, "# HELP qmddd_worker_interned_weights Intern-table occupancy after the worker's last job.\n# TYPE qmddd_worker_interned_weights gauge\n")
	for i := range m.workers {
		if m.workers[i].hasSnap {
			fmt.Fprintf(w, "qmddd_worker_interned_weights{worker=\"%d\"} %d\n", i, m.workers[i].lastSnap.InternedWeights)
		}
	}
	fmt.Fprintf(w, "# HELP qmddd_worker_ct_load Compute-table load factor after the worker's last job.\n# TYPE qmddd_worker_ct_load gauge\n")
	for i := range m.workers {
		if m.workers[i].hasSnap {
			fmt.Fprintf(w, "qmddd_worker_ct_load{worker=\"%d\"} %.6f\n", i, m.workers[i].lastSnap.CTLoad)
		}
	}
}

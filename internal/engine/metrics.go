package engine

import (
	"io"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/httpx"
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
	httpx.Family(w, name, "histogram", help)
	var cum uint64
	for i, le := range queueLatencyBuckets {
		cum += h.counts[i]
		httpx.Sample(w, name+"_bucket", httpx.Label("le", strconv.FormatFloat(le, 'g', -1, 64)), cum)
	}
	httpx.Sample(w, name+"_bucket", httpx.Label("le", "+Inf"), h.total)
	httpx.Sample(w, name+"_sum", "", h.sum)
	httpx.Sample(w, name+"_count", "", h.total)
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

// addBusy adds worker w's between-job reset time to its busy time.
func (m *metrics) addBusy(w int, d time.Duration) {
	m.mu.Lock()
	m.workers[w].busy += d
	m.mu.Unlock()
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
	httpx.Counter(w, "qmddd_jobs_started_total", "Jobs dequeued by a worker.", m.started.Load())
	httpx.Counter(w, "qmddd_jobs_completed_total", "Jobs finished successfully.", m.completed.Load())
	httpx.Counter(w, "qmddd_jobs_failed_total", "Jobs finished with an error.", m.failed.Load())
	httpx.Counter(w, "qmddd_jobs_cancelled_total", "Jobs cancelled by timeout or shutdown.", m.cancelled.Load())
	httpx.Counter(w, "qmddd_jobs_rejected_total", "Submissions refused with 429.", m.rejected.Load())
	httpx.Counter(w, "qmddd_jobs_deduped_total", "Submissions collapsed onto an identical in-flight job.", m.deduped.Load())
	httpx.Counter(w, "qmddd_approximated_jobs_total", "Jobs completed approximately under a min_fidelity floor.", m.approximated.Load())
	httpx.Counter(w, "qmddd_approximations_total", "Fidelity-bounded approximation events across all jobs.", m.approxEvents.Load())
	httpx.Counter(w, "qmddd_fidelity_given_up_total", "Cumulative (1 - retained fidelity) over approximate jobs.", m.fidelityGivenUp.load())
	httpx.Counter(w, "qmddd_cache_hits_total", "Result-cache hits (memory or disk).", cs.Hits)
	httpx.Counter(w, "qmddd_cache_disk_hits_total", "Result-cache hits served by the disk tier.", cs.DiskHits)
	httpx.Counter(w, "qmddd_cache_misses_total", "Result-cache misses.", cs.Misses)
	httpx.Counter(w, "qmddd_cache_stores_total", "Result envelopes stored in the cache.", cs.Stores)
	httpx.Counter(w, "qmddd_cache_evictions_total", "Memory-tier entries evicted under the byte cap.", cs.Evictions)
	httpx.Counter(w, "qmddd_cache_disk_evictions_total", "Disk-tier entries evicted under -cache-max-bytes (LRU by access time).", cs.DiskEvictions)
	httpx.Counter(w, "qmddd_prefix_hits_total", "Jobs warm-started from a prefix-state checkpoint.", m.prefixHits.Load())
	httpx.Counter(w, "qmddd_prefix_gates_skipped_total", "Gate applications skipped by prefix warm starts.", m.prefixGatesSkipped.Load())
	httpx.Counter(w, "qmddd_checkpoints_stored_total", "Prefix-state checkpoints written to the cache.", m.checkpointsStored.Load())
	httpx.Counter(w, "qmddd_checkpoint_bytes_total", "Serialized bytes across stored prefix checkpoints.", m.checkpointBytes.Load())
	httpx.Counter(w, "qmddd_batches_total", "Batch submissions accepted (POST /v1/batches).", m.batches.Load())
	httpx.Counter(w, "qmddd_batch_variants_total", "Variant jobs across accepted batches.", m.batchVariants.Load())
	httpx.Counter(w, "qmddd_cache_peer_hits_total", "Local cache misses answered by a ring peer's cache.", m.peerHits.Load())
	httpx.Gauge(w, "qmddd_cache_bytes", "Bytes held by the in-memory cache tier (payload + overhead).", cs.Bytes)
	httpx.Gauge(w, "qmddd_cache_entries", "Entries in the in-memory cache tier.", cs.Entries)
	httpx.Counter(w, "qmddd_parse_memo_hits_total", "Submitted sources found in the parse memo (no parse, no fingerprint).", ms.Hits)
	httpx.Counter(w, "qmddd_parse_memo_misses_total", "Submitted sources parsed because the parse memo did not hold them.", ms.Misses)
	httpx.Gauge(w, "qmddd_parse_memo_entries", "Parsed sources held by the parse memo.", ms.Entries)
	httpx.Gauge(w, "qmddd_parse_memo_bytes", "Bytes accounted to the parse memo (bounded at parsememo.MaxBytes).", ms.Bytes)
	httpx.Gauge(w, "qmddd_queue_depth", "Jobs waiting in the bounded queue.", queueDepth)
	httpx.Gauge(w, "qmddd_queue_capacity", "Bounded queue capacity.", queueCap)
	m.queueLatency.render(w, "qmddd_queue_latency_seconds", "Time from submission to worker pickup.")

	m.mu.Lock()
	defer m.mu.Unlock()
	// perWorker writes one family labelled by worker index; snapOnly skips
	// the workers that have not finished a job yet.
	perWorker := func(name, typ, help string, snapOnly bool, v func(*workerMetrics) any) {
		var samples []httpx.Labelled
		for i := range m.workers {
			if wm := &m.workers[i]; wm.hasSnap || !snapOnly {
				samples = append(samples, httpx.Labelled{Label: strconv.Itoa(i), Value: v(wm)})
			}
		}
		httpx.LabelledFamily(w, name, typ, help, "worker", samples)
	}
	perWorker("qmddd_worker_jobs_total", "counter", "Jobs run by this worker.", false,
		func(wm *workerMetrics) any { return wm.jobs })
	perWorker("qmddd_worker_busy_seconds_total", "counter", "Wall-clock spent inside jobs.", false,
		func(wm *workerMetrics) any { return fixed6(wm.busy.Seconds()) })
	perWorker("qmddd_worker_peak_nodes", "gauge", "Largest per-job peak node count observed.", false,
		func(wm *workerMetrics) any { return wm.peakNodes })
	perWorker("qmddd_worker_unique_table_nodes", "gauge", "Unique-table occupancy after the worker's last job.", true,
		func(wm *workerMetrics) any { return wm.lastSnap.UniqueNodes })
	perWorker("qmddd_worker_interned_weights", "gauge", "Intern-table occupancy after the worker's last job.", true,
		func(wm *workerMetrics) any { return wm.lastSnap.InternedWeights })
	perWorker("qmddd_worker_ct_load", "gauge", "Compute-table load factor after the worker's last job.", true,
		func(wm *workerMetrics) any { return fixed6(wm.lastSnap.CTLoad) })
}

// fixed6 formats seconds and load factors with six decimals.
func fixed6(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }

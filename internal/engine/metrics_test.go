package engine

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/parsememo"
	"repro/internal/qcache"
)

// TestRenderMetricsGolden pins the engine's /metrics exposition byte for
// byte: every family's HELP/TYPE lines, sample formatting (integers,
// %g floats, six-decimal seconds and loads), the queue-latency histogram
// and the per-worker families, including the snapshot families that skip
// a worker which has not run a job yet.
func TestRenderMetricsGolden(t *testing.T) {
	m := newMetrics(2)
	m.started.Add(7)
	m.completed.Add(5)
	m.failed.Add(1)
	m.cancelled.Add(1)
	m.rejected.Add(2)
	m.deduped.Add(3)
	m.peerHits.Add(4)
	m.approximated.Add(1)
	m.approxEvents.Add(2)
	m.fidelityGivenUp.add(0.0625)
	m.prefixHits.Add(6)
	m.prefixGatesSkipped.Add(120)
	m.checkpointsStored.Add(9)
	m.checkpointBytes.Add(4096)
	m.batches.Add(2)
	m.batchVariants.Add(10)
	for _, v := range []float64{0.0005, 0.003, 0.2, 30} {
		m.queueLatency.observe(v)
	}
	m.observe(1, 1500*time.Millisecond, core.Snapshot{UniqueNodes: 42, InternedWeights: 17, CTLoad: 0.125, PeakNodes: 99})

	var sb strings.Builder
	m.render(&sb, 3, 64,
		qcache.Stats{Hits: 11, DiskHits: 5, Misses: 13, Stores: 8, Evictions: 1, DiskEvictions: 2, Bytes: 65536, Entries: 6},
		parsememo.Stats{Hits: 21, Misses: 4, Entries: 4, Bytes: 8192})
	if got := sb.String(); got != engineMetricsGolden {
		t.Errorf("engine /metrics exposition changed:\n%s", got)
	}
}

const engineMetricsGolden = `# HELP qmddd_jobs_started_total Jobs dequeued by a worker.
# TYPE qmddd_jobs_started_total counter
qmddd_jobs_started_total 7
# HELP qmddd_jobs_completed_total Jobs finished successfully.
# TYPE qmddd_jobs_completed_total counter
qmddd_jobs_completed_total 5
# HELP qmddd_jobs_failed_total Jobs finished with an error.
# TYPE qmddd_jobs_failed_total counter
qmddd_jobs_failed_total 1
# HELP qmddd_jobs_cancelled_total Jobs cancelled by timeout or shutdown.
# TYPE qmddd_jobs_cancelled_total counter
qmddd_jobs_cancelled_total 1
# HELP qmddd_jobs_rejected_total Submissions refused with 429.
# TYPE qmddd_jobs_rejected_total counter
qmddd_jobs_rejected_total 2
# HELP qmddd_jobs_deduped_total Submissions collapsed onto an identical in-flight job.
# TYPE qmddd_jobs_deduped_total counter
qmddd_jobs_deduped_total 3
# HELP qmddd_approximated_jobs_total Jobs completed approximately under a min_fidelity floor.
# TYPE qmddd_approximated_jobs_total counter
qmddd_approximated_jobs_total 1
# HELP qmddd_approximations_total Fidelity-bounded approximation events across all jobs.
# TYPE qmddd_approximations_total counter
qmddd_approximations_total 2
# HELP qmddd_fidelity_given_up_total Cumulative (1 - retained fidelity) over approximate jobs.
# TYPE qmddd_fidelity_given_up_total counter
qmddd_fidelity_given_up_total 0.0625
# HELP qmddd_cache_hits_total Result-cache hits (memory or disk).
# TYPE qmddd_cache_hits_total counter
qmddd_cache_hits_total 11
# HELP qmddd_cache_disk_hits_total Result-cache hits served by the disk tier.
# TYPE qmddd_cache_disk_hits_total counter
qmddd_cache_disk_hits_total 5
# HELP qmddd_cache_misses_total Result-cache misses.
# TYPE qmddd_cache_misses_total counter
qmddd_cache_misses_total 13
# HELP qmddd_cache_stores_total Result envelopes stored in the cache.
# TYPE qmddd_cache_stores_total counter
qmddd_cache_stores_total 8
# HELP qmddd_cache_evictions_total Memory-tier entries evicted under the byte cap.
# TYPE qmddd_cache_evictions_total counter
qmddd_cache_evictions_total 1
# HELP qmddd_cache_disk_evictions_total Disk-tier entries evicted under -cache-max-bytes (LRU by access time).
# TYPE qmddd_cache_disk_evictions_total counter
qmddd_cache_disk_evictions_total 2
# HELP qmddd_prefix_hits_total Jobs warm-started from a prefix-state checkpoint.
# TYPE qmddd_prefix_hits_total counter
qmddd_prefix_hits_total 6
# HELP qmddd_prefix_gates_skipped_total Gate applications skipped by prefix warm starts.
# TYPE qmddd_prefix_gates_skipped_total counter
qmddd_prefix_gates_skipped_total 120
# HELP qmddd_checkpoints_stored_total Prefix-state checkpoints written to the cache.
# TYPE qmddd_checkpoints_stored_total counter
qmddd_checkpoints_stored_total 9
# HELP qmddd_checkpoint_bytes_total Serialized bytes across stored prefix checkpoints.
# TYPE qmddd_checkpoint_bytes_total counter
qmddd_checkpoint_bytes_total 4096
# HELP qmddd_batches_total Batch submissions accepted (POST /v1/batches).
# TYPE qmddd_batches_total counter
qmddd_batches_total 2
# HELP qmddd_batch_variants_total Variant jobs across accepted batches.
# TYPE qmddd_batch_variants_total counter
qmddd_batch_variants_total 10
# HELP qmddd_cache_peer_hits_total Local cache misses answered by a ring peer's cache.
# TYPE qmddd_cache_peer_hits_total counter
qmddd_cache_peer_hits_total 4
# HELP qmddd_cache_bytes Bytes held by the in-memory cache tier (payload + overhead).
# TYPE qmddd_cache_bytes gauge
qmddd_cache_bytes 65536
# HELP qmddd_cache_entries Entries in the in-memory cache tier.
# TYPE qmddd_cache_entries gauge
qmddd_cache_entries 6
# HELP qmddd_parse_memo_hits_total Submitted sources found in the parse memo (no parse, no fingerprint).
# TYPE qmddd_parse_memo_hits_total counter
qmddd_parse_memo_hits_total 21
# HELP qmddd_parse_memo_misses_total Submitted sources parsed because the parse memo did not hold them.
# TYPE qmddd_parse_memo_misses_total counter
qmddd_parse_memo_misses_total 4
# HELP qmddd_parse_memo_entries Parsed sources held by the parse memo.
# TYPE qmddd_parse_memo_entries gauge
qmddd_parse_memo_entries 4
# HELP qmddd_parse_memo_bytes Bytes accounted to the parse memo (bounded at parsememo.MaxBytes).
# TYPE qmddd_parse_memo_bytes gauge
qmddd_parse_memo_bytes 8192
# HELP qmddd_queue_depth Jobs waiting in the bounded queue.
# TYPE qmddd_queue_depth gauge
qmddd_queue_depth 3
# HELP qmddd_queue_capacity Bounded queue capacity.
# TYPE qmddd_queue_capacity gauge
qmddd_queue_capacity 64
# HELP qmddd_queue_latency_seconds Time from submission to worker pickup.
# TYPE qmddd_queue_latency_seconds histogram
qmddd_queue_latency_seconds_bucket{le="0.001"} 1
qmddd_queue_latency_seconds_bucket{le="0.005"} 2
qmddd_queue_latency_seconds_bucket{le="0.025"} 2
qmddd_queue_latency_seconds_bucket{le="0.1"} 2
qmddd_queue_latency_seconds_bucket{le="0.5"} 3
qmddd_queue_latency_seconds_bucket{le="2.5"} 3
qmddd_queue_latency_seconds_bucket{le="10"} 3
qmddd_queue_latency_seconds_bucket{le="+Inf"} 4
qmddd_queue_latency_seconds_sum 30.2035
qmddd_queue_latency_seconds_count 4
# HELP qmddd_worker_jobs_total Jobs run by this worker.
# TYPE qmddd_worker_jobs_total counter
qmddd_worker_jobs_total{worker="0"} 0
qmddd_worker_jobs_total{worker="1"} 1
# HELP qmddd_worker_busy_seconds_total Wall-clock spent inside jobs.
# TYPE qmddd_worker_busy_seconds_total counter
qmddd_worker_busy_seconds_total{worker="0"} 0.000000
qmddd_worker_busy_seconds_total{worker="1"} 1.500000
# HELP qmddd_worker_peak_nodes Largest per-job peak node count observed.
# TYPE qmddd_worker_peak_nodes gauge
qmddd_worker_peak_nodes{worker="0"} 0
qmddd_worker_peak_nodes{worker="1"} 99
# HELP qmddd_worker_unique_table_nodes Unique-table occupancy after the worker's last job.
# TYPE qmddd_worker_unique_table_nodes gauge
qmddd_worker_unique_table_nodes{worker="1"} 42
# HELP qmddd_worker_interned_weights Intern-table occupancy after the worker's last job.
# TYPE qmddd_worker_interned_weights gauge
qmddd_worker_interned_weights{worker="1"} 17
# HELP qmddd_worker_ct_load Compute-table load factor after the worker's last job.
# TYPE qmddd_worker_ct_load gauge
qmddd_worker_ct_load{worker="1"} 0.125000
`

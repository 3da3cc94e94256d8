#!/usr/bin/env bash
# End-to-end smoke test for the qmddd daemon: build the binary, boot it on a
# random port with the result cache on, run a 2-qubit Grover circuit (the
# final state is exactly |11⟩, so the assertion is sharp), resubmit it and
# require a cache hit and a parse-memo hit, scrape /metrics, run a seeded
# teleportation shots job (dynamic circuit: mid-circuit measurement +
# classical feedback) and require a deterministic,
# representation-independent histogram plus a cache hit on
# resubmission, then SIGTERM and require a clean drain and exit 0 — and
# finally reboot over the same cache directory and require the disk tier
# (including the shots entry) to survive the restart. A final boot on a
# fresh cache directory drives a 5-variant Grover batch through
# POST /v1/batches and requires the shared prefix to be simulated exactly
# once, with the submission's X-Request-Id propagated to every child job.
set -euo pipefail

cd "$(dirname "$0")/.."
bindir=$(mktemp -d)
cachedir=$(mktemp -d)
trap 'rm -rf "$bindir" "$cachedir"' EXIT
go build -o "$bindir/qmddd" ./cmd/qmddd

port=$(( (RANDOM % 20000) + 20000 ))
base="http://127.0.0.1:$port"
# Checkpointing is off for the first two boots: their sections pin exact
# result-cache counter values, which prefix checkpoints would also bump.
# The batch section at the end boots with checkpointing on.
"$bindir/qmddd" -addr "127.0.0.1:$port" -workers 2 -drain 10s \
    -cache-bytes 1048576 -cache-dir "$cachedir" -checkpoint-every -1 &
pid=$!
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$bindir" "$cachedir"' EXIT

wait_healthy() {
    for _ in $(seq 1 50); do
        if curl -fsS "$base/healthz" >/dev/null 2>&1; then return 0; fi
        sleep 0.2
    done
    echo "daemon never became healthy"; exit 1
}
wait_healthy

payload='{"qasm":"OPENQASM 2.0;\nqreg q[2];\nh q[0]; h q[1];\ncz q[0],q[1];\nh q[0]; h q[1];\nx q[0]; x q[1];\ncz q[0],q[1];\nx q[0]; x q[1];\nh q[0]; h q[1];","wait":true}'
result=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$payload" "$base/v1/jobs")
echo "$result" | grep >/dev/null '"status": "done"'    || { echo "job did not finish: $result"; exit 1; }
echo "$result" | grep >/dev/null '"state": "11"'       || { echo "missing |11> outcome: $result"; exit 1; }
echo "$result" | grep >/dev/null '"prob": 1'           || { echo "Grover probability is not 1: $result"; exit 1; }
echo "$result" | grep >/dev/null '"cached"' && { echo "first run claims to be cached: $result"; exit 1; }

# The identical job again: must be served from the cache, byte-identical
# result envelope, without running the simulation a second time.
replay=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$payload" "$base/v1/jobs")
echo "$replay" | grep >/dev/null '"cached": true'      || { echo "replay was not cached: $replay"; exit 1; }
echo "$replay" | grep >/dev/null '"state": "11"'       || { echo "cached replay lost the result: $replay"; exit 1; }

curl -fsS "$base/v1/version" | grep >/dev/null '"name": "qmddd"'

metrics=$(curl -fsS "$base/metrics")
[ -n "$metrics" ] || { echo "empty /metrics"; exit 1; }
echo "$metrics" | grep >/dev/null '^qmddd_jobs_completed_total 1$' || { echo "bad metrics:"; echo "$metrics"; exit 1; }
echo "$metrics" | grep >/dev/null '^qmddd_cache_hits_total 1$'     || { echo "cache hit not counted:"; echo "$metrics"; exit 1; }
echo "$metrics" | grep >/dev/null '^qmddd_cache_stores_total 1$'   || { echo "cache store not counted:"; echo "$metrics"; exit 1; }
# The replay's source was found in the parse memo: not parsed again.
echo "$metrics" | grep >/dev/null '^qmddd_parse_memo_hits_total 1$'   || { echo "replay was parsed again:"; echo "$metrics"; exit 1; }
echo "$metrics" | grep >/dev/null '^qmddd_parse_memo_misses_total 1$' || { echo "parse memo misses not counted:"; echo "$metrics"; exit 1; }
echo "$metrics" | grep >/dev/null '^qmddd_queue_latency_seconds_count 1$' || { echo "queue latency not observed:"; echo "$metrics"; exit 1; }

# Seeded shots job on a dynamic teleportation circuit: mid-circuit Bell
# measurement plus classically controlled corrections, so every shot is
# re-simulated with projective collapse. The read-out creg c2 lands in the
# histogram key's leading bit and the teleported payload is X|0> = |1>, so
# every observed key must start with "1".
teleport='{"qasm":"OPENQASM 2.0;\nqreg q[3];\ncreg c0[1];\ncreg c1[1];\ncreg c2[1];\nx q[0];\nh q[1];\ncx q[1],q[2];\ncx q[0],q[1];\nh q[0];\nmeasure q[0] -> c0[0];\nmeasure q[1] -> c1[0];\nif(c1==1) x q[2];\nif(c0==1) z q[2];\nmeasure q[2] -> c2[0];","shots":256,"seed":7,"wait":true}'
shot1=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$teleport" "$base/v1/jobs")
echo "$shot1" | grep >/dev/null '"status": "done"'            || { echo "shots job did not finish: $shot1"; exit 1; }
echo "$shot1" | grep >/dev/null '"strategy": "resimulate"'    || { echo "dynamic circuit not re-simulated: $shot1"; exit 1; }
echo "$shot1" | grep >/dev/null '"seed": 7'                   || { echo "seed not echoed: $shot1"; exit 1; }
hist1=$(echo "$shot1" | awk '/"histogram": {/,/}/')
[ -n "$hist1" ] || { echo "missing histogram: $shot1"; exit 1; }
echo "$hist1" | grep >/dev/null '"0' && { echo "teleported qubit read 0: $hist1"; exit 1; }

# Same circuit, same seed, float representation: a fresh simulation under a
# different number system must reproduce the histogram byte for byte.
teleport_float=${teleport%\}}',"representation":"float","eps":0}'
shotf=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$teleport_float" "$base/v1/jobs")
echo "$shotf" | grep >/dev/null '"cached"' && { echo "float variant unexpectedly cached: $shotf"; exit 1; }
histf=$(echo "$shotf" | awk '/"histogram": {/,/}/')
[ "$hist1" = "$histf" ] || { echo "histogram differs across representations:"; echo "$hist1"; echo "vs"; echo "$histf"; exit 1; }

# Resubmitting the seeded shots job must hit the cache with the identical
# histogram.
shot2=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$teleport" "$base/v1/jobs")
echo "$shot2" | grep >/dev/null '"cached": true' || { echo "seeded shots replay was not cached: $shot2"; exit 1; }
hist2=$(echo "$shot2" | awk '/"histogram": {/,/}/')
[ "$hist1" = "$hist2" ] || { echo "cached histogram differs:"; echo "$hist1"; echo "vs"; echo "$hist2"; exit 1; }

# Fidelity-bounded graceful degradation: a clutter circuit (small-angle ry
# layers + CX chains grow a dominant |0…0> branch with a broad low-mass tail)
# under a node budget it cannot fit. Without min_fidelity the job must fail
# budget_exceeded; with it the worker sheds the tail and completes, stamping
# the retained fidelity on the result.
clutter='OPENQASM 2.0;\nqreg q[10];'
for l in $(seq 1 8); do
    for i in $(seq 0 9); do
        clutter="$clutter\nry(0.0$((20 + (l*10 + i) % 15))) q[$i];"
    done
    for i in $(seq 0 8); do
        clutter="$clutter\ncx q[$i],q[$((i+1))];"
    done
done
capped='{"qasm":"'$clutter'","representation":"float","max_nodes":600,"wait":true}'
refused=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$capped" "$base/v1/jobs")
echo "$refused" | grep >/dev/null '"status": "failed"'     || { echo "capped exact job did not fail: $refused"; exit 1; }
echo "$refused" | grep >/dev/null 'budget_exceeded'        || { echo "capped exact job failed for the wrong reason: $refused"; exit 1; }

degraded=${capped%\}}',"min_fidelity":0.6}'
approx=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$degraded" "$base/v1/jobs")
echo "$approx" | grep >/dev/null '"status": "done"'        || { echo "min_fidelity did not flip the refusal: $approx"; exit 1; }
echo "$approx" | grep >/dev/null '"approximate": true'     || { echo "approximate flag missing: $approx"; exit 1; }
echo "$approx" | grep >/dev/null '"fidelity": 0\.'         || { echo "retained fidelity missing: $approx"; exit 1; }

metrics=$(curl -fsS "$base/metrics")
echo "$metrics" | grep >/dev/null '^qmddd_approximated_jobs_total 1$'    || { echo "approximated job not counted:"; echo "$metrics"; exit 1; }
echo "$metrics" | grep -E >/dev/null '^qmddd_approximations_total [1-9]'   || { echo "approximation events not counted:"; echo "$metrics"; exit 1; }

kill -TERM "$pid"
wait "$pid"   # non-zero exit status fails the script via set -e

# Reboot over the same cache directory: the disk tier must serve the job
# without re-simulating.
"$bindir/qmddd" -addr "127.0.0.1:$port" -workers 2 -drain 10s \
    -cache-bytes 1048576 -cache-dir "$cachedir" -checkpoint-every -1 &
pid=$!
wait_healthy

revived=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$payload" "$base/v1/jobs")
echo "$revived" | grep >/dev/null '"cached": true' || { echo "disk tier did not survive restart: $revived"; exit 1; }
echo "$revived" | grep >/dev/null '"state": "11"'  || { echo "restart replay lost the result: $revived"; exit 1; }
metrics=$(curl -fsS "$base/metrics")
echo "$metrics" | grep >/dev/null '^qmddd_cache_disk_hits_total 1$' || { echo "disk hit not counted:"; echo "$metrics"; exit 1; }
echo "$metrics" | grep >/dev/null '^qmddd_jobs_started_total 0$'    || { echo "restart replay ran the simulation:"; echo "$metrics"; exit 1; }

# The seeded shots entry must also survive the restart via the disk tier.
shot_revived=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$teleport" "$base/v1/jobs")
echo "$shot_revived" | grep >/dev/null '"cached": true' || { echo "shots disk entry did not survive restart: $shot_revived"; exit 1; }
hist_revived=$(echo "$shot_revived" | awk '/"histogram": {/,/}/')
[ "$hist1" = "$hist_revived" ] || { echo "revived histogram differs:"; echo "$hist1"; echo "vs"; echo "$hist_revived"; exit 1; }
metrics=$(curl -fsS "$base/metrics")
echo "$metrics" | grep >/dev/null '^qmddd_cache_disk_hits_total 2$' || { echo "shots disk hit not counted:"; echo "$metrics"; exit 1; }
echo "$metrics" | grep >/dev/null '^qmddd_jobs_started_total 0$'    || { echo "shots replay ran the simulation:"; echo "$metrics"; exit 1; }

kill -TERM "$pid"
wait "$pid"

# Prefix-checkpointed batch on a FRESH cache directory (the counter
# assertions below pin exact values): a 5-variant Grover batch must simulate
# the shared 12-gate prefix exactly once — six jobs total (prefix + five
# variants), five prefix warm-starts, at least one checkpoint stored — and
# every child job must carry a request id derived from the submission's
# X-Request-Id.
batchcache=$(mktemp -d)
"$bindir/qmddd" -addr "127.0.0.1:$port" -workers 2 -drain 10s \
    -cache-bytes 1048576 -cache-dir "$batchcache" &
pid=$!
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$bindir" "$cachedir" "$batchcache"' EXIT
wait_healthy

grover='OPENQASM 2.0;\nqreg q[2];\nh q[0]; h q[1];\ncz q[0],q[1];\nh q[0]; h q[1];\nx q[0]; x q[1];\ncz q[0],q[1];\nx q[0]; x q[1];\nh q[0]; h q[1];'
suffixes='"OPENQASM 2.0;\nqreg q[2];\ns q[0];","OPENQASM 2.0;\nqreg q[2];\nt q[0];","OPENQASM 2.0;\nqreg q[2];\ns q[1];","OPENQASM 2.0;\nqreg q[2];\nt q[1];","OPENQASM 2.0;\nqreg q[2];\nz q[0];"'
batch='{"base":"'$grover'","suffixes":['$suffixes'],"top_k":4,"wait":true}'
bres=$(curl -fsS -X POST -H 'Content-Type: application/json' \
    -H 'X-Request-Id: batch-smoke' -d "$batch" "$base/v1/batches")
echo "$bres" | grep >/dev/null '"status": "done"'      || { echo "batch did not finish: $bres"; exit 1; }
echo "$bres" | grep >/dev/null '"prefix_gates": 12'    || { echo "wrong prefix length: $bres"; exit 1; }
echo "$bres" | grep >/dev/null '"prefix_key"'          || { echo "batch has no prefix key: $bres"; exit 1; }
echo "$bres" | grep >/dev/null '"request_id": "batch-smoke-/prefix"' \
    || { echo "prefix job lost the request id: $bres"; exit 1; }
for i in 0 1 2 3 4; do
    echo "$bres" | grep >/dev/null "\"request_id\": \"batch-smoke-/v$i\"" \
        || { echo "variant $i lost the request id: $bres"; exit 1; }
done
# The suffixes are pure phase gates, so every variant keeps the exact
# Grover outcome |11⟩ with probability 1.
[ "$(echo "$bres" | grep -c '"state": "11"')" = 5 ] || { echo "a variant lost the |11> outcome: $bres"; exit 1; }
[ "$(echo "$bres" | grep -c '"prob": 1')" = 5 ]     || { echo "a variant's probability moved: $bres"; exit 1; }

# The finished batch stays pollable under its id.
bid=$(echo "$bres" | sed -n 's/.*"id": "\(b[0-9a-f]\{16\}\)".*/\1/p' | head -1)
[ -n "$bid" ] || { echo "no batch id in: $bres"; exit 1; }
polled=$(curl -fsS "$base/v1/batches/$bid")
echo "$polled" | grep >/dev/null '"status": "done"' || { echo "poll lost the batch: $polled"; exit 1; }

# Exactly-once prefix work, counted three ways.
metrics=$(curl -fsS "$base/metrics")
echo "$metrics" | grep >/dev/null '^qmddd_jobs_started_total 6$'  || { echo "batch did not run 6 jobs:"; echo "$metrics"; exit 1; }
echo "$metrics" | grep >/dev/null '^qmddd_prefix_hits_total 5$'   || { echo "not every variant warm-started:"; echo "$metrics"; exit 1; }
echo "$metrics" | grep -E >/dev/null '^qmddd_checkpoints_stored_total [1-9]' || { echo "no checkpoint stored:"; echo "$metrics"; exit 1; }
echo "$metrics" | grep >/dev/null '^qmddd_batches_total 1$'       || { echo "batch not counted:"; echo "$metrics"; exit 1; }
echo "$metrics" | grep >/dev/null '^qmddd_batch_variants_total 5$' || { echo "variants not counted:"; echo "$metrics"; exit 1; }

kill -TERM "$pid"
wait "$pid"
trap 'rm -rf "$bindir" "$cachedir" "$batchcache"' EXIT
echo "e2e smoke OK"

#!/usr/bin/env bash
# Cluster smoke test for the router/worker tier: build qmddd, qrouter and
# qload, boot two peered workers behind one router, and assert the
# horizontal-scale-out story end to end:
#
#   1. a Grover job through the router returns the exact |11…1⟩ result,
#      byte-identical amplitudes to a direct worker submission, with the
#      X-Request-Id echoed through the proxy hop;
#   2. the replay through the router is a cache hit — the cluster simulates
#      the circuit exactly once (sum of qmddd_jobs_started_total is 1) —
#      and a router parse-memo hit;
#   3. the same job sent directly to the NON-owning worker is served through
#      cache peering (peer-hit counter, still no second simulation) and the
#      envelope is adopted;
#   4. a 5-variant batch through the router co-locates on the worker that
#      already holds the prefix checkpoint (the batch's ring key IS the solo
#      Grover job's), the shared prefix is never re-simulated gate for gate
#      anywhere in the cluster, and the submission's X-Request-Id reaches
#      every child job;
#   5. killing the owning worker mid-stream: the router notices (cluster
#      view flips unready), keeps answering through the survivor, and the
#      warm key survives the topology change without re-simulation;
#   6. a 5-second open-loop qload run against the degraded cluster emits a
#      valid BENCH_serve.json (percentiles, verdict, cache hit rate) and a
#      seed-pinned replay reproduces the results digest byte for byte.
set -euo pipefail

cd "$(dirname "$0")/.."
bindir=$(mktemp -d)
tmpdir=$(mktemp -d)
pids=()
cleanup() {
    for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null || true; done
    rm -rf "$bindir" "$tmpdir"
}
trap cleanup EXIT
go build -o "$bindir/qmddd" ./cmd/qmddd
go build -o "$bindir/qrouter" ./cmd/qrouter
go build -o "$bindir/qload" ./cmd/qload

portbase=$(( (RANDOM % 20000) + 20000 ))
pw1=$((portbase)); pw2=$((portbase + 1)); pr=$((portbase + 2))
w1="http://127.0.0.1:$pw1"; w2="http://127.0.0.1:$pw2"; router="http://127.0.0.1:$pr"

"$bindir/qmddd" -addr "127.0.0.1:$pw1" -workers 2 -drain 5s \
    -cache-bytes 4194304 -cache-dir "$tmpdir/c1" \
    -self "$w1" -peers "$w1,$w2" &
pids+=($!)
"$bindir/qmddd" -addr "127.0.0.1:$pw2" -workers 2 -drain 5s \
    -cache-bytes 4194304 -cache-dir "$tmpdir/c2" \
    -self "$w2" -peers "$w1,$w2" &
pids+=($!)
"$bindir/qrouter" -addr "127.0.0.1:$pr" -workers "$w1,$w2" -probe-interval 500ms &
pids+=($!)

wait_ready() {
    for _ in $(seq 1 50); do
        if curl -fsS "$1/readyz" >/dev/null 2>&1; then return 0; fi
        sleep 0.2
    done
    echo "$1 never became ready"; exit 1
}
wait_ready "$w1"; wait_ready "$w2"; wait_ready "$router"

metric_sum() {
    local name=$1 total=0 v
    shift
    for base in "$@"; do
        v=$(curl -fsS "$base/metrics" 2>/dev/null | awk -v n="$name" '$1 == n {print $2}') || v=0
        total=$((total + ${v:-0}))
    done
    echo "$total"
}
started_total() { metric_sum qmddd_jobs_started_total "$@"; }
amps_of() { echo "$1" | awk '/"amplitudes": \[/,/\]/'; }

payload='{"qasm":"OPENQASM 2.0;\nqreg q[2];\nh q[0]; h q[1];\ncz q[0],q[1];\nh q[0]; h q[1];\nx q[0]; x q[1];\ncz q[0],q[1];\nx q[0]; x q[1];\nh q[0]; h q[1];","wait":true}'

# 1. Through the router: exact Grover result, request id echoed through the hop.
headers=$(mktemp "$tmpdir/hdr.XXXX")
routed=$(curl -fsS -D "$headers" -X POST -H 'Content-Type: application/json' \
    -H 'X-Request-Id: r-smoke-1' -d "$payload" "$router/v1/jobs")
echo "$routed" | grep >/dev/null '"status": "done"' || { echo "routed job did not finish: $routed"; exit 1; }
echo "$routed" | grep >/dev/null '"state": "11"'    || { echo "missing |11> outcome: $routed"; exit 1; }
echo "$routed" | grep >/dev/null '"prob": 1'        || { echo "Grover probability is not 1: $routed"; exit 1; }
grep -i >/dev/null '^x-request-id: r-smoke-1' "$headers" || { echo "request id lost in the proxy hop:"; cat "$headers"; exit 1; }
grep -i >/dev/null '^x-qmddd-worker: ' "$headers"        || { echo "worker attribution header missing:"; cat "$headers"; exit 1; }
owner=$(awk 'tolower($1) == "x-qmddd-worker:" {print $2}' "$headers" | tr -d '\r')
if [ "$owner" = "$w1" ]; then peer="$w2"; else peer="$w1"; fi

[ "$(started_total "$w1" "$w2")" = 1 ] || { echo "cluster simulated the job $(started_total "$w1" "$w2") times, want 1"; exit 1; }

# Identical amplitudes router vs direct.
direct=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$payload" "$owner/v1/jobs")
[ "$(amps_of "$routed")" = "$(amps_of "$direct")" ] || { echo "router and direct amplitudes differ"; exit 1; }

# 2. Replay through the router: cache hit, still exactly one simulation.
replay=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$payload" "$router/v1/jobs")
echo "$replay" | grep >/dev/null '"cached": true' || { echo "routed replay was not cached: $replay"; exit 1; }
[ "$(started_total "$w1" "$w2")" = 1 ] || { echo "replay re-simulated"; exit 1; }
# The router found the replayed source in its parse memo.
[ "$(metric_sum qrouter_parse_memo_hits_total "$router")" -ge 1 ] \
    || { echo "router parsed the replayed source again:"; curl -fsS "$router/metrics"; exit 1; }

# 3. Direct to the non-owner: served through cache peering, never simulated.
peered=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$payload" "$peer/v1/jobs")
echo "$peered" | grep >/dev/null '"cached": true'  || { echo "peer submission was not served from cache: $peered"; exit 1; }
echo "$peered" | grep >/dev/null '"state": "11"'   || { echo "peered result lost the outcome: $peered"; exit 1; }
curl -fsS "$peer/metrics" | grep >/dev/null '^qmddd_cache_peer_hits_total 1$' \
    || { echo "peer hit not counted on $peer"; exit 1; }
[ "$(started_total "$w1" "$w2")" = 1 ] || { echo "peer path re-simulated"; exit 1; }

# 4. A 5-variant batch through the router, base = the solo Grover circuit.
# The batch's ring key is by construction the solo job's, so the router lands
# it on $owner — the worker whose cache already holds the prefix checkpoint
# the solo run stored. The prefix job itself warm-starts from that
# checkpoint, every variant warm-starts from the prefix job, and the
# cluster-wide gate accounting proves the 12-gate prefix was simulated
# exactly once in total: 6 new jobs, 6 warm starts, 6 × 12 gates skipped.
started_before=$(started_total "$w1" "$w2")
grover='OPENQASM 2.0;\nqreg q[2];\nh q[0]; h q[1];\ncz q[0],q[1];\nh q[0]; h q[1];\nx q[0]; x q[1];\ncz q[0],q[1];\nx q[0]; x q[1];\nh q[0]; h q[1];'
suffixes='"OPENQASM 2.0;\nqreg q[2];\ns q[0];","OPENQASM 2.0;\nqreg q[2];\nt q[0];","OPENQASM 2.0;\nqreg q[2];\ns q[1];","OPENQASM 2.0;\nqreg q[2];\nt q[1];","OPENQASM 2.0;\nqreg q[2];\nz q[0];"'
batch='{"base":"'$grover'","suffixes":['$suffixes'],"wait":true}'
bhdr=$(mktemp "$tmpdir/bhdr.XXXX")
bres=$(curl -fsS -D "$bhdr" -X POST -H 'Content-Type: application/json' \
    -H 'X-Request-Id: b-smoke-1' -d "$batch" "$router/v1/batches")
echo "$bres" | grep >/dev/null '"status": "done"'   || { echo "routed batch did not finish: $bres"; exit 1; }
echo "$bres" | grep >/dev/null '"prefix_gates": 12' || { echo "wrong batch prefix length: $bres"; exit 1; }
echo "$bres" | grep >/dev/null '"request_id": "b-smoke-1-/prefix"' \
    || { echo "prefix job lost the request id: $bres"; exit 1; }
for i in 0 1 2 3 4; do
    echo "$bres" | grep >/dev/null "\"request_id\": \"b-smoke-1-/v$i\"" \
        || { echo "variant $i lost the request id: $bres"; exit 1; }
done
batch_worker=$(awk 'tolower($1) == "x-qmddd-worker:" {print $2}' "$bhdr" | tr -d '\r')
[ "$batch_worker" = "$owner" ] || { echo "batch routed to $batch_worker, the prefix checkpoint lives on $owner"; exit 1; }
[ "$(started_total "$w1" "$w2")" = $((started_before + 6)) ] \
    || { echo "batch ran $(( $(started_total "$w1" "$w2") - started_before )) jobs, want 6"; exit 1; }
[ "$(metric_sum qmddd_prefix_hits_total "$w1" "$w2")" = 6 ] \
    || { echo "prefix warm starts: $(metric_sum qmddd_prefix_hits_total "$w1" "$w2"), want 6"; exit 1; }
[ "$(metric_sum qmddd_prefix_gates_skipped_total "$w1" "$w2")" = 72 ] \
    || { echo "prefix gates skipped: $(metric_sum qmddd_prefix_gates_skipped_total "$w1" "$w2"), want 72"; exit 1; }
[ "$(metric_sum qmddd_checkpoints_stored_total "$w1" "$w2")" -ge 1 ] \
    || { echo "no checkpoint stored anywhere in the cluster"; exit 1; }

# 5. Kill the owner mid-stream: the router flips it unready and the warm key
# survives on the adopted envelope — no re-simulation on the survivor.
for i in "${!pids[@]}"; do :; done
if [ "$owner" = "$w1" ]; then kill "${pids[0]}"; else kill "${pids[1]}"; fi
sleep 1.2   # two probe intervals: the router must notice on its own
cluster=$(curl -fsS "$router/v1/cluster")
[ "$(echo "$cluster" | grep -c '"ready": true')" = 1 ] || { echo "router did not notice the dead worker: $cluster"; exit 1; }
curl -fsS "$router/readyz" >/dev/null || { echo "router unready with one live worker"; exit 1; }

survivor_before=$(started_total "$peer")
rerouted=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$payload" "$router/v1/jobs")
echo "$rerouted" | grep >/dev/null '"status": "done"' || { echo "post-kill job failed: $rerouted"; exit 1; }
echo "$rerouted" | grep >/dev/null '"cached": true'   || { echo "warm key lost in the topology change: $rerouted"; exit 1; }
[ "$(started_total "$peer")" = "$survivor_before" ] || { echo "survivor re-simulated a warm key"; exit 1; }

# 6. Open-loop qload against the degraded cluster: valid report, SLO pass,
# and a seed-pinned replay with a byte-identical results digest.
"$bindir/qload" -target "$router" -rate 8 -duration 5s -slo-p99 60s -seed 7 \
    -out "$tmpdir/BENCH_serve.json"
for key in '"p50"' '"p99"' '"p999"' '"verdict": "pass"' '"results_digest"' '"cache_hit_rate"' '"offered_rate"' '"achieved_rate"'; do
    grep >/dev/null "$key" "$tmpdir/BENCH_serve.json" || { echo "BENCH_serve.json missing $key:"; cat "$tmpdir/BENCH_serve.json"; exit 1; }
done
grep >/dev/null '"consistent": false' "$tmpdir/BENCH_serve.json" && { echo "inconsistent workload results"; exit 1; }

"$bindir/qload" -target "$router" -rate 8 -duration 5s -slo-p99 60s -seed 7 \
    -out "$tmpdir/BENCH_serve2.json"
d1=$(grep '"results_digest"' "$tmpdir/BENCH_serve.json")
d2=$(grep '"results_digest"' "$tmpdir/BENCH_serve2.json")
[ "$d1" = "$d2" ] || { echo "seed-pinned replay digest differs: $d1 vs $d2"; exit 1; }

echo "cluster smoke OK"

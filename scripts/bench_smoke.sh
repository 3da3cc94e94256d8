#!/usr/bin/env bash
# Bench smoke: the sweep pool must be a pure performance knob, and the qsim
# subcommands must keep their contracts.
#
# 1. Figure determinism: Fig-2 to Fig-5 and normalization-scheme CSVs must be
#    identical at -parallel 1 and 2 once the timing column (cum_seconds,
#    col 5) is stripped — each sweep cell runs on a private manager and
#    cells are merged by index, so the diagrams, node counts, errors and bit
#    widths are byte-for-byte the same. The norms stdout must match too,
#    with the summary's time column (field 4 of a run row) cut.
# 2. Single-run benchmark: qbench -bench-json runs and writes its report.
#    (Local apply is checked against the BuildDD+Mul oracle on the same
#    figure circuits by internal/sim's TestLocalApplyMatchesMulOracleOnFigures.)
# 3. qsim subcommands: verify exits 0 on an equivalent pair, 1 on a
#    non-equivalent one, and accepts a global-phase pair under -phase; view
#    emits Graphviz DOT; tune's default node budget (4 × the exact peak,
#    derived from its one reference run) gives the same table as passing
#    that budget explicitly, up to the time column.
# 4. Exact OpenQASM lowering: qsim -writeqasm of the BWT walk (negative and
#    multi-controls, a doubly-controlled t) writes a file that qsim re-reads
#    under -repr alg, and both runs print the same probability column (the
#    re-read outcomes carry the clean ancillas as extra low bits).
# 5. -timeout is a context deadline: a qsim GSE run and a qbench Fig-5 sweep
#    that would each take minutes stop early, exit 0 and report the stop as
#    a cancellation, never as a "deadline limit" budget failure.
set -euo pipefail
cd "$(dirname "$0")/.."

outroot=$(mktemp -d)
trap 'rm -rf "$outroot"' EXIT

notime() { cut -d, -f1-4,6- "$1"; }
# Blank the time column of the summary table's run rows; drop the CSV path.
notime_stdout() {
  awk '/^run +peak nodes/ { t = 1; print; next }
       /^$/ { t = 0 }
       /^wrote / { print "wrote"; next }
       t { $4 = "-" } { print }' "$1"
}

qbench="$outroot/qbench"
go build -o "$qbench" ./cmd/qbench
for p in 1 2; do
  mkdir -p "$outroot/p$p"
  for fig in 2 3 4 5; do
    "$qbench" -fig "$fig" -noerror -parallel "$p" -out "$outroot/p$p" >/dev/null
  done
  "$qbench" -fig norms -parallel "$p" -out "$outroot/p$p" >"$outroot/p$p/norms.txt"
done

status=0
for f in "$outroot"/p1/*.csv; do
  name=$(basename "$f")
  if ! diff <(notime "$f") <(notime "$outroot/p2/$name") >&2; then
    echo "bench smoke: $name differs between -parallel 1 and 2" >&2
    status=1
  fi
done
if ! diff <(notime_stdout "$outroot/p1/norms.txt") <(notime_stdout "$outroot/p2/norms.txt") >&2; then
  echo "bench smoke: -fig norms stdout differs between -parallel 1 and 2" >&2
  status=1
fi
[ "$status" -eq 0 ] && echo "bench smoke: figure CSVs and norms stdout identical across sweep pool sizes"

"$qbench" -bench-json "$outroot/bench.json"

fail() { echo "bench smoke: $*" >&2; status=1; }
qsim="$outroot/qsim"
go build -o "$qsim" ./cmd/qsim
cat >"$outroot/cx.qasm" <<'QASM'
OPENQASM 2.0;
qreg q[2];
cx q[0],q[1];
QASM
cat >"$outroot/hczh.qasm" <<'QASM'
OPENQASM 2.0;
qreg q[2];
h q[1];
cz q[0],q[1];
h q[1];
QASM
cat >"$outroot/h.qasm" <<'QASM'
OPENQASM 2.0;
qreg q[2];
h q[0];
QASM
# y = i·x·z: equal to "z then x" up to the global phase i, not exactly.
cat >"$outroot/y.qasm" <<'QASM'
OPENQASM 2.0;
qreg q[1];
y q[0];
QASM
cat >"$outroot/zx.qasm" <<'QASM'
OPENQASM 2.0;
qreg q[1];
z q[0];
x q[0];
QASM
"$qsim" verify "$outroot/cx.qasm" "$outroot/hczh.qasm" || fail "verify: cx vs h;cz;h not equivalent"
rc=0; "$qsim" verify "$outroot/cx.qasm" "$outroot/h.qasm" || rc=$?
[ "$rc" -eq 1 ] || fail "verify: cx vs h exited $rc, want 1"
rc=0; "$qsim" verify "$outroot/y.qasm" "$outroot/zx.qasm" || rc=$?
[ "$rc" -eq 1 ] || fail "verify: y vs z;x exited $rc without -phase, want 1"
"$qsim" verify -phase "$outroot/y.qasm" "$outroot/zx.qasm" || fail "verify -phase: y vs z;x not equivalent"
"$qsim" view -alg ghz -n 3 >"$outroot/ghz.dot" && grep -q '^digraph "ghz"' "$outroot/ghz.dot" ||
  fail "view: no digraph"
# Blank the trial table's time column and the report's two timings; drop the
# line only the default budget prints.
tune_notime() {
  awk '/^node budget:/ { next }
       /^epsilon/ { t = 1; print; next }
       /^(chosen|no tolerance|algebraic)/ { t = 0 }
       t { $4 = "-" }
       /^chosen/ { sub(/ after .*/, "") }
       /^algebraic alternative/ { $6 = "-" }
       { print }' "$1"
}
"$qsim" tune -alg grover -n 4 >"$outroot/tune.txt" || fail "tune exited non-zero"
peak=$(awk '/^algebraic alternative/ { print $3 }' "$outroot/tune.txt")
if [ -z "$peak" ]; then
  fail "tune: no report"
else
  "$qsim" tune -alg grover -n 4 -max-nodes $((4 * peak)) >"$outroot/tune_explicit.txt" ||
    fail "tune -max-nodes exited non-zero"
  diff <(tune_notime "$outroot/tune.txt") <(tune_notime "$outroot/tune_explicit.txt") >&2 ||
    fail "tune: default budget and -max-nodes $((4 * peak)) give different tables"
fi
[ "$status" -eq 0 ] && echo "bench smoke: qsim verify/view/tune behave"

probs() { awk '$1 ~ /^\|/ { print $2 }' "$1"; }
"$qsim" -alg bwt -depth 3 -steps 4 -repr alg -top 4 -writeqasm "$outroot/bwt.qasm" >"$outroot/bwt.txt" ||
  fail "qsim -writeqasm exited non-zero"
"$qsim" -file "$outroot/bwt.qasm" -repr alg -top 4 >"$outroot/bwt_reread.txt" ||
  fail "qsim could not re-read its -writeqasm output under -repr alg"
if [ -s "$outroot/bwt_reread.txt" ] && [ -n "$(probs "$outroot/bwt.txt")" ] &&
  diff <(probs "$outroot/bwt.txt") <(probs "$outroot/bwt_reread.txt") >&2; then
  echo "bench smoke: qsim -writeqasm round trip keeps the probabilities under -repr alg"
else
  fail "qsim -writeqasm round trip changed the probability column"
fi

"$qsim" -alg gse -phasebits 4 -skdepth 2 -timeout 300ms >"$outroot/qsim_timeout.txt" 2>&1 ||
  fail "qsim -timeout exited non-zero"
grep -q 'run stopped early' "$outroot/qsim_timeout.txt" && grep -q 'context deadline exceeded' "$outroot/qsim_timeout.txt" ||
  fail "qsim -timeout: no early stop on the context deadline"
"$qbench" -fig 5 -phasebits 4 -skdepth 2 -noerror -parallel 1 -timeout 1s -out "$outroot/timeout" >"$outroot/qbench_timeout.txt" 2>&1 ||
  fail "qbench -timeout exited non-zero"
grep -q 'stopped early' "$outroot/qbench_timeout.txt" || fail "qbench -timeout: no early stop"
if grep -q 'deadline limit' "$outroot/qsim_timeout.txt" "$outroot/qbench_timeout.txt"; then
  fail "-timeout reported as a budget failure"
fi
[ "$status" -eq 0 ] && echo "bench smoke: qsim and qbench -timeout stop early as cancellations"
exit "$status"

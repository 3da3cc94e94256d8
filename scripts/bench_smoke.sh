#!/usr/bin/env bash
# Bench smoke: the sweep pool must be a pure performance knob, and the qsim
# subcommands must keep their contracts.
#
# 1. Figure determinism: Fig-3 and Fig-4 CSVs must be identical at
#    -parallel 1 and 2 once the timing column (cum_seconds, col 5) is
#    stripped — each sweep cell runs on a private manager and cells are
#    merged by index, so the diagrams, node counts, errors and bit widths
#    are byte-for-byte the same.
# 2. Single-run benchmark: qbench -bench-json runs and writes its report.
#    (Local apply is checked against the BuildDD+Mul oracle on the same
#    figure circuits by internal/sim's TestLocalApplyMatchesMulOracleOnFigures.)
# 3. qsim subcommands: verify exits 0 on an equivalent pair, 1 on a
#    non-equivalent one, and accepts a global-phase pair under -phase; view
#    emits Graphviz DOT; tune prints its report.
set -euo pipefail
cd "$(dirname "$0")/.."

outroot=$(mktemp -d)
trap 'rm -rf "$outroot"' EXIT

notime() { cut -d, -f1-4,6- "$1"; }

for p in 1 2; do
  mkdir -p "$outroot/p$p"
  for fig in 3 4; do
    go run ./cmd/qbench -fig "$fig" -noerror -parallel "$p" \
      -out "$outroot/p$p" >/dev/null
  done
done

status=0
for f in "$outroot"/p1/*.csv; do
  name=$(basename "$f")
  if ! diff <(notime "$f") <(notime "$outroot/p2/$name") >&2; then
    echo "bench smoke: $name differs between -parallel 1 and 2" >&2
    status=1
  fi
done
[ "$status" -eq 0 ] && echo "bench smoke: figure CSVs identical across sweep pool sizes"

go run ./cmd/qbench -bench-json "$outroot/bench.json"

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
"$qsim" tune -alg grover -n 4 >"$outroot/tune.txt" && grep -q '^chosen ε' "$outroot/tune.txt" ||
  fail "tune: no report"
[ "$status" -eq 0 ] && echo "bench smoke: qsim verify/view/tune behave"
exit "$status"

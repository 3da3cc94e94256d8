#!/usr/bin/env bash
# Bench smoke: the sweep pool must be a pure performance knob.
#
# 1. Figure determinism: Fig-3 and Fig-4 CSVs must be identical at
#    -parallel 1 and 2 once the timing column (cum_seconds, col 5) is
#    stripped — each sweep cell runs on a private manager and cells are
#    merged by index, so the diagrams, node counts, errors and bit widths
#    are byte-for-byte the same.
# 2. Single-run benchmark: qbench -bench-json cross-checks its variants
#    (BuildDD+Mul and local apply) with core.CrossEqual and exits non-zero
#    on any divergence.
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
exit "$status"

#!/usr/bin/env bash
# Size lint for the perf group: crates/bench/src/perf.rs (record types),
# perf/*.rs (suite, gate, codec) and bin/bench_smoke.rs (the driver),
# tests included. The gate is one loop over uniform metric rows; if the
# group creeps back toward a bespoke field and gate arm per workload, or
# workload definitions leak out of ta-workloads, shrink it instead of
# raising the limit.
set -euo pipefail

LIMIT=2050
FILES=(crates/bench/src/perf.rs crates/bench/src/perf/*.rs crates/bench/src/bin/bench_smoke.rs)

cd "$(dirname "$0")/.."

for f in "${FILES[@]}"; do
  if [[ ! -f "$f" ]]; then
    echo "error: $f not found (did the perf group move? update ci/check_perf_lines.sh)" >&2
    exit 1
  fi
done

lines=$(cat "${FILES[@]}" | wc -l)
if ((lines > LIMIT)); then
  echo "error: the perf group has $lines lines (limit $LIMIT): ${FILES[*]}" >&2
  echo "Keep it one row format and one gate loop: workload definitions belong in" >&2
  echo "crates/workloads, measurement in perf/suite.rs, gating in perf/gate.rs." >&2
  exit 1
fi
echo "ok: the perf group is $lines lines (<= $LIMIT)"

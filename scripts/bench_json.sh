#!/usr/bin/env bash
# Writes the committed machine-readable benchmark artifacts:
#   BENCH_query_latency.json  — cached/uncached/concurrent query latency
#   BENCH_ingest.json         — batch-ingest throughput, one and four callers
#   BENCH_region_poll.json    — region population cache repolling
#   BENCH_orb.json            — concurrent ORB serving path + wire batches
#   BENCH_cluster.json        — sharded cluster routed + scatter-gather paths
#   BENCH_triggers.json       — standing-rule scaling (rule axis 10^3..10^6)
#   BENCH_city.json           — open-loop city workload vs a 4-shard spatial
#                               cluster (corrected p99 per operation class)
#
# Each benchmark runs 5 repetitions (scripts/bench_compare.py gates on their
# median), and the JSON context records the build's CMAKE_BUILD_TYPE, its
# compiler id and version, and the git sha (the "library_build_type" gbench
# writes describes libbenchmark, not this project). After each binary, its
# host steal share (percent of all CPU time the hypervisor took from this
# host during the run, from /proc/stat) is added to the same context as
# host_steal_pct; it is only known once the run is over. Each file is written
# to a temporary path first and moved into place only when that steal is at
# most MAX_STEAL_PCT (10): a baseline taken on a noisy host is
# refused, the old one kept, and the script exits nonzero after the last
# binary.
#
# Usage: scripts/bench_json.sh [build-dir] [out-dir]
# Or via CMake: cmake --build build --target bench_json
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-.}"
REPO_DIR="$(cd "$(dirname "$0")/.." && pwd)"
MAX_STEAL_PCT=10
REFUSED=0

cache_value() {
  sed -n "s/^$1:[A-Z]*=//p" "$BUILD_DIR/CMakeCache.txt" 2>/dev/null || true
}
BUILD_TYPE="$(cache_value CMAKE_BUILD_TYPE)"
COMPILER="$(cache_value MW_CXX_COMPILER)"
GIT_SHA="$(git -C "$REPO_DIR" rev-parse --short HEAD 2>/dev/null || true)"
CONTEXT="build_type=${BUILD_TYPE:-unknown},compiler=${COMPILER:-unknown},git_sha=${GIT_SHA:-unknown}"

# "steal total" jiffies of the aggregate cpu line; the total sums its first
# eight fields (user .. steal), as perfbench does.
cpu_ticks() {
  awk '$1 == "cpu" { t = 0; for (i = 2; i <= 9; ++i) t += $i; print $9, t; exit }' /proc/stat
}

run() {
  local bin="$1" out="$2"
  if [[ ! -x "$bin" ]]; then
    echo "bench_json.sh: missing $bin (build the bench targets first)" >&2
    exit 1
  fi
  local tmp="$out.tmp"
  local before after steal
  before="$(cpu_ticks)"
  "$bin" --benchmark_out="$tmp" --benchmark_out_format=json \
         --benchmark_min_time=0.05 --benchmark_repetitions=5 \
         --benchmark_context="$CONTEXT"
  after="$(cpu_ticks)"
  steal="$(python3 - "$tmp" $before $after <<'PY'
import json, sys
path, s0, t0, s1, t1 = sys.argv[1], *map(int, sys.argv[2:])
with open(path) as f:
    doc = json.load(f)
steal = "%.1f" % (100.0 * (s1 - s0) / max(1, t1 - t0))
doc["context"]["host_steal_pct"] = steal
with open(path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(steal)
PY
)"
  if python3 -c 'import sys; sys.exit(float(sys.argv[1]) > float(sys.argv[2]))' \
       "$steal" "$MAX_STEAL_PCT"; then
    mv "$tmp" "$out"
    echo "wrote $out (host_steal_pct $steal)"
  else
    rm -f "$tmp"
    echo "bench_json.sh: host_steal_pct $steal > $MAX_STEAL_PCT, left $out unchanged" >&2
    REFUSED=1
  fi
}

run "$BUILD_DIR/bench/bench_query_latency" "$OUT_DIR/BENCH_query_latency.json"
run "$BUILD_DIR/bench/bench_ingest_parallel" "$OUT_DIR/BENCH_ingest.json"
run "$BUILD_DIR/bench/bench_region_poll" "$OUT_DIR/BENCH_region_poll.json"
run "$BUILD_DIR/bench/bench_orb_concurrent" "$OUT_DIR/BENCH_orb.json"
run "$BUILD_DIR/bench/bench_cluster" "$OUT_DIR/BENCH_cluster.json"
run "$BUILD_DIR/bench/bench_triggers_scale" "$OUT_DIR/BENCH_triggers.json"
run "$BUILD_DIR/bench/bench_city" "$OUT_DIR/BENCH_city.json"
exit "$REFUSED"

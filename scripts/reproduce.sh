#!/usr/bin/env bash
# Full reproduction pipeline: build, test, regenerate every paper table and
# figure, and run the example applications. Outputs land in test_output.txt
# and bench_output.txt at the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

# Prefer Ninja when it is installed, but don't require it — fall back to
# CMake's default generator (usually Makefiles) otherwise.
GEN=()
if command -v ninja >/dev/null 2>&1; then
  GEN=(-G Ninja)
fi

cmake -B build "${GEN[@]}"
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

# Concurrency discipline under ThreadSanitizer: a separate build tree so the
# instrumented binaries never mix with the regular ones. Only the suites that
# exercise threads are run (the rest are covered above).
cmake -B build-tsan "${GEN[@]}" -DMW_SANITIZE=thread
cmake --build build-tsan
ctest --test-dir build-tsan \
      -R 'Concurrency|ContinuousQuery|FusionCache|IngestBatch|WorkerPool|RegionCache|ReadingStore|RpcDispatcher|Cluster|RpcTimeout|EventLoop|OpenLoopLoadGen|CrowdMonitor|DensityRules' \
      --output-on-failure 2>&1 | tee tsan_output.txt

# Machine-readable benchmark artifacts committed at the repo root.
scripts/bench_json.sh build .

{
  for b in build/bench/bench_*; do
    [ -x "$b" ] || continue
    echo "===== $b ====="
    "$b"
  done
} 2>&1 | tee bench_output.txt

echo "===== examples ====="
for e in quickstart follow_me anywhere_messaging location_notifications \
         personnel_locator route_finder campus_handoff ops_dashboard \
         cluster_demo city_crowd_demo; do
  echo "--- $e ---"
  "build/examples/$e"
done

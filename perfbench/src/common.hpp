// Shared machinery of the serving-path benchmark: command line, result
// reporting, an open-loop generator with coordinated-omission correction,
// process resource sampling and the in-memory span recorder.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "citysim/histogram.hpp"

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

/// Latency limit on corrected p99 and on end-of-window generator lateness.
inline constexpr double kSloMs = 10.0;

[[nodiscard]] std::int64_t nowNs();
[[nodiscard]] double secondsSince(SteadyClock::time_point start);
[[nodiscard]] std::size_t generatorThreads();  ///< min(4, nproc)

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spansOut;  ///< where a traced run writes its spans
};

/// One named number with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload hands back to main(): the contract fields, the metrics
/// of the requested mode, and a human-readable report printed above the
/// final JSON line.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t oracleMismatches = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> report;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// printf-style report line.
  void linef(const char* format, ...) __attribute__((format(printf, 2, 3)));
};

/// Corrected (completion - intended) latencies of one operation class, plus
/// the generator's own lateness (actual start - intended).
struct ClassResult {
  mw::citysim::LatencyHistogram corrected;
  mw::citysim::LatencyHistogram service;
  mw::citysim::LatencyHistogram lateness;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::int64_t endLatenessNs = 0;  ///< lateness of the class's last arrival
  double spanS = 0;  ///< window start to the class's last completion

  /// Completed operations per second of the span.
  [[nodiscard]] double throughput() const {
    return spanS > 0 ? static_cast<double>(attempted - failed) / spanS : 0;
  }

  /// Pools another window of the same class into this one; the end
  /// lateness kept is the worse of the two.
  void merge(const ClassResult& other) {
    corrected.merge(other.corrected);
    service.merge(other.service);
    lateness.merge(other.lateness);
    attempted += other.attempted;
    failed += other.failed;
    endLatenessNs = std::max(endLatenessNs, other.endLatenessNs);
    spanS += other.spanS;
  }

  [[nodiscard]] double p50Ms() const { return corrected.valueAtPercentile(50) / 1e6; }
  [[nodiscard]] double p99Ms() const { return corrected.valueAtPercentile(99) / 1e6; }
};

/// One scheduled arrival: intended send time (ns after the window start),
/// its class and a class-specific argument (trace index, target index...).
struct Arrival {
  std::int64_t dueNs = 0;
  std::uint16_t cls = 0;
  std::uint32_t arg = 0;
};

/// Executes `op(cls, arg)` for every arrival of every lane, open loop: lane
/// i runs on its own thread, sleeps until each arrival is due and never skips
/// one, so a stall shows as corrected latency on the arrivals queued behind
/// it. `op` returns false for a failed operation, which is recorded as a
/// limit miss. When `spans` is set every call is also recorded as a span.
class SpanRecorder;
std::vector<ClassResult> runOpenLoop(const std::vector<std::string>& classNames,
                                     const std::vector<std::vector<Arrival>>& lanes,
                                     const std::function<bool(std::uint16_t, std::uint32_t)>& op,
                                     SpanRecorder* spans = nullptr);

/// Evenly spaced arrivals of one class: `count` arrivals at `rate`/s, args
/// 0..count-1.
void scheduleClass(std::vector<Arrival>& lane, std::uint16_t cls, double rate,
                   std::uint64_t count, std::uint64_t firstArg = 0);
/// Sorts every lane by due time.
void sortLanes(std::vector<std::vector<Arrival>>& lanes);

/// Samples the process's thread count and resident set every 5 ms on a
/// background thread. Paused while the oracle replays, so the peaks cover
/// the system under test only.
class ResourceSampler {
 public:
  ResourceSampler();
  ~ResourceSampler();
  ResourceSampler(const ResourceSampler&) = delete;
  ResourceSampler& operator=(const ResourceSampler&) = delete;

  void pause() { paused_.store(true); }
  void resume() { paused_.store(false); }
  [[nodiscard]] int threadsPeak() const { return threadsPeak_.load(std::memory_order_relaxed); }
  [[nodiscard]] double rssPeakMb() const {
    return static_cast<double>(rssPeakKb_.load(std::memory_order_relaxed)) / 1024.0;
  }
  [[nodiscard]] static int threadsNow();

 private:
  void sample();

  std::atomic<int> threadsPeak_{0};
  std::atomic<long> rssPeakKb_{0};
  std::atomic<bool> paused_{false};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// The machine-wide CPU time counters of /proc/stat, to report how much of
/// a run the hypervisor gave to other guests (steal).
struct CpuTicks {
  unsigned long long total = 0;
  unsigned long long steal = 0;
  [[nodiscard]] static CpuTicks now();
  [[nodiscard]] double stealPercentSince(const CpuTicks& before) const {
    const unsigned long long elapsed = total - before.total;
    return elapsed == 0 ? 0 : 100.0 * static_cast<double>(steal - before.steal) /
                                  static_cast<double>(elapsed);
  }
};

/// One SCHED_IDLE busy thread per CPU for the object's lifetime: they run
/// only when no other thread of the machine wants the CPU. They live in a
/// forked child process, so they share no address space with the workload:
/// the TLB shootdowns of the workload's own thread starts and exits then
/// never interrupt them. Construct before any other thread starts; the
/// destructor kills the child and waits for it.
class IdleSpinners {
 public:
  IdleSpinners();
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  int child_ = -1;
};

/// In-memory spans: name, request id, parent span, start and end. Written
/// out as JSON lines when the benchmark ends.
class SpanRecorder {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t request = 0;
    std::uint64_t parent = 0;
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
  };

  /// Records a finished span and returns its id.
  std::uint64_t record(std::uint64_t request, std::uint64_t parent, std::string name,
                       std::int64_t startNs, std::int64_t endNs);
  [[nodiscard]] std::size_t size() const;
  /// Writes one JSON object per span; returns false when the file cannot be
  /// written.
  bool write(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Times one call in nanoseconds.
template <typename F>
std::int64_t timeNs(F&& f) {
  const std::int64_t start = nowNs();
  f();
  return nowNs() - start;
}

[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double percentile(std::vector<double> values, double p);

}  // namespace perfbench

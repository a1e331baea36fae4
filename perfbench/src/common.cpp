#include "common.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include <fcntl.h>
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

namespace perfbench {

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

double secondsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

std::size_t generatorThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(n == 0 ? 1 : n, 1, 4);
}

void Result::linef(const char* format, ...) {
  char buf[1024];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof buf, format, args);
  va_end(args);
  report.emplace_back(buf);
}

namespace {

/// A failed operation counts as missing any latency limit.
constexpr std::uint64_t kFailedLatencyNs = 3'600'000'000'000ULL;

struct LaneClassState {
  mw::citysim::LatencyHistogram corrected, service, lateness;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::int64_t lastDue = -1;
  std::int64_t lastLateness = 0;
  SteadyClock::time_point lastDone{};
};

}  // namespace

std::vector<ClassResult> runOpenLoop(const std::vector<std::string>& classNames,
                                     const std::vector<std::vector<Arrival>>& lanes,
                                     const std::function<bool(std::uint16_t, std::uint32_t)>& op,
                                     SpanRecorder* spans) {
  std::vector<std::vector<LaneClassState>> states(
      lanes.size(), std::vector<LaneClassState>(classNames.size()));
  const SteadyClock::time_point start = SteadyClock::now() + std::chrono::milliseconds(5);
  std::vector<std::thread> threads;
  threads.reserve(lanes.size());
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    threads.emplace_back([&, l] {
      std::vector<LaneClassState>& mine = states[l];
      for (const Arrival& arrival : lanes[l]) {
        const SteadyClock::time_point intended = start + std::chrono::nanoseconds(arrival.dueNs);
        std::this_thread::sleep_until(intended);
        const SteadyClock::time_point began = SteadyClock::now();
        bool ok = false;
        try {
          ok = op(arrival.cls, arrival.arg);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "perfbench: %s op failed: %s\n",
                       classNames[arrival.cls].c_str(), e.what());
        }
        const SteadyClock::time_point done = SteadyClock::now();
        LaneClassState& s = mine[arrival.cls];
        const auto ns = [](SteadyClock::duration d) {
          return static_cast<std::int64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
        };
        const std::int64_t late = std::max<std::int64_t>(0, ns(began - intended));
        ++s.attempted;
        if (ok) {
          s.corrected.record(static_cast<std::uint64_t>(std::max<std::int64_t>(0, ns(done - intended))));
          s.service.record(static_cast<std::uint64_t>(ns(done - began)));
        } else {
          ++s.failed;
          s.corrected.record(kFailedLatencyNs);
        }
        s.lateness.record(static_cast<std::uint64_t>(late));
        s.lastDone = done;
        if (arrival.dueNs >= s.lastDue) {
          s.lastDue = arrival.dueNs;
          s.lastLateness = late;
        }
        if (spans != nullptr) {
          spans->record(arrival.arg, 0, classNames[arrival.cls],
                        ns(began.time_since_epoch()), ns(done.time_since_epoch()));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::vector<ClassResult> results(classNames.size());
  for (std::size_t c = 0; c < classNames.size(); ++c) {
    ClassResult& r = results[c];
    std::int64_t lastDue = -1;
    for (const auto& lane : states) {
      const LaneClassState& s = lane[c];
      r.corrected.merge(s.corrected);
      r.service.merge(s.service);
      r.lateness.merge(s.lateness);
      r.attempted += s.attempted;
      r.failed += s.failed;
      if (s.lastDue > lastDue) {
        lastDue = s.lastDue;
        r.endLatenessNs = s.lastLateness;
      }
      if (s.attempted > 0) {
        r.spanS = std::max(r.spanS, std::chrono::duration<double>(s.lastDone - start).count());
      }
    }
  }
  return results;
}

void scheduleClass(std::vector<Arrival>& lane, std::uint16_t cls, double rate,
                   std::uint64_t count, std::uint64_t firstArg) {
  const double nsPer = 1e9 / rate;
  for (std::uint64_t i = 0; i < count; ++i) {
    lane.push_back({static_cast<std::int64_t>(static_cast<double>(i) * nsPer), cls,
                    static_cast<std::uint32_t>(firstArg + i)});
  }
}

void sortLanes(std::vector<std::vector<Arrival>>& lanes) {
  for (auto& lane : lanes) {
    std::stable_sort(lane.begin(), lane.end(),
                     [](const Arrival& a, const Arrival& b) { return a.dueNs < b.dueNs; });
  }
}

// --- resources ------------------------------------------------------------------

namespace {

/// The value of a "Key:   <number> ..." line of /proc/self/status, or -1.
long procStatusField(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long value = -1;
  const std::size_t keyLen = std::char_traits<char>::length(key);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, keyLen) == 0 && line[keyLen] == ':') {
      value = std::strtol(line + keyLen + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return value;
}

}  // namespace

ResourceSampler::ResourceSampler() {
  sample();
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      if (!paused_.load(std::memory_order_relaxed)) sample();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
}

ResourceSampler::~ResourceSampler() {
  stop_.store(true);
  thread_.join();
}

void ResourceSampler::sample() {
  const int threads = threadsNow();
  if (threads > threadsPeak_.load(std::memory_order_relaxed)) threadsPeak_.store(threads);
  const long rss = procStatusField("VmRSS");
  if (rss > rssPeakKb_.load(std::memory_order_relaxed)) rssPeakKb_.store(rss);
}

int ResourceSampler::threadsNow() { return static_cast<int>(procStatusField("Threads")); }

CpuTicks CpuTicks::now() {
  CpuTicks ticks;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return ticks;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2], &v[3],
                  &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) ticks.total += x;
    ticks.steal = v[7];
  }
  std::fclose(f);
  return ticks;
}

namespace {

void spinPause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();  // leaves the core's shared resources to real work
#endif
}

}  // namespace

IdleSpinners::IdleSpinners() {
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  const pid_t parent = getpid();
  child_ = fork();
  if (child_ != 0) return;  // the parent, or no spinners when fork failed
  // Hold none of the parent's output pipes open.
  const int devnull = open("/dev/null", O_RDWR);
  for (int fd = 0; fd <= 2; ++fd) dup2(devnull, fd);
  sched_param param{};
  sched_setscheduler(0, SCHED_IDLE, &param);  // inherited by the threads below
  for (unsigned i = 1; i < cpus; ++i) {
    std::thread([] {
      for (;;) spinPause();
    }).detach();
  }
  // The child outlives a parent killed by a signal unless it notices the
  // re-parenting itself (PR_SET_PDEATHSIG is not honoured everywhere), so
  // this thread checks every few milliseconds.
  while (getppid() == parent) {
    const auto until = SteadyClock::now() + std::chrono::milliseconds(5);
    while (SteadyClock::now() < until) spinPause();
  }
  _exit(0);
}

IdleSpinners::~IdleSpinners() {
  if (child_ <= 0) return;
  kill(child_, SIGKILL);
  while (waitpid(child_, nullptr, 0) < 0 && errno == EINTR) {
  }
}

// --- spans -------------------------------------------------------------------------

std::uint64_t SpanRecorder::record(std::uint64_t request, std::uint64_t parent, std::string name,
                                   std::int64_t startNs, std::int64_t endNs) {
  std::lock_guard lock(mutex_);
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back({id, request, parent, std::move(name), startNs, endNs});
  return id;
}

std::size_t SpanRecorder::size() const {
  std::lock_guard lock(mutex_);
  return spans_.size();
}

bool SpanRecorder::write(const std::string& path) const {
  std::lock_guard lock(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"request\":" << s.request << ",\"parent\":" << s.parent
        << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.startNs
        << ",\"end_ns\":" << s.endNs << "}\n";
  }
  return static_cast<bool>(out);
}

double median(std::vector<double> values) { return percentile(std::move(values), 50); }

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

}  // namespace perfbench

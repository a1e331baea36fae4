// venue_rules: in-process LocationService::ingestBatch under >= 10^4
// standing rules, fed closed loop with a crowd converging on the venue.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <mutex>

#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kBatch = 128;
constexpr std::size_t kSubjectRules = 10000;
constexpr std::size_t kDensityLimit = 32;
/// Repetitions per second of --seconds; the first one only warms the heap.
constexpr double kRepetitionsPerSecond = 1.0;

/// The workload's standing rules and the latency of their callbacks: time
/// from the start of the ingestBatch call carrying the reading until the
/// callback runs.
class VenueRules {
 public:
  VenueRules(const CityWorld& world, core::LocationService& service) {
    std::vector<geo::Rect> regions = world.watched;
    for (const citysim::CityBuilding& building : world.city.buildings) {
      for (const auto& room : building.blueprint.rooms) regions.push_back(room.rect);
    }
    auto onNotify = [this](const core::Notification&) { record(); };
    for (const geo::Rect& region : regions) {
      core::Subscription sub;
      sub.region = region;
      sub.threshold = 0.5;
      sub.onlyOnEntry = true;
      sub.callback = onNotify;
      service.subscribe(std::move(sub));
      specs_.push_back({region, std::nullopt});
    }
    for (std::size_t i = 0; i < kSubjectRules; ++i) {
      core::Subscription sub;
      sub.region = regions[i % regions.size()];
      sub.subject = world.objects[(i * 7919) % world.objects.size()];
      sub.threshold = 0.5;
      sub.onlyOnEntry = true;
      sub.callback = onNotify;
      specs_.push_back({sub.region, sub.subject->str()});
      service.subscribe(std::move(sub));
    }
    for (std::size_t i = 0; i < world.city.outdoors.size(); ++i) {
      if (world.city.outdoors[i].isStreet) continue;
      const std::size_t slot = plazas_.size();
      plazas_.push_back(world.city.outdoors[i].rect);
      counts_.push_back(0);
      core::DensitySubscription sub;
      sub.region = plazas_.back();
      sub.minProbability = kMinProbability;
      sub.limit = kDensityLimit;
      sub.callback = [this, slot](const core::DensityNotification& n) {
        record();
        std::lock_guard lock(mutex_);
        counts_[slot] = n.count;
      };
      specs_.push_back({sub.region, std::nullopt});
      service.subscribeDensity(std::move(sub));
    }
  }

  void batchStarts() { batchStartNs_.store(nowNs(), std::memory_order_relaxed); }

  [[nodiscard]] citysim::LatencyHistogram latency() {
    std::lock_guard lock(mutex_);
    return latency_;
  }
  [[nodiscard]] std::size_t countOf(std::size_t plaza) {
    std::lock_guard lock(mutex_);
    return counts_[plaza];
  }
  [[nodiscard]] const std::vector<geo::Rect>& plazas() const { return plazas_; }
  /// Every rule's region and subject, for the direct match timing.
  [[nodiscard]] const std::vector<std::pair<geo::Rect, std::optional<std::string>>>& specs() const {
    return specs_;
  }

 private:
  void record() {
    const std::int64_t elapsed = nowNs() - batchStartNs_.load(std::memory_order_relaxed);
    std::lock_guard lock(mutex_);
    latency_.record(static_cast<std::uint64_t>(std::max<std::int64_t>(0, elapsed)));
  }

  std::atomic<std::int64_t> batchStartNs_{0};
  std::mutex mutex_;
  citysim::LatencyHistogram latency_;
  std::vector<geo::Rect> plazas_;
  std::vector<std::size_t> counts_;
  std::vector<std::pair<geo::Rect, std::optional<std::string>>> specs_;
};

/// A reading that puts a fresh object at the center of `rect`: ingested
/// alone after the run, it makes every density rule over `rect` re-sync
/// and report its count on the calling thread.
db::SensorReading sentinel(const CityWorld& world, const geo::Rect& rect, std::size_t i) {
  db::SensorReading r;
  r.sensorId = util::SensorId{citysim::CitySensors::kUwbId};
  r.sensorType = "Ubisense";
  r.globPrefix = world.city.name;
  r.mobileObjectId = util::MobileObjectId{"perfbench-sentinel-" + std::to_string(i)};
  r.location = rect.center();
  r.detectionRadius = 0.5;
  r.detectionTime = world.clock.now();
  return r;
}

/// The input: readings of the crowd agents (population ids "crw-<n>"), 5% of
/// them per 5 s tick, while the crowd converges on the announced venue.
constexpr const char* kCrowdPrefix = "crw-";
constexpr double kCrowdFraction = 0.05;
constexpr double kTickSeconds = 5;

/// Readings per repetition: about a second of ingest on a 4-core host.
constexpr std::size_t kVenueReadings = 6000;

/// Feeds the first `readings` trace readings closed loop through
/// ingestBatch in kBatch-reading batches; returns readings/s. Each batch's
/// call latency goes to `batchLatency`, and to `spans` when tracing.
double feed(const CityWorld& world, std::size_t readings, core::LocationService& service,
            VenueRules& rules, citysim::LatencyHistogram& batchLatency, SpanRecorder* spans) {
  const auto start = SteadyClock::now();
  for (std::size_t i = 0; i < readings; i += kBatch) {
    const std::size_t n = std::min(kBatch, readings - i);
    rules.batchStarts();
    const std::int64_t begin = nowNs();
    service.ingestBatch(std::span<const db::SensorReading>(world.trace.data() + i, n));
    const std::int64_t end = nowNs();
    batchLatency.record(static_cast<std::uint64_t>(end - begin));
    if (spans != nullptr) spans->record(i / kBatch + 1, 0, "core.ingestBatch", begin, end);
  }
  return static_cast<double>(readings) / secondsSince(start);
}

/// The traced run: one repetition untraced and one traced, the service's
/// counters from the traced one, then the layer ladder (whose cluster
/// supplies the cluster and ORB counters: this workload runs none).
Result traceVenueRules(const Args& args, const CityWorld& world, std::size_t readings) {
  Result result;
  citysim::LatencyHistogram batchLatency;
  SpanRecorder spans;
  double untracedRate = 0;
  {
    LocalService local(world);
    VenueRules rules(world, local.service);
    untracedRate = feed(world, readings, local.service, rules, batchLatency, nullptr);
  }
  LocalService local(world);
  VenueRules rules(world, local.service);
  const std::uint64_t missesBefore = local.service.fusionCacheMisses();
  const double tracedRate = feed(world, readings, local.service, rules, batchLatency, &spans);
  // Time per reading, traced against untraced.
  addOverhead(1 / untracedRate, 1 / tracedRate, result);
  addServiceCounters({&local.service}, readings,
                     local.service.fusionCacheMisses() - missesBefore,
                     local.database.knownMobileObjects().size(), result);
  result.attempted = 2 * readings;

  // The ladder's depths hold the first ticks of the crowd; its requests are
  // drawn from the measured trace.
  const std::vector<db::SensorReading> preload(
      world.warm.begin(), world.warm.begin() + static_cast<std::ptrdiff_t>(
                                                   std::min<std::size_t>(world.warm.size(), 20000)));
  LadderInputs ladder;
  ladder.world = &world;
  ladder.preload = &preload;
  for (std::size_t i = 0; i < kLadderRequests && i < readings; ++i) {
    ladder.ingests.push_back(world.trace[i * (readings / kLadderRequests)]);
  }
  ladder.locates = sampleObjects(world, kLadderRequests);
  ladder.regions = world.watched;
  ladder.rules = rules.specs();
  ladder.clusterCounters = true;
  runLadder(ladder, spans, result);
  writeSpans(args, spans, result);
  result.linef("venue_rules traced: %.0f readings/s untraced, %.0f traced", untracedRate,
               tracedRate);
  return result;
}

}  // namespace

Result runVenueRules(const Args& args) {
  Result result;
  ResourceSampler sampler;
  const std::size_t readings = kVenueReadings;
  const int repetitions =
      std::max(3, static_cast<int>(std::lround(args.seconds * kRepetitionsPerSecond)));
  double genS = 0;
  const auto world = buildRepeatedly(kSetupRepeats, genS, [&] {
    return buildCityWorld(args.seed, readings, 1.0, kCrowdFraction, kTickSeconds, kCrowdPrefix);
  });

  if (args.trace) return traceVenueRules(args, *world, readings);

  std::vector<double> setups;
  std::vector<double> rates, batchP50s, alarmP50s;
  citysim::LatencyHistogram batchLatency;
  citysim::LatencyHistogram alarm;
  std::uint64_t fusionMisses = 0;
  std::uint64_t mismatches = 0;
  for (int rep = 0; rep <= repetitions; ++rep) {
    const auto setupStart = SteadyClock::now();
    LocalService local(*world);
    VenueRules rules(*world, local.service);
    const double setup = secondsSince(setupStart);

    const std::uint64_t missesBefore = local.service.fusionCacheMisses();
    citysim::LatencyHistogram repLatency;
    const double rate = feed(*world, readings, local.service, rules, repLatency, nullptr);
    if (rep == 0) continue;  // warm-up: first touches of the heap run slower
    setups.push_back(setup);
    rates.push_back(rate);
    batchLatency.merge(repLatency);
    batchP50s.push_back(repLatency.valueAtPercentile(50) / 1e6);
    fusionMisses = local.service.fusionCacheMisses() - missesBefore;
    const citysim::LatencyHistogram repAlarm = rules.latency();
    alarm.merge(repAlarm);
    alarmP50s.push_back(repAlarm.valueAtPercentile(50) / 1e6);
    std::fprintf(stderr, "perfbench: venue_rules rep %d setup %.3f s %.0f readings/s\n", rep,
                 setups.back(), rates.back());

    if (rep < repetitions) continue;
    sampler.pause();
    // Oracle: the same readings ingested one at a time, then a sentinel per
    // plaza into both so every density rule reports its final count.
    LocalService oracle(*world);
    for (std::size_t i = 0; i < readings; ++i) oracle.service.ingest(world->trace[i]);
    for (std::size_t p = 0; p < rules.plazas().size(); ++p) {
      const db::SensorReading probe = sentinel(*world, rules.plazas()[p], p);
      local.service.ingestBatch(std::span<const db::SensorReading>(&probe, 1));
      oracle.service.ingest(probe);
    }
    mismatches = compareWithOracle(
        *world, oracle.service, sampleObjects(*world, 256),
        [&](const util::MobileObjectId& o) { return local.service.locateObject(o); },
        [&](const geo::Rect& r) { return local.service.objectsInRegion(r, kMinProbability); },
        result);
    for (std::size_t p = 0; p < rules.plazas().size(); ++p) {
      const std::size_t recomputed =
          oracle.service.objectsInRegion(rules.plazas()[p], kMinProbability).size();
      if (rules.countOf(p) != recomputed) {
        ++mismatches;
        result.linef("oracle: plaza %zu density count %zu, full recompute %zu", p,
                     rules.countOf(p), recomputed);
      }
    }
    const auto ruleStats = local.service.standingRuleStats();
    result.linef("  rules: productions %zu alpha nodes %zu inside pairs %zu",
                 ruleStats.productions, ruleStats.alphaNodes, ruleStats.insidePairs);
  }

  result.attempted = readings * static_cast<std::uint64_t>(repetitions);
  result.failed = 0;
  result.oracleMismatches = mismatches;
  result.correct = mismatches == 0;
  result.linef("venue_rules seed=%llu readings=%zu batch=%zu ingest_shards=default reps=%d",
               static_cast<unsigned long long>(args.seed), readings, kBatch, repetitions);
  result.linef("  setup: generate %.3f s + median service+rules %.3f s", genS, median(setups));
  result.linef("  batch_ingest_rps median %.0f (reps: %s)", median(rates), [&] {
    std::string s;
    for (double r : rates) s += std::to_string(static_cast<long>(r)) + " ";
    return s;
  }().c_str());
  result.linef("  median over reps: batch latency p50 %.3f ms, alarm p50 %.3f ms",
               median(batchP50s), median(alarmP50s));
  result.linef("  batch latency n=%llu p50/p90/p99 %.3f/%.3f/%.3f ms",
               static_cast<unsigned long long>(batchLatency.count()),
               batchLatency.valueAtPercentile(50) / 1e6, batchLatency.valueAtPercentile(90) / 1e6,
               batchLatency.valueAtPercentile(99) / 1e6);
  result.linef("  alarm n=%llu p50/p90/p99 %.3f/%.3f/%.3f ms",
               static_cast<unsigned long long>(alarm.count()), alarm.valueAtPercentile(50) / 1e6,
               alarm.valueAtPercentile(90) / 1e6, alarm.valueAtPercentile(99) / 1e6);
  result.linef("  by name: batch_ingest_rps %.1f 1/s, alarm_p50_ms %.3f, alarm_p99_ms %.3f",
               median(rates), median(alarmP50s), alarm.valueAtPercentile(99) / 1e6);
  result.linef("  fusion misses during ingest %llu (%.3f per reading) oracle_mismatches %llu",
               static_cast<unsigned long long>(fusionMisses),
               static_cast<double>(fusionMisses) / static_cast<double>(readings),
               static_cast<unsigned long long>(mismatches));

  result.metric("setup_s", genS + median(setups), "s");
  result.metric("capacity_rps", median(rates), "1/s");
  result.metric("primary_p50_ms", median(batchP50s), "ms");
  result.metric("secondary_p50_ms", median(alarmP50s), "ms");
  result.metric("peak_rss_mb", sampler.rssPeakMb(), "MB");
  result.metric("threads_peak", sampler.threadsPeak(), "count");
  return result;
}

}  // namespace perfbench

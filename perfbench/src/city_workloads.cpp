// city_rush and city_lookup: open-loop load through the cluster router.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "workloads.hpp"

namespace perfbench {

namespace {

/// Generator lanes: the first `ingestLanes` carry routed ingest (an object
/// always maps to the same lane, so its readings keep trace order), the
/// rest carry queries.
struct LaneLayout {
  std::size_t ingestLanes = 1;
  std::size_t queryLanes = 1;
  [[nodiscard]] std::size_t total() const { return ingestLanes + queryLanes; }
};

std::size_t laneForObject(const util::MobileObjectId& object, std::size_t lanes) {
  return std::hash<std::string>{}(object.str()) % lanes;
}

/// Ingest-to-callback latency of the density rule: the ingest stamps its
/// object, the router's density callback consumes the stamp. Only ingests
/// that change the venue population produce a sample.
struct AlarmTimes {
  std::mutex mutex;
  std::unordered_map<std::string, SteadyClock::time_point> sent;
  citysim::LatencyHistogram latency;
  std::size_t lastCount = 0;
  std::uint64_t notifications = 0;

  void stamp(const std::string& object) {
    const auto now = SteadyClock::now();
    std::lock_guard lock(mutex);
    sent[object] = now;
  }
  void onNotify(const core::DensityNotification& n) {
    const auto now = SteadyClock::now();
    std::lock_guard lock(mutex);
    lastCount = n.count;
    ++notifications;
    auto it = sent.find(n.object.str());
    if (it == sent.end()) return;  // seeded count or preload
    latency.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - it->second).count()));
    sent.erase(it);
  }
  [[nodiscard]] std::uint64_t notificationCount() {
    std::lock_guard lock(mutex);
    return notifications;
  }
};

/// Waits until no density notification has arrived for `quiet`, at most
/// `limit`.
void awaitQuiescence(AlarmTimes& alarm, std::chrono::milliseconds quiet,
                     std::chrono::milliseconds limit) {
  const auto deadline = SteadyClock::now() + limit;
  std::uint64_t seen = alarm.notificationCount();
  while (SteadyClock::now() < deadline) {
    std::this_thread::sleep_for(quiet);
    const std::uint64_t now = alarm.notificationCount();
    if (now == seen) return;
    seen = now;
  }
}

std::string ms(const citysim::LatencyHistogram& h, double p) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", h.valueAtPercentile(p) / 1e6);
  return buf;
}

void reportClass(Result& result, const char* label, const ClassResult& c) {
  result.linef("  %-12s n=%llu failed=%llu corrected p50/p99 %s/%s ms  service p99 %s ms  "
               "lateness p99 %s ms end %.3f ms",
               label, static_cast<unsigned long long>(c.attempted),
               static_cast<unsigned long long>(c.failed), ms(c.corrected, 50).c_str(),
               ms(c.corrected, 99).c_str(), ms(c.service, 99).c_str(),
               ms(c.lateness, 99).c_str(), c.endLatenessNs / 1e6);
}

/// The latency-limit knee of a rate sweep: the rate at which the sweep's
/// limit metric (pooled corrected p99, or the end-of-window lateness when
/// larger) crosses the SLO. The metric is made non-decreasing in rate by an
/// isotonic (pool-adjacent-violators) fit of its logarithm, and the crossing
/// is interpolated in log rate, so a single noisy probe moves the knee a
/// little instead of ending a search. Returns the lowest rate when even it
/// misses and the highest when none does.
double sweepKnee(const std::vector<double>& rates, const std::vector<double>& limitMs) {
  std::vector<double> fit;
  std::vector<std::size_t> width;
  for (double m : limitMs) {
    fit.push_back(std::log(std::max(m, 1e-3)));
    width.push_back(1);
    while (fit.size() > 1 && fit[fit.size() - 2] > fit.back()) {
      const std::size_t a = width[width.size() - 2];
      const std::size_t b = width.back();
      const double merged = (fit[fit.size() - 2] * static_cast<double>(a) +
                             fit.back() * static_cast<double>(b)) /
                            static_cast<double>(a + b);
      fit.pop_back();
      width.pop_back();
      fit.back() = merged;
      width.back() = a + b;
    }
  }
  std::vector<double> fitted;
  for (std::size_t block = 0; block < fit.size(); ++block) {
    fitted.insert(fitted.end(), width[block], fit[block]);
  }
  const double limit = std::log(kSloMs);
  for (std::size_t i = 0; i < fitted.size(); ++i) {
    if (fitted[i] <= limit) continue;
    if (i == 0) return rates[0];
    const double share = (limit - fitted[i - 1]) / (fitted[i] - fitted[i - 1]);
    return std::exp(std::log(rates[i - 1]) + share * (std::log(rates[i]) - std::log(rates[i - 1])));
  }
  return rates.back();
}

/// One rate of a sweep, pooled over the sweep's repetitions.
struct SweepPoint {
  double rate = 0;
  citysim::LatencyHistogram corrected;
  std::vector<double> endLatenessMs;
  std::uint64_t failed = 0;

  void add(const ClassResult& c) {
    corrected.merge(c.corrected);
    endLatenessMs.push_back(static_cast<double>(c.endLatenessNs) / 1e6);
    failed += c.failed;
  }
  /// The number the SLO limits: p99, or the backlog when it is worse.
  [[nodiscard]] double limitMs() const {
    if (failed > 0) return 1e9;
    return std::max(corrected.valueAtPercentile(99) / 1e6, median(endLatenessMs));
  }
};

std::vector<SweepPoint> ladder(double lowest, double ratio, int points) {
  std::vector<SweepPoint> sweep(static_cast<std::size_t>(points));
  for (int i = 0; i < points; ++i) sweep[static_cast<std::size_t>(i)].rate = lowest * std::pow(ratio, i);
  return sweep;
}

double kneeOf(const std::vector<SweepPoint>& sweep, Result& result, const char* label) {
  std::vector<double> rates, limits;
  std::string line;
  char buf[64];
  for (const SweepPoint& p : sweep) {
    rates.push_back(p.rate);
    limits.push_back(p.limitMs());
    std::snprintf(buf, sizeof buf, " %.0f:%.2f", p.rate, p.limitMs());
    line += buf;
  }
  const double knee = sweepKnee(rates, limits);
  result.linef("  %s sweep (rate/s:limit ms)%s -> knee %.1f/s", label, line.c_str(), knee);
  return knee;
}

/// No-op class at `rate` on the same lane layout: shows the generator itself
/// meets the SLO where the knee was found.
ClassResult noopAt(double rate, std::size_t count, const LaneLayout& layout) {
  std::vector<std::vector<Arrival>> lanes(layout.ingestLanes);
  const double nsPer = 1e9 / rate;
  for (std::size_t i = 0; i < count; ++i) {
    lanes[i % layout.ingestLanes].push_back(
        {static_cast<std::int64_t>(static_cast<double>(i) * nsPer), 0,
         static_cast<std::uint32_t>(i)});
  }
  return runOpenLoop({"noop"}, lanes, [](std::uint16_t, std::uint32_t) { return true; })[0];
}

LaneLayout layoutFor(bool ingestHeavy) {
  const std::size_t threads = generatorThreads();
  if (threads == 1) return {1, 0};
  return ingestHeavy ? LaneLayout{threads - 1, 1} : LaneLayout{1, threads - 1};
}

// --- city_rush -------------------------------------------------------------------

/// The city workloads' world: 2% of the agents homed by the warm tick (the
/// share bench_city warms), then ticks in which 5% of the agents report.
/// Homed objects that report again may cross a territory boundary and
/// migrate; at this share migrations are a fraction of a percent of the
/// readings, the regime of a cluster that has just come up.
constexpr double kWarmFraction = 0.02;
constexpr double kTraceFraction = 0.05;
/// Saturation probes offer every arrival at once, so each generator lane
/// keeps one call in flight back to back: their completion rate is the
/// highest rate the path sustains without a growing backlog.
constexpr double kSaturationRate = 1e9;
constexpr double kRushReferenceRate = 1500;
constexpr double kRushLocateRate = 400;
constexpr double kRushPollRate = 60;
constexpr std::size_t kAlarmLimit = 32;

struct RushProbe {
  double setupS = 0;
  ClassResult ingest, locate, poll;
  citysim::LatencyHistogram alarm;
  std::uint64_t failedRouted = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t baselineConnections = 0;  ///< served connections after warm-up
  int threadsAfterWarm = 0;
  std::uint64_t fusionMissesAfterWarm = 0;
};

std::vector<core::LocationService*> shardServices(Cluster& cluster) {
  std::vector<core::LocationService*> services;
  for (auto& host : cluster.hosts) services.push_back(&host->core().locationService());
  return services;
}

std::uint64_t fusionMisses(const std::vector<core::LocationService*>& services) {
  std::uint64_t misses = 0;
  for (const core::LocationService* service : services) misses += service->fusionCacheMisses();
  return misses;
}

std::size_t residentObjects(Cluster& cluster) {
  std::size_t resident = 0;
  for (auto& host : cluster.hosts) resident += host->loadStats().residentObjects;
  return resident;
}

/// Core, spatialdb, cq and fusion counters of a cluster's shards after a
/// window in which `readings` were ingested.
void addShardCounters(Cluster& cluster, std::uint64_t readings, std::uint64_t missesBefore,
                      Result& result) {
  const auto services = shardServices(cluster);
  addServiceCounters(services, readings, fusionMisses(services) - missesBefore,
                     residentObjects(cluster), result);
}

/// One probe: a fresh cluster, the same warm state and the same trace
/// readings at `rate`, with the fixed background query load. `inspect` runs
/// with the cluster still up, after the window.
RushProbe rushProbe(const CityWorld& world, std::size_t readings, double rate,
                    const LaneLayout& layout, bool densityRule, SpanRecorder* spans,
                    const std::function<void(Cluster&, AlarmTimes&, const RushProbe&)>& inspect) {
  RushProbe probe;
  const auto setupStart = SteadyClock::now();
  Cluster cluster(world, kShards);
  AlarmTimes alarm;
  if (densityRule) {
    cluster.router->subscribeDensity(world.venue, kMinProbability, kAlarmLimit,
                                     [&](const core::DensityNotification& n) { alarm.onNotify(n); });
  }
  preload(*cluster.router, world.warm);
  probe.setupS = secondsSince(setupStart);
  probe.baselineConnections = cluster.servedConnections();
  probe.threadsAfterWarm = ResourceSampler::threadsNow();
  probe.fusionMissesAfterWarm = fusionMisses(shardServices(cluster));

  const double window = static_cast<double>(readings) / rate;
  std::vector<std::vector<Arrival>> lanes(layout.total());
  const double nsPer = 1e9 / rate;
  for (std::size_t i = 0; i < readings; ++i) {
    lanes[laneForObject(world.trace[i].mobileObjectId, layout.ingestLanes)].push_back(
        {static_cast<std::int64_t>(static_cast<double>(i) * nsPer), 0,
         static_cast<std::uint32_t>(i)});
  }
  auto& queryLane = lanes[layout.queryLanes > 0 ? layout.ingestLanes : 0];
  scheduleClass(queryLane, 1, kRushLocateRate,
                static_cast<std::uint64_t>(std::ceil(kRushLocateRate * window)));
  scheduleClass(queryLane, 2, kRushPollRate,
                static_cast<std::uint64_t>(std::ceil(kRushPollRate * window)));
  sortLanes(lanes);

  auto& router = *cluster.router;
  const auto& objects = world.objects;
  const auto results = runOpenLoop(
      {"ingest", "locate", "region_poll"}, lanes,
      [&](std::uint16_t cls, std::uint32_t arg) {
        switch (cls) {
          case 0:
            alarm.stamp(world.trace[arg].mobileObjectId.str());
            router.ingest(world.trace[arg]);
            return true;
          case 1:
            (void)router.locate(objects[(static_cast<std::size_t>(arg) * 7919) % objects.size()]);
            return true;
          default:
            return !router.objectsInRegionDetailed(world.watched[arg % world.watched.size()],
                                                   kMinProbability)
                        .degraded;
        }
      },
      spans);
  probe.ingest = results[0];
  probe.locate = results[1];
  probe.poll = results[2];
  awaitQuiescence(alarm, std::chrono::milliseconds(50), std::chrono::milliseconds(2000));
  {
    std::lock_guard lock(alarm.mutex);
    probe.alarm = alarm.latency;
  }
  const auto stats = router.stats();
  probe.failedRouted = stats.droppedIngestReadings + stats.failedRoutedCalls;
  for (const ClassResult* c : {&probe.ingest, &probe.locate, &probe.poll}) {
    probe.attempted += c->attempted;
    probe.failed += c->failed;
  }
  probe.failed += probe.failedRouted;
  std::fprintf(stderr,
               "perfbench: city_rush probe %.0f/s: ingest p99 %.3f ms, end lateness %.3f ms, "
               "%.0f readings/s, migrations %llu\n",
               rate, probe.ingest.p99Ms(), probe.ingest.endLatenessNs / 1e6,
               probe.ingest.throughput(), static_cast<unsigned long long>(stats.objectMigrations));
  if (inspect) inspect(cluster, alarm, probe);
  return probe;
}

/// "median (v1 v2 ...)" rendering for report lines.
std::string joined(const std::vector<double>& values, int decimals = 1) {
  std::string out = "(";
  char buf[32];
  for (double v : values) {
    std::snprintf(buf, sizeof buf, "%.*f ", decimals, v);
    out += buf;
  }
  if (out.size() > 1) out.back() = ')';
  else out += ')';
  return out + " ";
}

/// One reading per territory leaf within reach of the venue, from a fresh
/// object homed in that leaf, with evidence wide enough to touch the venue.
/// A density rule's count converges on the next reading that touches its
/// region (a migrated object is imported without firing rules), so these
/// make every covering shard re-sync before the router's total is compared.
std::vector<db::SensorReading> venueSentinels(const CityWorld& world,
                                              const cluster::TerritoryMap& map) {
  std::vector<db::SensorReading> sentinels;
  const geo::Rect reach = world.venue.inflated(kRegionSlack);
  for (const cluster::TerritoryLeaf& leaf : map.leaves()) {
    const std::optional<geo::Rect> overlap = leaf.rect.intersection(reach);
    if (!overlap || overlap->area() <= 0) continue;
    db::SensorReading r;
    r.sensorId = util::SensorId{citysim::CitySensors::kGpsId};
    r.sensorType = "GPS";
    r.globPrefix = world.city.name;
    r.mobileObjectId = util::MobileObjectId{"perfbench-sentinel-" + std::to_string(leaf.id)};
    r.location = overlap->center();
    r.detectionRadius = 2 * kRegionSlack;
    r.detectionTime = world.clock.now();
    sentinels.push_back(std::move(r));
  }
  return sentinels;
}

/// Replays what a cluster ingested into the single-process oracle and counts
/// the answers that differ. With `alarm`, the router's venue density total
/// is also compared with a full recompute, after the venue sentinels.
std::uint64_t checkClusterAgainstOracle(const CityWorld& world, Cluster& cluster,
                                        std::size_t traceReadings, AlarmTimes* alarm,
                                        Result& result) {
  LocalService oracle(world);
  for (const auto& reading : world.warm) oracle.service.ingest(reading);
  for (std::size_t i = 0; i < traceReadings; ++i) oracle.service.ingest(world.trace[i]);
  auto& router = *cluster.router;
  if (alarm != nullptr) {
    for (const auto& sentinel : venueSentinels(world, router.territorySnapshot())) {
      router.ingest(sentinel);
      oracle.service.ingest(sentinel);
    }
    awaitQuiescence(*alarm, std::chrono::milliseconds(50), std::chrono::milliseconds(2000));
  }
  std::uint64_t mismatches = compareWithOracle(
      world, oracle.service, sampleObjects(world, 256),
      [&](const util::MobileObjectId& o) { return router.locate(o); },
      [&](const geo::Rect& r) { return router.objectsInRegion(r, kMinProbability); }, result);
  if (alarm != nullptr) {
    std::size_t densityCount = 0;
    {
      std::lock_guard lock(alarm->mutex);
      densityCount = alarm->lastCount;
    }
    const std::size_t recomputed =
        oracle.service.objectsInRegion(world.venue, kMinProbability).size();
    if (densityCount != recomputed) {
      ++mismatches;
      result.linef("oracle: venue density count %zu, full recompute %zu", densityCount,
                   recomputed);
    }
  }
  return mismatches;
}

/// Readings per sweep probe: about 1.5 ticks of the 5% trace.
constexpr std::size_t kRushReadings = 6000;
/// Readings per reference probe: 2 s at the reference rate.
constexpr std::size_t kRushReferenceReadings = 3000;
/// Rounds the untraced run's measured time is spread over.
constexpr std::size_t kRushRounds = 8;
/// The ingest sweep: 5 rates 50% apart from 4000/s, each probed on a fresh
/// cluster without standing rules.
constexpr double kRushSweepLowest = 4000;
constexpr double kRushSweepRatio = 1.5;
constexpr int kRushSweepPoints = 5;
/// Saturation probes replay a longer stretch of the trace, so each lasts
/// about a second.
constexpr std::size_t kRushSaturationReadings = 24000;

// --- city_lookup -----------------------------------------------------------------

/// 750 locates/s + 75 polls/s: half the 1650/s first proposed, at which the
/// region polls' p99 sits on the 10 ms limit on a 4-core host.
constexpr double kLookupReferenceRate = 825;
constexpr double kLookupTrickleRate = 200;
constexpr double kLookupSweepLowest = 600;
constexpr double kLookupSweepRatio = 1.35;
constexpr int kLookupSweepPoints = 7;
constexpr std::size_t kLookupSaturationQueries = 6000;
/// Rounds the untraced run's measured time is spread over.
constexpr std::size_t kLookupRounds = 8;
/// Full set-ups per untraced run; setup_s is their median.
constexpr int kLookupSetups = 5;

/// Small targeted poll regions: every room (corridors, streets and plazas
/// hold a crowd each, so polling them mixes two costs and the poll median
/// would flip between them from seed to seed).
std::vector<geo::Rect> lookupTargets(const CityWorld& world) {
  std::vector<geo::Rect> targets;
  for (const citysim::CityBuilding& building : world.city.buildings) {
    for (const auto& room : building.blueprint.rooms) {
      if (!room.isCorridor) targets.push_back(room.rect);
    }
  }
  return targets;
}

/// The traced run: the reference probe untraced and traced, the cluster
/// and shard counters of the traced window, then the layer ladder.
Result traceCityRush(const Args& args, const CityWorld& world, const LaneLayout& layout) {
  Result result;
  const RushProbe untraced =
      rushProbe(world, kRushReadings, kRushReferenceRate, layout, true, nullptr, nullptr);
  SpanRecorder spans;
  const RushProbe traced = rushProbe(
      world, kRushReadings, kRushReferenceRate, layout, true, &spans,
      [&](Cluster& cluster, AlarmTimes&, const RushProbe& probe) {
        addClusterCounters(cluster, probe.baselineConnections, result);
        addShardCounters(cluster, kRushReadings, probe.fusionMissesAfterWarm, result);
      });
  addOverhead(untraced.ingest.p50Ms(), traced.ingest.p50Ms(), result);
  result.attempted = untraced.attempted + traced.attempted;
  result.failed = untraced.failed + traced.failed;

  LadderInputs ladder;
  ladder.world = &world;
  ladder.preload = &world.warm;
  for (std::size_t i = 0; i < kLadderRequests; ++i) {
    ladder.ingests.push_back(world.trace[i * (kRushReadings / kLadderRequests)]);
  }
  ladder.locates = sampleObjects(world, kLadderRequests);
  ladder.regions = world.watched;
  ladder.rules.push_back({world.venue, std::nullopt});
  runLadder(ladder, spans, result);
  writeSpans(args, spans, result);
  result.linef("city_rush traced: reference %.0f ingest/s, p50 untraced %.3f ms traced %.3f ms",
               kRushReferenceRate, untraced.ingest.p50Ms(), traced.ingest.p50Ms());
  return result;
}

}  // namespace

Result runCityRush(const Args& args) {
  Result result;
  ResourceSampler sampler;
  const std::size_t readings = kRushReferenceReadings;
  double genS = 0;
  const auto world = buildRepeatedly(kSetupRepeats, genS, [&] {
    return buildCityWorld(args.seed, kRushSaturationReadings, kWarmFraction, kTraceFraction, 1.0);
  });
  const LaneLayout layout = layoutFor(true);
  if (args.trace) return traceCityRush(args, *world, layout);

  std::vector<double> setups;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  auto account = [&](const RushProbe& p) {
    setups.push_back(p.setupS);
    attempted += p.attempted;
    failed += p.failed;
  };

  // The first reference probe also carries the oracle check and the
  // cluster counters.
  std::uint64_t mismatches = 0;
  std::uint64_t migrations = 0;
  std::size_t sessions = 0;
  int threadsAfterWarm = 0;
  double skew = 0;
  const std::function<void(Cluster&, AlarmTimes&, const RushProbe&)> inspect =
      [&](Cluster& cluster, AlarmTimes& alarm, const RushProbe& probe) {
        migrations = cluster.router->stats().objectMigrations;
        sessions = cluster.servedConnections() - probe.baselineConnections;
        threadsAfterWarm = probe.threadsAfterWarm;
        skew = cluster.shardSkew();
        sampler.pause();
        mismatches = checkClusterAgainstOracle(*world, cluster, readings, &alarm, result);
        sampler.resume();
      };

  // Rounds of a reference probe, a share of the knee sweep and a saturation
  // probe; about 30 s of measured time on a 4-core host. A slow stretch of
  // the shared host lands in one round, and the gated medians and the
  // capacity are medians over the rounds.
  SweepPoint reference;
  reference.rate = kRushReferenceRate;
  citysim::LatencyHistogram alarm;
  ClassResult locate, poll;
  std::vector<double> ingestP50s, locateP50s, alarmP50s, saturated;
  std::vector<SweepPoint> sweep = ladder(kRushSweepLowest, kRushSweepRatio, kRushSweepPoints);
  for (std::size_t round = 0; round < kRushRounds; ++round) {
    const RushProbe ref = rushProbe(*world, readings, kRushReferenceRate, layout, true, nullptr,
                                    round == 0 ? inspect : decltype(inspect){});
    account(ref);
    reference.add(ref.ingest);
    alarm.merge(ref.alarm);
    ingestP50s.push_back(ref.ingest.p50Ms());
    locateP50s.push_back(ref.locate.p50Ms());
    alarmP50s.push_back(ref.alarm.valueAtPercentile(50) / 1e6);
    locate.merge(ref.locate);
    poll.merge(ref.poll);
    for (std::size_t i = round; i < sweep.size(); i += kRushRounds) {
      const RushProbe p =
          rushProbe(*world, kRushReadings, sweep[i].rate, layout, false, nullptr, nullptr);
      account(p);
      sweep[i].add(p.ingest);
    }
    const RushProbe p =
        rushProbe(*world, kRushSaturationReadings, kSaturationRate, layout, false, nullptr, nullptr);
    account(p);
    saturated.push_back(p.ingest.throughput());
  }
  const double knee = kneeOf(sweep, result, "ingest");
  const ClassResult noop = noopAt(knee, kRushReadings, layout);

  result.attempted = attempted;
  result.failed = failed;
  result.oracleMismatches = mismatches;
  result.correct = mismatches == 0;
  result.linef("city_rush seed=%llu agents=%zu shards=%zu readings/reference probe=%zu "
               "probes=%zu rounds=%zu",
               static_cast<unsigned long long>(args.seed), kAgents, kShards, readings,
               setups.size(), kRushRounds);
  result.linef("  setup: generate %.3f s + median cluster start+warm %.3f s", genS,
               median(setups));
  result.linef("  ingest_knee_rps %.1f (SLO: corrected p99 and end lateness <= %.0f ms)", knee,
               kSloMs);
  result.linef("  saturated routed ingest (readings/s) %s-> capacity_rps %.1f",
               joined(saturated, 0).c_str(), median(saturated));
  reportClass(result, "noop@knee", noop);
  result.linef("  reference %.0f ingest/s + %.0f locate/s + %.0f poll/s (pooled over %zu "
               "probes; the gated p50s are medians over the probes):",
               kRushReferenceRate, kRushLocateRate, kRushPollRate, kRushRounds);
  result.linef("  ingest       n=%llu corrected p50/p90/p99 %s/%s/%s ms end lateness %s ms",
               static_cast<unsigned long long>(reference.corrected.count()),
               ms(reference.corrected, 50).c_str(), ms(reference.corrected, 90).c_str(),
               ms(reference.corrected, 99).c_str(), joined(reference.endLatenessMs, 3).c_str());
  reportClass(result, "locate", locate);
  reportClass(result, "region_poll", poll);
  result.linef("  alarm n=%llu p50/p90/p99 %s/%s/%s ms",
               static_cast<unsigned long long>(alarm.count()), ms(alarm, 50).c_str(),
               ms(alarm, 90).c_str(), ms(alarm, 99).c_str());
  result.linef("  round p50s (ms): ingest %s-> %.3f, locate %s-> %.3f, alarm %s-> %.3f",
               joined(ingestP50s, 3).c_str(), median(ingestP50s), joined(locateP50s, 3).c_str(),
               median(locateP50s), joined(alarmP50s, 3).c_str(), median(alarmP50s));
  result.linef("  migrations %llu handoff_sessions %zu threads after warm-up %d, peak %d",
               static_cast<unsigned long long>(migrations), sessions, threadsAfterWarm,
               sampler.threadsPeak());
  result.linef("  shard_skew %.3f oracle_mismatches %llu", skew,
               static_cast<unsigned long long>(mismatches));
  result.linef("  by name: ingest_knee_rps %.1f 1/s, ingest_p50_ms %.3f, ingest_p99_ms %s, "
               "alarm_p50_ms %.3f, alarm_p99_ms %s, failed_op_ratio %.6f",
               knee, median(ingestP50s), ms(reference.corrected, 99).c_str(), median(alarmP50s),
               ms(alarm, 99).c_str(),
               static_cast<double>(failed) / static_cast<double>(std::max<std::uint64_t>(1, attempted)));

  result.metric("setup_s", genS + median(setups), "s");
  result.metric("capacity_rps", median(saturated), "1/s");
  result.metric("primary_p50_ms", median(ingestP50s), "ms");
  result.metric("secondary_p50_ms", median(locateP50s), "ms");
  result.metric("peak_rss_mb", sampler.rssPeakMb(), "MB");
  result.metric("threads_peak", sampler.threadsPeak(), "count");
  return result;
}

Result runCityLookup(const Args& args) {
  Result result;
  ResourceSampler sampler;
  // The trickle keeps ingesting across every probe, so the trace holds what
  // the whole run can consume at kLookupTrickleRate, with room for drains.
  const std::size_t trickleReadings =
      static_cast<std::size_t>(kLookupTrickleRate * args.seconds * 2) + 2000;
  const LaneLayout layout = layoutFor(false);

  // Set up kLookupSetups times and keep the last: setup_s is their median.
  std::vector<double> setups;
  std::unique_ptr<CityWorld> world;
  std::unique_ptr<Cluster> cluster;
  std::vector<geo::Rect> targets;
  for (int round = 0; round < (args.trace ? 1 : kLookupSetups); ++round) {
    cluster.reset();
    world.reset();
    const auto start = SteadyClock::now();
    world = buildCityWorld(args.seed, 0, kWarmFraction, kTraceFraction, 1.0);
    // The trickle re-reports resident objects where the warm tick saw them,
    // one tick later: caches revalidate, while the resident set (and so a
    // census's cost) stays the same and no object crosses a territory.
    world->clock.advance(util::sec(1));
    for (std::size_t i = 0; i < trickleReadings; ++i) {
      db::SensorReading reading = world->warm[i % world->warm.size()];
      reading.detectionTime = world->clock.now();
      world->trace.push_back(std::move(reading));
    }
    cluster = std::make_unique<Cluster>(*world, kShards);
    preload(*cluster->router, world->warm);
    targets = lookupTargets(*world);
    for (const geo::Rect& region : targets) {
      (void)cluster->router->objectsInRegion(region, kMinProbability);
    }
    (void)cluster->router->objectsInRegion(world->city.universe, kMinProbability);
    for (const auto& object : world->objects) (void)cluster->router->locate(object);
    setups.push_back(secondsSince(start));
  }
  const std::size_t baselineConnections = cluster->servedConnections();
  auto& router = *cluster->router;
  const auto& objects = world->objects;

  std::size_t trickleCursor = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  struct LookupProbe {
    ClassResult ingest, locate, poll;
  };
  auto probe = [&](double queryRate, std::size_t queries, SpanRecorder* spans = nullptr) {
    const double window = static_cast<double>(queries) / queryRate;
    std::vector<std::vector<Arrival>> lanes(layout.total());
    const std::size_t trickle = static_cast<std::size_t>(std::ceil(kLookupTrickleRate * window));
    util::require(trickleCursor + trickle <= world->trace.size(),
                  "city_lookup: trickle trace exhausted");
    scheduleClass(lanes[0], 0, kLookupTrickleRate, trickle, trickleCursor);
    trickleCursor += trickle;
    // locate:poll = 10:1. Polls get the last lane to themselves, so a
    // census queues behind polls only; locates share the lanes between.
    const double nsPer = 1e9 / queryRate;
    const std::size_t pollLane = lanes.size() - 1;
    const std::size_t locateLanes = std::max<std::size_t>(1, lanes.size() - 2);
    std::uint32_t locates = 0;
    std::uint32_t polls = 0;
    for (std::size_t i = 0; i < queries; ++i) {
      const bool poll = i % 11 == 10;
      auto& lane = lanes[poll ? pollLane : std::min(pollLane, 1 + locates % locateLanes)];
      lane.push_back({static_cast<std::int64_t>(static_cast<double>(i) * nsPer),
                      static_cast<std::uint16_t>(poll ? 2 : 1), poll ? polls++ : locates++});
    }
    sortLanes(lanes);
    const auto results = runOpenLoop(
        {"ingest", "locate", "region_poll"}, lanes,
        [&](std::uint16_t cls, std::uint32_t arg) {
          switch (cls) {
            case 0:
              router.ingest(world->trace[arg]);
              return true;
            case 1:
              (void)router.locate(objects[(static_cast<std::size_t>(arg) * 7919) % objects.size()]);
              return true;
            default: {
              // One poll in ten is a whole-city census, which every shard answers.
              const geo::Rect& region =
                  arg % 10 == 9 ? world->city.universe : targets[arg % targets.size()];
              return !router.objectsInRegionDetailed(region, kMinProbability).degraded;
            }
          }
        },
        spans);
    LookupProbe p{results[0], results[1], results[2]};
    for (const ClassResult& c : results) {
      attempted += c.attempted;
      failed += c.failed;
    }
    std::fprintf(stderr,
                 "perfbench: city_lookup probe %.0f/s locate p99 %.3f ms poll p99 %.3f ms "
                 "end-late %.3f/%.3f ms\n",
                 queryRate, p.locate.p99Ms(), p.poll.p99Ms(), p.locate.endLatenessNs / 1e6,
                 p.poll.endLatenessNs / 1e6);
    return p;
  };

  if (args.trace) {
    // Traced run: the reference rate untraced and traced, the cluster and
    // shard counters of both windows, then the layer ladder.
    const auto queries = static_cast<std::size_t>(kLookupReferenceRate * args.seconds / 4);
    const std::uint64_t missesBefore = fusionMisses(shardServices(*cluster));
    const LookupProbe untraced = probe(kLookupReferenceRate, queries);
    SpanRecorder spans;
    const LookupProbe traced = probe(kLookupReferenceRate, queries, &spans);
    addOverhead(untraced.locate.p50Ms(), traced.locate.p50Ms(), result);
    addClusterCounters(*cluster, baselineConnections, result);
    addShardCounters(*cluster, trickleCursor, missesBefore, result);
    result.attempted = attempted;
    result.failed = failed;

    LadderInputs ladder;
    ladder.world = world.get();
    ladder.preload = &world->warm;
    const std::size_t end = std::min(world->trace.size(), trickleCursor + kLadderRequests);
    ladder.ingests.assign(world->trace.begin() + static_cast<std::ptrdiff_t>(trickleCursor),
                          world->trace.begin() + static_cast<std::ptrdiff_t>(end));
    ladder.locates = sampleObjects(*world, kLadderRequests);
    ladder.regions = targets;
    ladder.regions.push_back(world->city.universe);
    runLadder(ladder, spans, result);
    writeSpans(args, spans, result);
    result.linef("city_lookup traced: reference %.0f queries/s, locate p50 untraced %.3f ms "
                 "traced %.3f ms",
                 kLookupReferenceRate, untraced.locate.p50Ms(), traced.locate.p50Ms());
    return result;
  }

  // Half the measured time goes to the reference rate (enough region polls
  // for a p99), most of the rest to one sweep for the knee. Both are spread
  // over rounds, each a slice of the reference window, a share of the sweep
  // and a saturation probe, so a slow stretch of the shared host lands in
  // one round: the gated medians and the capacity are medians over rounds.
  const auto roundQueries =
      static_cast<std::size_t>(kLookupReferenceRate * args.seconds / 2 / kLookupRounds);
  const std::size_t referenceQueries = roundQueries * kLookupRounds;
  std::vector<SweepPoint> locateSweep = ladder(kLookupSweepLowest, kLookupSweepRatio, kLookupSweepPoints);
  std::vector<SweepPoint> pollSweep = locateSweep;
  double sweepInverseRate = 0;
  for (const SweepPoint& point : locateSweep) sweepInverseRate += 1 / point.rate;
  const auto sweepQueries = static_cast<std::size_t>(args.seconds / 3 / sweepInverseRate);
  LookupProbe reference;
  std::vector<double> locateP50s, pollP50s, saturated;
  for (std::size_t round = 0; round < kLookupRounds; ++round) {
    const LookupProbe slice = probe(kLookupReferenceRate, roundQueries);
    reference.ingest.merge(slice.ingest);
    reference.locate.merge(slice.locate);
    reference.poll.merge(slice.poll);
    locateP50s.push_back(slice.locate.p50Ms());
    pollP50s.push_back(slice.poll.p50Ms());
    for (std::size_t i = round; i < locateSweep.size(); i += kLookupRounds) {
      const LookupProbe p = probe(locateSweep[i].rate, sweepQueries);
      locateSweep[i].add(p.locate);
      pollSweep[i].add(p.poll);
    }
    const LookupProbe p = probe(kSaturationRate, kLookupSaturationQueries);
    saturated.push_back(static_cast<double>(p.locate.attempted + p.poll.attempted -
                                            p.locate.failed - p.poll.failed) /
                        std::max(p.locate.spanS, p.poll.spanS));
  }
  // Both classes must meet the SLO: the sweep's limit is the worse of the two.
  std::vector<SweepPoint> sweep = locateSweep;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    if (pollSweep[i].limitMs() > locateSweep[i].limitMs()) sweep[i] = pollSweep[i];
  }
  const double knee = kneeOf(sweep, result, "query");
  const ClassResult noop = noopAt(knee, sweepQueries, LaneLayout{layout.total() - 1, 0});

  const auto stats = router.stats();
  failed += stats.droppedIngestReadings + stats.failedRoutedCalls;
  sampler.pause();

  // Oracle: warm state plus every trickle reading ingested so far.
  const std::uint64_t mismatches =
      checkClusterAgainstOracle(*world, *cluster, trickleCursor, nullptr, result);

  result.attempted = attempted;
  result.failed = failed;
  result.oracleMismatches = mismatches;
  result.correct = mismatches == 0;
  result.linef("city_lookup seed=%llu agents=%zu shards=%zu resident=%zu "
               "queries: reference %zu, per sweep probe %zu",
               static_cast<unsigned long long>(args.seed), kAgents, kShards, objects.size(),
               referenceQueries, sweepQueries);
  result.linef("  setup (median of %zu): %.3f s", setups.size(), median(setups));
  result.linef("  query_knee_rps %.1f (locate:poll 10:1, census 1 poll in 10)", knee);
  result.linef("  saturated queries/s %s-> capacity_rps %.1f", joined(saturated, 0).c_str(),
               median(saturated));
  result.linef("  reference %.0f queries/s + %.0f ingest/s (pooled over %zu rounds):",
               kLookupReferenceRate, kLookupTrickleRate, kLookupRounds);
  reportClass(result, "locate", reference.locate);
  reportClass(result, "region_poll", reference.poll);
  result.linef("  round p50s (ms): locate %s-> %.3f, region_poll %s-> %.3f",
               joined(locateP50s, 3).c_str(), median(locateP50s), joined(pollP50s, 3).c_str(),
               median(pollP50s));
  reportClass(result, "ingest", reference.ingest);
  reportClass(result, "noop@knee", noop);
  result.linef("  migrations %llu handoff_sessions %zu oracle_mismatches %llu",
               static_cast<unsigned long long>(stats.objectMigrations),
               cluster->servedConnections() - baselineConnections,
               static_cast<unsigned long long>(mismatches));
  result.linef("  by name: query_knee_rps %.1f 1/s, locate_p50_ms %.3f, locate_p99_ms %.3f, "
               "region_poll_p50_ms %.3f, region_poll_p99_ms %.3f, failed_op_ratio %.6f",
               knee, median(locateP50s), reference.locate.p99Ms(), median(pollP50s),
               reference.poll.p99Ms(),
               static_cast<double>(failed) / static_cast<double>(std::max<std::uint64_t>(1, attempted)));

  result.metric("setup_s", median(setups), "s");
  result.metric("capacity_rps", median(saturated), "1/s");
  result.metric("primary_p50_ms", median(locateP50s), "ms");
  result.metric("secondary_p50_ms", median(pollP50s), "ms");
  result.metric("peak_rss_mb", sampler.rssPeakMb(), "MB");
  result.metric("threads_peak", sampler.threadsPeak(), "count");
  return result;
}

}  // namespace perfbench

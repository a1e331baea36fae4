// Region polling ("who is in this region?") against the region population
// cache: a steady-state poll where 1 of N tracked people moved between polls
// must cost O(changed objects) — one re-fusion plus N cheap epoch checks —
// not O(N) re-fusions. BM_RegionPollCached vs BM_RegionPollUncached is the
// cache's speedup; the label carries the measured re-fusions per poll so the
// O(changed) claim is visible in the numbers, not just the wall clock.
// BM_RegionDiscovery isolates candidate discovery: a small-region poll
// against 10^3..10^5 resident objects, almost all of them elsewhere.
// BM_IngestUnderDensityRule is the ingest side of a density rule: members
// re-reporting inside its region must cost the same at 10^2..10^4 members.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "core/location_service.hpp"
#include "sim/blueprint.hpp"
#include "util/rng.hpp"

using namespace mw;

namespace {

constexpr int kSensorsPerPerson = 2;

struct Fixture {
  util::VirtualClock clock;
  sim::Blueprint bp;
  std::unique_ptr<db::SpatialDatabase> database;
  std::unique_ptr<core::LocationService> service;
  geo::Rect region;

  explicit Fixture(int people) : bp(sim::generateBlueprint({.floors = 2, .roomsPerSide = 8})) {
    database = std::make_unique<db::SpatialDatabase>(clock, bp.universe, bp.frames());
    bp.populate(*database);
    service = std::make_unique<core::LocationService>(clock, *database);
    service->connectivity() = bp.connectivity();
    region = bp.universe;  // every tracked person is a member

    util::Rng rng{99};
    for (int s = 0; s < kSensorsPerPerson; ++s) {
      db::SensorMeta meta;
      meta.sensorId = util::SensorId{"ubi-" + std::to_string(s)};
      meta.sensorType = "Ubisense";
      meta.errorSpec = quality::ubisenseSpec(1.0);
      meta.scaleMisidentifyByArea = true;
      meta.quality.ttl = util::minutes(10);
      database->registerSensor(meta);
    }
    for (int p = 0; p < people; ++p) {
      geo::Point2 where{rng.uniform(10, bp.universe.hi().x - 10),
                       rng.uniform(10, bp.universe.hi().y - 10)};
      move(p, where);
    }
  }

  void move(int person, geo::Point2 where) {
    for (int s = 0; s < kSensorsPerPerson; ++s) {
      db::SensorReading r;
      r.sensorId = util::SensorId{"ubi-" + std::to_string(s)};
      r.sensorType = "Ubisense";
      r.mobileObjectId = util::MobileObjectId{"p" + std::to_string(person)};
      r.location = where;
      r.detectionRadius = 0.5 + s;
      r.detectionTime = clock.now();
      service->ingest(r);
    }
  }
};

}  // namespace

// Steady-state poll: person p0 moves between polls, everyone else is
// unchanged. The cached poll revalidates N member epochs and re-fuses only
// p0 — the per-poll fusion count in the label must stay at 1 regardless of N.
static void BM_RegionPollCached(benchmark::State& state) {
  const int people = static_cast<int>(state.range(0));
  Fixture f(people);
  (void)f.service->objectsInRegion(f.region, 0.2);  // warm both cache levels
  f.service->resetRegionCacheCounters();
  f.service->resetFusionCacheCounters();
  double x = 11.0;
  for (auto _ : state) {
    f.move(0, {x, 12.0});
    x = x < 40.0 ? x + 1.0 : 11.0;
    benchmark::DoNotOptimize(f.service->objectsInRegion(f.region, 0.2));
  }
  const double polls = static_cast<double>(state.iterations());
  const double refusedPerPoll =
      static_cast<double>(f.service->regionCacheRevalidations()) / polls;
  state.counters["refused_per_poll"] = refusedPerPoll;
  state.counters["hit_rate"] =
      static_cast<double>(f.service->regionCacheHits()) / polls;
  state.SetLabel(std::to_string(people) + " people, 1 moved (cached)");
}
BENCHMARK(BM_RegionPollCached)->Arg(16)->Arg(64)->Arg(256);

// The same poll with both cache levels flushed every iteration: candidate
// discovery plus N full fusions per poll. Cached/uncached at the same N is
// the region cache's speedup; its growth with N is the O(N) vs O(changed)
// separation.
static void BM_RegionPollUncached(benchmark::State& state) {
  const int people = static_cast<int>(state.range(0));
  Fixture f(people);
  double x = 11.0;
  for (auto _ : state) {
    f.move(0, {x, 12.0});
    x = x < 40.0 ? x + 1.0 : 11.0;
    f.service->invalidateFusionCache();  // flushes the region cache too
    benchmark::DoNotOptimize(f.service->objectsInRegion(f.region, 0.2));
  }
  state.SetLabel(std::to_string(people) + " people, 1 moved (uncached)");
}
BENCHMARK(BM_RegionPollUncached)->Arg(16)->Arg(64)->Arg(256);

// Pure repoll with nothing changed at all: the floor of the cached path —
// one evidence-column scan, N epoch checks, zero fusions.
static void BM_RegionPollQuiescent(benchmark::State& state) {
  const int people = static_cast<int>(state.range(0));
  Fixture f(people);
  (void)f.service->objectsInRegion(f.region, 0.2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.service->objectsInRegion(f.region, 0.2));
  }
  state.SetLabel(std::to_string(people) + " people, unchanged");
}
BENCHMARK(BM_RegionPollQuiescent)->Arg(16)->Arg(64)->Arg(256);

// Candidate discovery at scale: N objects spread over a 1 km square, one
// 10 m x 10 m poll at its center (about N / 10^4 members). The population
// is unchanged between polls, so the poll is a cache hit and its cost is
// discovery: one scan of the reading store's evidence boxes.
static void BM_RegionDiscovery(benchmark::State& state) {
  const int objects = static_cast<int>(state.range(0));
  util::VirtualClock clock;
  const geo::Rect universe = geo::Rect::fromOrigin({0, 0}, 1000, 1000);
  db::SpatialDatabase database(clock, universe, "City");
  db::SensorMeta meta;
  meta.sensorId = util::SensorId{"gps"};
  meta.sensorType = "GPS";
  meta.errorSpec = quality::ubisenseSpec(1.0);
  meta.scaleMisidentifyByArea = true;
  meta.quality.ttl = util::minutes(10);
  database.registerSensor(meta);
  util::Rng rng{7};
  for (int i = 0; i < objects; ++i) {
    db::SensorReading r;
    r.sensorId = meta.sensorId;
    r.sensorType = "GPS";
    r.mobileObjectId = util::MobileObjectId{"o" + std::to_string(i)};
    r.location = {rng.uniform(0, 1000), rng.uniform(0, 1000)};
    r.detectionRadius = 1.0;
    r.detectionTime = clock.now();
    database.insertReading(r);
  }
  core::LocationService service(clock, database);
  const geo::Rect region = geo::Rect::fromOrigin({495, 495}, 10, 10);
  // Warm both cache levels; the label carries the answer's size.
  const std::size_t members = service.objectsInRegion(region, 0.2).size();
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.objectsInRegion(region, 0.2));
  }
  state.SetLabel(std::to_string(objects) + " resident, 10 m poll, " +
                 std::to_string(members) + " members");
}
BENCHMARK(BM_RegionDiscovery)->Arg(1000)->Arg(10000)->Arg(100000);

// Ingest under one density rule: N objects inside one 200 m plaza, and each
// reading re-reports the next member half a metre from its last fix. The
// rule counts per-object inside edges, so a reading re-evaluates only its
// own object and the per-reading cost stays flat in N. The count does not
// change, so no callback runs; the label carries the count.
static void BM_IngestUnderDensityRule(benchmark::State& state) {
  const int members = static_cast<int>(state.range(0));
  util::VirtualClock clock;
  const geo::Rect universe = geo::Rect::fromOrigin({0, 0}, 1000, 1000);
  db::SpatialDatabase database(clock, universe, "City");
  db::SensorMeta meta;
  meta.sensorId = util::SensorId{"gps"};
  meta.sensorType = "GPS";
  meta.errorSpec = quality::ubisenseSpec(1.0);
  meta.scaleMisidentifyByArea = true;
  meta.quality.ttl = util::minutes(10);
  database.registerSensor(meta);
  core::LocationService service(clock, database);
  auto fix = [&](int member, geo::Point2 where) {
    db::SensorReading r;
    r.sensorId = meta.sensorId;
    r.sensorType = "GPS";
    r.mobileObjectId = util::MobileObjectId{"m" + std::to_string(member)};
    r.location = where;
    r.detectionRadius = 1.0;
    r.detectionTime = clock.now();
    return r;
  };
  util::Rng rng{11};
  std::vector<geo::Point2> where(static_cast<std::size_t>(members));
  for (int i = 0; i < members; ++i) {
    where[i] = {rng.uniform(420, 580), rng.uniform(420, 580)};
    service.ingest(fix(i, where[i]));
  }
  core::DensitySubscription rule;
  rule.region = geo::Rect::fromOrigin({400, 400}, 200, 200);
  rule.minProbability = 0.2;
  rule.limit = static_cast<std::size_t>(members) + 1;
  rule.callback = [](const core::DensityNotification&) {};
  const std::size_t counted = service.subscribeDensity(std::move(rule)).initialCount;
  int next = 0;
  for (auto _ : state) {
    geo::Point2& p = where[next];
    p.x += p.x < 500 ? 0.5 : -0.5;
    service.ingest(fix(next, p));
    next = (next + 1) % members;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(counted) + " counted");
}
BENCHMARK(BM_IngestUnderDensityRule)->Arg(100)->Arg(1000)->Arg(10000);

// Sharded location-service cluster: routed and scatter-gather costs as the
// cluster widens (1, 2, 4 shard processes behind one registry). Width 1 is
// the baseline — the router in front of a single shard measures pure
// indirection overhead; wider clusters show what hash-routing buys on the
// object-keyed path and what fan-out costs on the region path. The router's
// scatter/degraded counters land in the JSON so a degraded run is visible in
// the artifact, and "hardware_concurrency" in the context makes the width
// curve interpretable per host.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_location_service.hpp"
#include "cluster/shard_host.hpp"
#include "cluster/territory_map.hpp"
#include "core/remote_registry.hpp"
#include "quality/error_model.hpp"
#include "util/rng.hpp"

using namespace mw;

namespace {

geo::Rect benchUniverse() { return geo::Rect::fromOrigin({0, 0}, 100, 50); }

std::vector<std::string> memberTokens(std::size_t shards) {
  std::vector<std::string> tokens;
  for (std::size_t i = 0; i < shards; ++i) tokens.push_back("s" + std::to_string(i));
  return tokens;
}

/// A registry, N shard hosts sharing one world config, and the router.
/// Object hashing runs on a fixed ring; `spatial` switches both sides to
/// territory partitioning (spaceToken members + a Partitioning::Spatial
/// router).
struct ClusterFixture {
  util::VirtualClock clock;
  core::RegistryServer registry;
  std::vector<std::unique_ptr<cluster::ShardHost>> hosts;
  std::unique_ptr<cluster::ClusterLocationService> router;

  explicit ClusterFixture(std::size_t shards, bool spatial = false) {
    const auto tokens = memberTokens(shards);
    for (std::size_t i = 0; i < shards; ++i) {
      cluster::ShardHost::Options opts;
      (spatial ? opts.spaceToken : opts.ringToken) = tokens[i];
      auto host = std::make_unique<cluster::ShardHost>(clock, benchUniverse(), "SC",
                                                       "127.0.0.1", registry.port(), opts);
      configureWorld(host->core());
      host->start();
      hosts.push_back(std::move(host));
    }
    if (spatial) {
      cluster::ClusterLocationService::Options opts;
      opts.partitioning = cluster::ClusterLocationService::Partitioning::Spatial;
      opts.universe = benchUniverse();
      router = std::make_unique<cluster::ClusterLocationService>("127.0.0.1", registry.port(),
                                                                 opts);
    } else {
      router = std::make_unique<cluster::ClusterLocationService>("127.0.0.1", registry.port());
    }
  }

  static void configureWorld(core::Middlewhere& mw) {
    db::SpatialObjectRow room;
    room.id = util::SpatialObjectId{"roomA"};
    room.globPrefix = "SC";
    room.objectType = db::ObjectType::Room;
    room.geometryType = db::GeometryType::Polygon;
    room.points = {{0, 0}, {40, 0}, {40, 40}, {0, 40}};
    mw.database().addObject(room);

    db::SensorMeta ubi;
    ubi.sensorId = util::SensorId{"ubi-1"};
    ubi.sensorType = "Ubisense";
    ubi.errorSpec = quality::ubisenseSpec(1.0);
    ubi.scaleMisidentifyByArea = true;
    ubi.quality.ttl = util::minutes(10);
    mw.database().registerSensor(ubi);
  }

  db::SensorReading makeReading(const std::string& object, geo::Point2 where) const {
    db::SensorReading r;
    r.sensorId = util::SensorId{"ubi-1"};
    r.sensorType = "Ubisense";
    r.mobileObjectId = util::MobileObjectId{object};
    r.location = where;
    r.detectionRadius = 0.5;
    r.detectionTime = clock.now();
    return r;
  }

  void exportStats(benchmark::State& state) const {
    const auto stats = router->stats();
    state.counters["scatter_gathers"] = static_cast<double>(stats.scatterGathers);
    state.counters["degraded_queries"] = static_cast<double>(stats.degradedQueries);
    state.counters["failed_routed_calls"] = static_cast<double>(stats.failedRoutedCalls);
    state.counters["targeted_region_queries"] = static_cast<double>(stats.targetedRegionQueries);
    state.counters["region_shard_calls"] = static_cast<double>(stats.regionShardsQueried);
    state.counters["object_migrations"] = static_cast<double>(stats.objectMigrations);
    std::uint64_t reconnects = 0;
    for (const auto& shard : stats.shards) reconnects += shard.reconnects;
    state.counters["reconnects"] = static_cast<double>(reconnects);
  }
};

}  // namespace

// Object-keyed path: blocking ingest + locate round trips routed by the
// hash ring to the owning shard. Arg = cluster width.
static void BM_ClusterRoutedIngestLocate(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  ClusterFixture f(shards);

  constexpr int kObjects = 16;
  util::Rng rng{7};
  std::uint64_t ops = 0;
  for (auto _ : state) {
    for (int i = 0; i < kObjects; ++i) {
      const std::string object = "p" + std::to_string(i);
      f.router->ingest(f.makeReading(object, {rng.uniform(1, 39), rng.uniform(1, 39)}));
      benchmark::DoNotOptimize(f.router->locate(util::MobileObjectId{object}));
      ops += 2;
    }
  }

  f.exportStats(state);
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
  state.SetLabel(std::to_string(shards) + " shard(s)");
}
BENCHMARK(BM_ClusterRoutedIngestLocate)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// Region path: every poll scatters to all N shards and merges — the fan-out
// cost the router pays for cluster-wide answers.
static void BM_ClusterRegionPoll(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  ClusterFixture f(shards);

  constexpr int kObjects = 32;
  util::Rng rng{11};
  for (int i = 0; i < kObjects; ++i) {
    f.router->ingest(
        f.makeReading("p" + std::to_string(i), {rng.uniform(1, 39), rng.uniform(1, 39)}));
  }

  const auto region = geo::Rect::fromOrigin({0, 0}, 40, 40);
  std::uint64_t ops = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.router->objectsInRegion(region, 0.2));
    benchmark::DoNotOptimize(f.router->probabilityInRegion(util::MobileObjectId{"p0"}, region));
    ops += 2;
  }

  f.exportStats(state);
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
  state.SetLabel(std::to_string(shards) + " shard(s)");
}
BENCHMARK(BM_ClusterRegionPoll)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// Replication lane: the same routed ingest+locate workload against a single
// shard without (Arg 0) and with (Arg 1) a warm-standby backup. With a
// backup, every acked ingest was synchronously mirrored before the local
// apply — the row prices that durability: the delta over the bare row is the
// cost of kill-one-shard losing nothing. "mirrored_readings" in the counters
// proves the replica actually rode along.
static void BM_ClusterReplicatedIngest(benchmark::State& state) {
  const bool replicated = state.range(0) != 0;
  ClusterFixture f(1);

  std::unique_ptr<cluster::ShardHost> backup;
  if (replicated) {
    cluster::ShardHost::Options opts;
    opts.ringToken = memberTokens(1).front();
    opts.role = cluster::ShardHost::Role::Backup;
    opts.heartbeatPeriod = util::msec(50);
    backup = std::make_unique<cluster::ShardHost>(
        f.clock, geo::Rect::fromOrigin({0, 0}, 100, 50), "SC", "127.0.0.1", f.registry.port(),
        opts);
    ClusterFixture::configureWorld(backup->core());
    backup->start();
    // Measure the steady mirror, not the discovery/sync ramp.
    for (int i = 0; i < 200; ++i) {
      auto link = f.hosts[0]->replicationLink();
      if (link && link->live()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  constexpr int kObjects = 16;
  util::Rng rng{17};
  std::uint64_t ops = 0;
  for (auto _ : state) {
    for (int i = 0; i < kObjects; ++i) {
      const std::string object = "p" + std::to_string(i);
      f.router->ingest(f.makeReading(object, {rng.uniform(1, 39), rng.uniform(1, 39)}));
      benchmark::DoNotOptimize(f.router->locate(util::MobileObjectId{object}));
      ops += 2;
    }
  }

  f.exportStats(state);
  const auto link = f.hosts[0]->replicationLink();
  state.counters["mirrored_readings"] =
      link ? static_cast<double>(link->mirroredReadings()) : 0.0;
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
  state.SetLabel(replicated ? "primary+backup" : "bare primary");
}
BENCHMARK(BM_ClusterReplicatedIngest)->Arg(0)->Arg(1)->UseRealTime();

// Region-keyed partitioning: the identical small-region population query
// against an object-hash cluster (scatter to all N shards, merge) and a
// spatial cluster (targeted at the territory owners intersecting the
// region — one shard here, by construction). The region geometry is the
// same in both rows: a small square inside the first territory leaf of the
// uniform kd split, so the spatial rows price exactly what partitioning by
// WHERE buys as the cluster widens. "region_shard_calls" divided by
// iterations is the per-query fan-out: N for scatter, 1 for targeted.
// Args: {width, 0 = object-hash scatter | 1 = spatial targeted}.
static void BM_ClusterRegionQuerySmall(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  const bool spatial = state.range(1) != 0;
  ClusterFixture f(shards, spatial);

  constexpr int kObjects = 32;
  util::Rng rng{23};
  for (int i = 0; i < kObjects; ++i) {
    f.router->ingest(
        f.makeReading("p" + std::to_string(i), {rng.uniform(1, 99), rng.uniform(1, 49)}));
  }

  const auto map = cluster::TerritoryMap::uniform(benchUniverse(), memberTokens(shards));
  const auto region = geo::Rect::centeredSquare(map.leaves().front().rect.center(), 2.0);
  std::uint64_t ops = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.router->objectsInRegion(region, 0.2));
    ++ops;
  }

  f.exportStats(state);
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
  state.SetLabel(std::to_string(shards) + " shard(s), " +
                 (spatial ? "spatial targeted" : "object-hash scatter"));
}
BENCHMARK(BM_ClusterRegionQuerySmall)
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({8, 0})
    ->Args({8, 1})
    ->UseRealTime();

// Boundary-crossing cost: ingest a fresh object on one side of a 2-shard
// territory split, then a second reading either on the same side (Arg 0 —
// plain two-reading ingest, the baseline) or across the boundary (Arg 1 —
// the router migrates the object's log over a live handoff session:
// migrate.begin/adopt, export/import, migrate.flush/end, plus the home
// flip). The delta
// between the rows is the full price of one online migration;
// "object_migrations" proves the crossing rows actually migrated.
static void BM_ClusterTerritoryMigration(benchmark::State& state) {
  const bool crossing = state.range(0) != 0;
  ClusterFixture f(2, true);

  // A resident background population on both sides, so migrations run
  // against non-empty shards.
  util::Rng rng{29};
  for (int i = 0; i < 16; ++i) {
    f.router->ingest(
        f.makeReading("bg" + std::to_string(i), {rng.uniform(1, 99), rng.uniform(1, 49)}));
  }

  // The uniform 2-way split halves the universe at x = 50.
  std::uint64_t ops = 0;
  int seq = 0;
  for (auto _ : state) {
    const std::string object = "m" + std::to_string(seq++);
    f.router->ingest(f.makeReading(object, {25.0, 25.0}));
    f.router->ingest(f.makeReading(object, {crossing ? 75.0 : 26.0, 25.0}));
    ops += 2;
  }

  f.exportStats(state);
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
  state.SetLabel(crossing ? "boundary crossing (migrates)" : "same territory");
}
BENCHMARK(BM_ClusterTerritoryMigration)->Arg(0)->Arg(1)->UseRealTime();

// Crossing cost against resident population: one object shuttles across
// the x = 50 split of a 2-shard spatial cluster, so every iteration is one
// crossing reading and one migration. Both sides hold N static residents,
// so each crossing's losing shard holds N others. The migration should cost
// what moves, not what stays: the row should be flat in N.
// Arg = N residents per shard.
static void BM_ClusterCrossingUnderResidents(benchmark::State& state) {
  const auto residents = static_cast<std::size_t>(state.range(0));
  ClusterFixture f(2, true);

  std::vector<db::SensorReading> population;
  population.reserve(2 * residents);
  for (std::size_t i = 0; i < residents; ++i) {
    const double x = 1.0 + static_cast<double>(i % 96) * 0.5;
    const double y = 1.0 + static_cast<double>(i / 96 % 96) * 0.5;
    population.push_back(f.makeReading("w" + std::to_string(i), {x, y}));
    population.push_back(f.makeReading("e" + std::to_string(i), {x + 50.0, y}));
  }
  f.router->ingestBatch(population);
  f.router->ingest(f.makeReading("shuttle", {25.0, 25.0}));

  std::uint64_t crossings = 0;
  for (auto _ : state) {
    ++crossings;
    f.router->ingest(f.makeReading("shuttle", {crossings % 2 == 1 ? 75.0 : 25.0, 25.0}));
  }

  f.exportStats(state);
  state.SetItemsProcessed(static_cast<std::int64_t>(crossings));
  state.SetLabel(std::to_string(residents) + " residents on the losing shard, " +
                 std::to_string(f.router->stats().objectMigrations) + " migrations");
}
BENCHMARK(BM_ClusterCrossingUnderResidents)->Arg(1000)->Arg(10000)->UseRealTime();

// Custom main: record the host's core count next to the width curve.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("hardware_concurrency",
                              std::to_string(std::thread::hardware_concurrency()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

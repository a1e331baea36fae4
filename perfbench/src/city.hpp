// The generated city every workload runs on, the live spatial cluster that
// serves it, and the single-process oracle the results are checked against.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "citysim/city.hpp"
#include "citysim/population.hpp"
#include "cluster/cluster_location_service.hpp"
#include "cluster/shard_host.hpp"
#include "common.hpp"
#include "core/location_service.hpp"
#include "core/remote_registry.hpp"
#include "spatialdb/database.hpp"
#include "util/clock.hpp"

namespace perfbench {

namespace citysim = mw::citysim;
namespace cluster = mw::cluster;
namespace core = mw::core;
namespace db = mw::db;
namespace geo = mw::geo;
namespace util = mw::util;

inline constexpr std::size_t kAgents = 100000;
inline constexpr std::size_t kShards = 4;
/// GPS evidence reaches 15 ft past its point; region queries must look that
/// far past a territory edge.
inline constexpr double kRegionSlack = 16;
/// Density-rule membership threshold: below the ~0.49 a lone GPS fix fuses
/// to, so GPS-only members count.
inline constexpr double kMinProbability = 0.35;

/// City, population and readings, all fixed by the seed. `warm` is the first
/// tick, loaded before measuring; `trace` is the rate-independent stream of
/// the following ticks that the workloads replay.
struct CityWorld {
  citysim::CityBlueprint city;
  std::unique_ptr<citysim::Population> population;
  util::VirtualClock clock;
  std::vector<db::SensorReading> warm;
  std::vector<db::SensorReading> trace;
  geo::Rect venue;
  std::vector<geo::Rect> watched;  ///< every street and plaza
  std::vector<std::string> watchedNames;
  std::vector<util::MobileObjectId> objects;  ///< every object in `warm`, first-seen order
};

/// Ticks `tickSeconds` long in which each agent's reading is kept with
/// probability `warmFraction` (first tick) or `fraction` (later ticks),
/// until the trace holds `traceReadings` readings of objects whose id
/// starts with `objectPrefix`.
std::unique_ptr<CityWorld> buildCityWorld(std::uint64_t seed, std::size_t traceReadings,
                                          double warmFraction, double fraction,
                                          double tickSeconds, std::string_view objectPrefix = {});

/// World builds per run behind setup_s's generation share.
inline constexpr int kSetupRepeats = 7;

/// Builds the world `times` times, keeps the last one and stores the median
/// build time, so one slow build does not move setup_s.
template <typename Build>
std::unique_ptr<CityWorld> buildRepeatedly(int times, double& medianSeconds, Build&& build) {
  std::unique_ptr<CityWorld> world;
  std::vector<double> seconds;
  for (int i = 0; i < times; ++i) {
    world.reset();
    const auto start = SteadyClock::now();
    world = build();
    seconds.push_back(secondsSince(start));
  }
  medianSeconds = median(seconds);
  return world;
}

/// Regions, frames and sensor calibration every service of the city shares.
void installCity(const citysim::CityBlueprint& city, db::SpatialDatabase& database);

/// A single-process location service over the city: the oracle, and the
/// system under test of venue_rules.
struct LocalService {
  LocalService(const CityWorld& world);
  db::SpatialDatabase database;
  core::LocationService service;
};

/// A live Partitioning::Spatial cluster: registry, shard hosts, router.
struct Cluster {
  Cluster(const CityWorld& world, std::size_t shards);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  std::unique_ptr<core::RegistryServer> registry;
  std::vector<std::unique_ptr<cluster::ShardHost>> hosts;
  std::unique_ptr<cluster::ClusterLocationService> router;

  /// Sum over shards of served ORB connections: a forwarding handoff
  /// session holds one peer connection for as long as it lives.
  [[nodiscard]] std::size_t servedConnections();
  /// Max over mean of the shards' ingested-reading counts.
  [[nodiscard]] double shardSkew();
};

/// Ships readings through the router in `batch`-sized routed batches.
void preload(cluster::ClusterLocationService& router, const std::vector<db::SensorReading>& readings,
             std::size_t batch = 1024);

/// Byte encoding of a location estimate (nullopt encodes as empty).
[[nodiscard]] std::string estimateBytes(const std::optional<mw::fusion::LocationEstimate>& estimate);

/// Compares a system under test with the oracle: locate bytes for
/// `sampled`, objectsInRegion for every watched region. Returns the number
/// of mismatches and adds a report line per mismatch (first few).
template <typename Locate, typename Region>
std::uint64_t compareWithOracle(const CityWorld& world, core::LocationService& oracle,
                                const std::vector<util::MobileObjectId>& sampled, Locate locate,
                                Region region, Result& result) {
  std::uint64_t mismatches = 0;
  for (const auto& object : sampled) {
    if (estimateBytes(locate(object)) != estimateBytes(oracle.locateObject(object))) {
      if (++mismatches <= 5) result.linef("oracle: locate(%s) differs", object.str().c_str());
    }
  }
  for (std::size_t i = 0; i < world.watched.size(); ++i) {
    const auto got = region(world.watched[i]);
    const auto want = oracle.objectsInRegion(world.watched[i], kMinProbability);
    if (got != want) {
      if (++mismatches <= 5) {
        result.linef("oracle: objectsInRegion(%s) has %zu members, oracle %zu",
                     world.watchedNames[i].c_str(), got.size(), want.size());
      }
    }
  }
  return mismatches;
}

/// Every `stride`-th object of the warm tick: the sampled oracle set.
[[nodiscard]] std::vector<util::MobileObjectId> sampleObjects(const CityWorld& world,
                                                              std::size_t count);

}  // namespace perfbench

#include "city.hpp"

#include <algorithm>

#include "core/codec.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace perfbench {

std::unique_ptr<CityWorld> buildCityWorld(std::uint64_t seed, std::size_t traceReadings,
                                          double warmFraction, double fraction,
                                          double tickSeconds, std::string_view objectPrefix) {
  auto world = std::make_unique<CityWorld>();
  citysim::CityConfig cityConfig;
  cityConfig.rows = 2;
  cityConfig.cols = 2;
  world->city = citysim::generateCity(cityConfig);

  citysim::PopulationConfig popConfig;
  popConfig.seed = seed;
  popConfig.commuters = kAgents * 4 / 10;
  popConfig.crowd = kAgents * 3 / 10;
  popConfig.vehicles = kAgents * 2 / 10;
  popConfig.staff = kAgents - popConfig.commuters - popConfig.crowd - popConfig.vehicles;
  world->population = std::make_unique<citysim::Population>(world->city, popConfig);

  const citysim::OutdoorRegion* venue = world->city.outdoorNamed("plaza-0-1");
  util::require(venue != nullptr, "perfbench: venue plaza missing from the city");
  world->venue = venue->rect;
  world->population->announceEvent(world->venue);
  for (const citysim::OutdoorRegion& region : world->city.outdoors) {
    world->watched.push_back(region.rect);
    world->watchedNames.push_back(region.name);
  }

  // The population emits every agent every tick; the world keeps a seeded
  // share of them, so the per-tick sampling rate is a property of the trace,
  // not of the offered rate. The first tick is the warm state.
  util::Rng sampler(seed ^ 0x5eed'7ace'0000ULL);
  const auto dt = util::Duration(static_cast<util::Duration::rep>(tickSeconds * 1000));
  std::vector<db::SensorReading> tick;
  world->clock.advance(dt);
  world->population->step(world->clock.now(), dt, tick);
  std::unordered_set<util::MobileObjectId> seen;
  for (auto& reading : tick) {
    if (!sampler.chance(warmFraction)) continue;
    if (seen.insert(reading.mobileObjectId).second) world->objects.push_back(reading.mobileObjectId);
    world->warm.push_back(std::move(reading));
  }
  world->trace.reserve(traceReadings);
  while (world->trace.size() < traceReadings) {
    world->clock.advance(dt);
    tick.clear();
    world->population->step(world->clock.now(), dt, tick);
    for (auto& reading : tick) {
      if (world->trace.size() == traceReadings) break;
      if (!reading.mobileObjectId.str().starts_with(objectPrefix)) continue;
      if (sampler.chance(fraction)) world->trace.push_back(std::move(reading));
    }
  }
  return world;
}

void installCity(const citysim::CityBlueprint& city, db::SpatialDatabase& database) {
  city.installFrames(database.frames());
  city.populate(database);
  citysim::CitySensors::registerAll(database);
}

LocalService::LocalService(const CityWorld& world)
    : database(world.clock, world.city.universe, world.city.name),
      service(world.clock, database) {
  installCity(world.city, database);
}

Cluster::Cluster(const CityWorld& world, std::size_t shards)
    : registry(std::make_unique<core::RegistryServer>()) {
  for (std::size_t i = 0; i < shards; ++i) {
    cluster::ShardHost::Options opts;
    opts.spaceToken = "s" + std::to_string(i);
    // TCP loopback, as between hosts. Colocated shared-memory lanes stall for
    // 10-40 ms at a few hundred requests/s per shard (their readers nap on a
    // futex), which swamps every tail this benchmark measures.
    opts.enableShm = false;
    auto host = std::make_unique<cluster::ShardHost>(world.clock, world.city.universe,
                                                     world.city.name, "127.0.0.1",
                                                     registry->port(), opts);
    installCity(world.city, host->core().database());
    host->start();
    hosts.push_back(std::move(host));
  }
  cluster::ClusterLocationService::Options routerOpts;
  routerOpts.partitioning = cluster::ClusterLocationService::Partitioning::Spatial;
  routerOpts.universe = world.city.universe;
  routerOpts.regionSlack = kRegionSlack;
  router = std::make_unique<cluster::ClusterLocationService>("127.0.0.1", registry->port(),
                                                             routerOpts);
}

Cluster::~Cluster() {
  router.reset();
  for (auto& host : hosts) host->stop();
  hosts.clear();
  registry.reset();
}

std::size_t Cluster::servedConnections() {
  std::size_t total = 0;
  for (auto& host : hosts) total += host->core().rpcServer().connectionCount();
  return total;
}

double Cluster::shardSkew() {
  std::uint64_t maxIngested = 0;
  std::uint64_t sumIngested = 0;
  for (auto& host : hosts) {
    const auto load = host->loadStats();
    maxIngested = std::max(maxIngested, load.ingestedReadings);
    sumIngested += load.ingestedReadings;
  }
  return sumIngested == 0 ? 0
                          : static_cast<double>(maxIngested) * static_cast<double>(hosts.size()) /
                                static_cast<double>(sumIngested);
}

void preload(cluster::ClusterLocationService& router, const std::vector<db::SensorReading>& readings,
             std::size_t batch) {
  for (std::size_t i = 0; i < readings.size(); i += batch) {
    const std::size_t n = std::min(batch, readings.size() - i);
    router.ingestBatch(std::span<const db::SensorReading>(readings.data() + i, n));
  }
}

std::string estimateBytes(const std::optional<mw::fusion::LocationEstimate>& estimate) {
  if (!estimate) return {};
  util::ByteWriter w;
  core::encodeEstimate(w, *estimate);
  const util::Bytes& bytes = w.bytes();
  return std::string(bytes.begin(), bytes.end());
}

std::vector<util::MobileObjectId> sampleObjects(const CityWorld& world, std::size_t count) {
  std::vector<util::MobileObjectId> sampled;
  const std::size_t stride = std::max<std::size_t>(1, world.objects.size() / count);
  for (std::size_t i = 0; i < world.objects.size() && sampled.size() < count; i += stride) {
    sampled.push_back(world.objects[i]);
  }
  return sampled;
}

}  // namespace perfbench

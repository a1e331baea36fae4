// Cluster demo: the location service as N shard processes behind the
// registry — the paper's discovery-then-route pattern stretched over a
// partition.
//
// Stands up a live RegistryServer and two ShardHosts on distinct TCP ports as
// a fixed consistent-hash ring, routes every object to its owning shard
// through a ClusterLocationService,
// shows cluster-wide region queries answered by scatter-gather, then kills
// one shard and demonstrates the degraded-but-answering failure mode plus
// probe-based re-admission after a restart.
#include <chrono>
#include <iostream>
#include <thread>

#include "cluster/cluster_location_service.hpp"
#include "cluster/shard_host.hpp"
#include "core/remote_registry.hpp"
#include "quality/error_model.hpp"

using namespace mw;
using util::MobileObjectId;

namespace {

// Every shard (and any oracle) must share one world configuration — fused
// answers only line up when the priors and sensor models do.
void configureWorld(core::Middlewhere& mw) {
  db::SpatialObjectRow room;
  room.id = util::SpatialObjectId{"roomA"};
  room.globPrefix = "SC";
  room.objectType = db::ObjectType::Room;
  room.geometryType = db::GeometryType::Polygon;
  room.points = {{0, 0}, {20, 0}, {20, 20}, {0, 20}};
  mw.database().addObject(room);

  db::SensorMeta ubi;
  ubi.sensorId = util::SensorId{"ubi-1"};
  ubi.sensorType = "Ubisense";
  ubi.errorSpec = quality::ubisenseSpec(1.0);
  ubi.scaleMisidentifyByArea = true;
  ubi.quality.ttl = util::sec(30);
  mw.database().registerSensor(ubi);
}

db::SensorReading reading(const util::Clock& clock, const std::string& object, geo::Point2 where) {
  db::SensorReading r;
  r.sensorId = util::SensorId{"ubi-1"};
  r.sensorType = "Ubisense";
  r.mobileObjectId = MobileObjectId{object};
  r.location = where;
  r.detectionRadius = 0.5;
  r.detectionTime = clock.now();
  return r;
}

std::unique_ptr<cluster::ShardHost> startShard(const util::Clock& clock, const std::string& token,
                                               std::uint16_t registryPort) {
  cluster::ShardHost::Options opts;
  opts.ringToken = token;
  auto host = std::make_unique<cluster::ShardHost>(
      clock, geo::Rect::fromOrigin({0, 0}, 100, 50), "SC", "127.0.0.1", registryPort, opts);
  configureWorld(host->core());
  host->start();
  return host;
}

}  // namespace

int main() {
  util::VirtualClock clock;

  // 1. The name service, then two shard processes announcing themselves as
  //    ring members location.ring.s0 and location.ring.s1 with TTL
  //    heartbeats.
  core::RegistryServer registry;
  std::cout << "registry on port " << registry.port() << "\n";
  std::vector<std::unique_ptr<cluster::ShardHost>> shards;
  shards.push_back(startShard(clock, "s0", registry.port()));
  shards.push_back(startShard(clock, "s1", registry.port()));
  for (const auto& s : shards) {
    std::cout << "  " << s->name() << " serving on port " << s->port() << "\n";
  }

  // 2. The router resolves the topology from a bare registry.list() and
  //    presents the plain LocationService API.
  cluster::ClusterLocationService::Options opts;
  opts.retry.callDeadline = util::msec(500);
  opts.retry.maxRetries = 1;
  opts.retry.downAfterFailures = 2;
  opts.retry.probeInterval = util::msec(50);
  cluster::ClusterLocationService router("127.0.0.1", registry.port(), opts);
  std::cout << "router sees " << router.shardCount() << " shards\n";

  // 3. Object-keyed traffic routes by the hash ring to the owning shard.
  const std::vector<std::string> people = {"alice", "bob", "carol", "dave"};
  for (std::size_t i = 0; i < people.size(); ++i) {
    router.ingest(reading(clock, people[i], {3.0 + 3.0 * static_cast<double>(i), 5.0}));
    std::cout << "  " << people[i] << " -> shard " << router.shardFor(MobileObjectId{people[i]})
              << ", located in '" << router.locateSymbolic(MobileObjectId{people[i]}) << "'\n";
  }

  // 4. Region queries scatter to every shard and merge the disjoint
  //    populations — callers see one cluster-wide answer.
  const auto region = geo::Rect::fromOrigin({0, 0}, 20, 20);
  auto population = router.objectsInRegionDetailed(region, 0.5);
  std::cout << "objectsInRegion: " << population.members.size() << " people in roomA (from "
            << population.shardsAnswered << "/" << router.shardCount() << " shards)\n";

  // 5. Kill shard 1. The cluster keeps answering: the live shard's objects
  //    still resolve, scatter-gather returns partial results with the
  //    degraded flag, and the dead shard is marked down after consecutive
  //    failures.
  std::cout << "killing " << shards[1]->name() << "...\n";
  shards[1].reset();
  auto degraded = router.objectsInRegionDetailed(region, 0.5);
  std::cout << "objectsInRegion: " << degraded.members.size() << " people (degraded="
            << (degraded.degraded ? "true" : "false") << ", " << degraded.shardsAnswered << "/"
            << router.shardCount() << " shards answered)\n";
  auto stats = router.stats();
  std::cout << "shard 1 down=" << (stats.shards[1].down ? "true" : "false")
            << " failures=" << stats.shards[1].failures
            << "; failed routed calls=" << stats.failedRoutedCalls << "\n";

  // 6. Restart it. The heartbeat re-announces, refreshMembers picks up the
  //    fresh endpoint, and the health probe re-admits the shard.
  std::cout << "restarting shard 1...\n";
  shards[1] = startShard(clock, "s1", registry.port());
  router.refreshMembers();
  for (int i = 0; i < 100 && router.stats().shards[1].down; ++i) {
    router.probeDownShards();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::cout << "shard 1 down=" << (router.stats().shards[1].down ? "true" : "false")
            << " after probe\n";
  router.ingest(reading(clock, "erin", {10, 10}));
  std::cout << "erin -> shard " << router.shardFor(MobileObjectId{"erin"}) << ", located in '"
            << router.locateSymbolic(MobileObjectId{"erin"}) << "'\n";
  std::cout << "done\n";
  return 0;
}

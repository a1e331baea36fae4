// Cluster tests: N LocationService shard processes behind the registry,
// fronted by the ClusterLocationService router. The load-bearing property is
// oracle equivalence — a sharded cluster answers byte-for-byte like one
// single-process service fed the same readings — plus graceful degradation
// when a shard dies.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_location_service.hpp"
#include "cluster/shard_host.hpp"
#include "cluster/shard_map.hpp"
#include "core/codec.hpp"
#include "core/middlewhere.hpp"
#include "core/remote_registry.hpp"
#include "orb/tcp.hpp"
#include "util/error.hpp"

namespace mw::cluster {
namespace {

using mw::util::MobileObjectId;
using mw::util::SensorId;
using mw::util::VirtualClock;

/// Live thread count of this process, from /proc/self/status.
std::size_t processThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return static_cast<std::size_t>(std::stoul(line.substr(8)));
    }
  }
  return 0;
}

geo::Rect universe() { return geo::Rect::fromOrigin({0, 0}, 100, 50); }

/// The shared world every shard AND the oracle must agree on: one room, one
/// calibrated Ubisense sensor. Identical configuration is what makes fused
/// answers comparable across deployments.
void configureWorld(core::Middlewhere& mw) {
  db::SpatialObjectRow room;
  room.id = util::SpatialObjectId{"roomA"};
  room.globPrefix = "SC";
  room.objectType = db::ObjectType::Room;
  room.geometryType = db::GeometryType::Polygon;
  room.points = {{0, 0}, {20, 0}, {20, 20}, {0, 20}};
  mw.database().addObject(room);

  db::SensorMeta ubi;
  ubi.sensorId = SensorId{"ubi-1"};
  ubi.sensorType = "Ubisense";
  ubi.errorSpec = quality::ubisenseSpec(1.0);
  ubi.scaleMisidentifyByArea = true;
  ubi.quality.ttl = util::sec(30);
  mw.database().registerSensor(ubi);
}

db::SensorReading makeReading(const util::Clock& clock, geo::Point2 where,
                              const std::string& object) {
  db::SensorReading r;
  r.sensorId = SensorId{"ubi-1"};
  r.sensorType = "Ubisense";
  r.mobileObjectId = MobileObjectId{object};
  r.location = where;
  r.detectionRadius = 0.5;
  r.detectionTime = clock.now();
  return r;
}

/// Tight-but-not-hair-trigger failure knobs so degraded-mode tests converge
/// in milliseconds instead of the production seconds.
RetryPolicy fastRetry() {
  RetryPolicy p;
  p.callDeadline = util::sec(2);
  p.maxRetries = 1;
  p.backoffBase = util::msec(2);
  p.backoffMax = util::msec(10);
  p.downAfterFailures = 2;
  p.probeInterval = util::msec(30);
  return p;
}

util::Bytes estimateBytes(const fusion::LocationEstimate& est) {
  util::ByteWriter w;
  core::encodeEstimate(w, est);
  return w.bytes();
}

// --- member names and registry resolution ---------------------------------------

TEST(MemberMapTest, ParseRejectsMalformedNames) {
  for (const Partitioning kind : {Partitioning::Ring, Partitioning::Spatial}) {
    EXPECT_EQ(parseMemberName(kind, ""), std::nullopt);
    EXPECT_EQ(parseMemberName(kind, "LocationService"), std::nullopt);
    EXPECT_EQ(parseMemberName(kind, "location."), std::nullopt);
    EXPECT_EQ(parseMemberName(kind, "location.ring"), std::nullopt) << "no separator";
    EXPECT_EQ(parseMemberName(kind, "location.space"), std::nullopt) << "no separator";
    EXPECT_EQ(parseMemberName(kind, "location.ringalpha"), std::nullopt);
    EXPECT_EQ(parseMemberName(kind, "location.spacealpha"), std::nullopt);
    EXPECT_EQ(parseMemberName(kind, "xlocation.ring.alpha"), std::nullopt) << "prefix only";
    EXPECT_EQ(parseMemberName(kind, "xlocation.space.alpha"), std::nullopt) << "prefix only";
    EXPECT_EQ(parseMemberName(kind, "location.shard.0/2"), std::nullopt);
    EXPECT_EQ(parseMemberName(kind, memberName(kind, "a") + ".backup"), std::nullopt);
  }
  EXPECT_THROW((void)memberName(Partitioning::Ring, ""), util::ContractError);
  EXPECT_THROW((void)memberName(Partitioning::Spatial, ""), util::ContractError);
}

TEST(MemberMapTest, ResolveFromRegistry) {
  core::RegistryServer registry;
  core::RegistryClient client("127.0.0.1", registry.port());

  const MemberMap empty = resolveMembers(client, Partitioning::Ring);
  EXPECT_TRUE(empty.tokens.empty());
  EXPECT_TRUE(empty.endpoints.empty());
  EXPECT_EQ(empty.endpointOf("s0"), std::nullopt);

  client.announce(memberName(Partitioning::Ring, "s1"), {"127.0.0.1", 7001});
  client.announce(memberName(Partitioning::Ring, "s0"), {"127.0.0.1", 7000});
  client.announce(memberName(Partitioning::Ring, "s0") + ".backup", {"127.0.0.1", 7100});
  client.announce(memberName(Partitioning::Spatial, "east"), {"127.0.0.1", 7200});
  client.announce("LocationService", {"127.0.0.1", 9999});  // non-member noise

  const MemberMap ring = resolveMembers(client, Partitioning::Ring);
  ASSERT_EQ(ring.tokens, (std::vector<std::string>{"s0", "s1"})) << "sorted, standby excluded";
  ASSERT_EQ(ring.endpoints.size(), 2u);
  ASSERT_TRUE(ring.endpoints[0].has_value());
  EXPECT_EQ(ring.endpoints[0]->port, 7000);
  ASSERT_TRUE(ring.endpoints[1].has_value());
  EXPECT_EQ(ring.endpoints[1]->port, 7001);
  ASSERT_TRUE(ring.endpointOf("s1").has_value());
  EXPECT_EQ(ring.endpointOf("s1")->port, 7001);
  EXPECT_EQ(ring.endpointOf("east"), std::nullopt) << "another kind's member";
  EXPECT_EQ(ring.endpointOf("s2"), std::nullopt);

  const MemberMap space = resolveMembers(client, Partitioning::Spatial);
  ASSERT_EQ(space.tokens, (std::vector<std::string>{"east"}));
  ASSERT_TRUE(space.endpointOf("east").has_value());
  EXPECT_EQ(space.endpointOf("east")->port, 7200);

  // A withdrawn member leaves the map.
  ASSERT_TRUE(client.withdraw(memberName(Partitioning::Ring, "s0")));
  const MemberMap after = resolveMembers(client, Partitioning::Ring);
  EXPECT_EQ(after.tokens, (std::vector<std::string>{"s1"}));
  ASSERT_TRUE(after.endpointOf("s1").has_value());
  EXPECT_EQ(after.endpointOf("s1")->port, 7001);
}

// --- consistent-hash ring unit tests --------------------------------------------

TEST(HashRingTest, RingMemberNamesRoundTripAndExcludeStandbys) {
  EXPECT_EQ(memberName(Partitioning::Ring, "alpha"), "location.ring.alpha");
  EXPECT_EQ(parseMemberName(Partitioning::Ring, "location.ring.alpha"), "alpha");
  EXPECT_EQ(parseMemberName(Partitioning::Ring, "location.ring."), std::nullopt);
  EXPECT_EQ(parseMemberName(Partitioning::Ring, "location.space.alpha"), std::nullopt)
      << "a spatial member is not a ring member";
  EXPECT_EQ(parseMemberName(Partitioning::Ring, "LocationService"), std::nullopt);
  EXPECT_EQ(parseMemberName(Partitioning::Ring, "location.ring.alpha.backup"), std::nullopt)
      << "a standby announcement is not a ring member";
  EXPECT_EQ(parseMemberName(Partitioning::Ring, "location.ring..backup"), std::nullopt);
}

TEST(HashRingTest, ArcContainsIsHalfOpenAndWraps) {
  const RingArc plain{10, 20};
  EXPECT_FALSE(plain.contains(10)) << "lo is exclusive";
  EXPECT_TRUE(plain.contains(11));
  EXPECT_TRUE(plain.contains(20)) << "hi is inclusive";
  EXPECT_FALSE(plain.contains(21));

  const std::uint64_t top = ~std::uint64_t{0};
  const RingArc wrap{top - 5, 5};
  EXPECT_FALSE(wrap.contains(top - 5));
  EXPECT_TRUE(wrap.contains(top));
  EXPECT_TRUE(wrap.contains(0)) << "wraps through zero";
  EXPECT_TRUE(wrap.contains(5));
  EXPECT_FALSE(wrap.contains(6));

  const RingArc full{7, 7};
  EXPECT_TRUE(full.contains(0)) << "lo == hi is the full circle";
  EXPECT_TRUE(full.contains(7));
  EXPECT_TRUE(full.contains(top));
}

TEST(HashRingTest, OwnershipIsDeterministicAcrossJoinOrderAndSpreads) {
  const HashRing ring({"alpha", "beta", "gamma"});
  const HashRing reordered({"gamma", "alpha", "beta", "beta"});  // dup collapses
  std::set<std::string> hit;
  for (int i = 0; i < 300; ++i) {
    MobileObjectId object{"user-" + std::to_string(i)};
    const std::string& owner = ring.ownerForObject(object);
    EXPECT_EQ(owner, reordered.ownerForObject(object)) << "same member set, same ring";
    // The owner's arcs are exactly where the key falls — arcsOf and
    // ownerForKey must agree on every boundary.
    const std::uint64_t key = objectRingKey(object);
    for (const std::string& member : ring.members()) {
      bool inArcs = false;
      for (const RingArc& arc : ring.arcsOf(member)) inArcs = inArcs || arc.contains(key);
      EXPECT_EQ(inArcs, member == owner) << member << " vs " << object.str();
    }
    hit.insert(owner);
  }
  EXPECT_EQ(hit.size(), 3u) << "300 objects should land on every member";
  EXPECT_EQ(ring.members(), (std::vector<std::string>{"alpha", "beta", "gamma"}));
  EXPECT_TRUE(ring.hasMember("beta"));
  EXPECT_FALSE(ring.hasMember("delta"));
  EXPECT_TRUE(ring.arcsOf("delta").empty());

  const HashRing solo({"solo"});
  EXPECT_EQ(solo.ownerForKey(0), "solo");
  EXPECT_EQ(solo.ownerForKey(~std::uint64_t{0}), "solo");
  EXPECT_THROW((void)HashRing().ownerForKey(7), util::ContractError);
}

TEST(HashRingTest, ClaimsForMovesOnlyTheJoinersArcs) {
  const HashRing before({"alpha", "beta"});
  const HashRing after({"alpha", "beta", "gamma"});
  const auto claims = HashRing::claimsFor(before, after, "gamma");
  ASSERT_FALSE(claims.empty());
  for (const auto& claim : claims) {
    EXPECT_TRUE(claim.loser == "alpha" || claim.loser == "beta") << claim.loser;
    EXPECT_EQ(after.ownerForKey(claim.arc.hi), "gamma");
    EXPECT_EQ(before.ownerForKey(claim.arc.hi), claim.loser);
  }

  int movedCount = 0;
  for (int i = 0; i < 400; ++i) {
    MobileObjectId object{"user-" + std::to_string(i)};
    const std::uint64_t key = objectRingKey(object);
    const bool moved = before.ownerForKey(key) != after.ownerForKey(key);
    if (moved) {
      ++movedCount;
      EXPECT_EQ(after.ownerForKey(key), "gamma") << "an incumbent never gains from a join";
    }
    int covering = 0;
    for (const auto& claim : claims) {
      if (!claim.arc.contains(key)) continue;
      ++covering;
      EXPECT_EQ(before.ownerForKey(key), claim.loser) << "one previous owner per claimed arc";
    }
    EXPECT_EQ(covering, moved ? 1 : 0) << "claims cover exactly the moved keys";
  }
  EXPECT_GT(movedCount, 0);
  EXPECT_LT(movedCount, 400) << "bounded movement: most objects stay put";

  // Rejoining an existing member claims nothing; the genesis join has no
  // one to lose from.
  EXPECT_TRUE(HashRing::claimsFor(after, after, "gamma").empty());
  const auto genesis = HashRing::claimsFor(HashRing(), HashRing({"solo"}), "solo");
  ASSERT_FALSE(genesis.empty());
  for (const auto& claim : genesis) EXPECT_TRUE(claim.loser.empty());
}

// --- cluster fixture ------------------------------------------------------------

/// A fixed-membership ring of shards "s0".."s<n-1>" (router slot i is
/// hosts_[i]: slots follow the sorted tokens) next to the single-process
/// oracle.
class ClusterTest : public ::testing::Test {
 protected:
  void startCluster(std::size_t n) {
    registry_ = std::make_unique<core::RegistryServer>();
    for (std::size_t i = 0; i < n; ++i) {
      hosts_.push_back(startShard(i));
    }
    ClusterLocationService::Options opts;
    opts.retry = fastRetry();
    router_ = std::make_unique<ClusterLocationService>("127.0.0.1", registry_->port(), opts);
    oracle_ = std::make_unique<core::Middlewhere>(clock_, universe(), "SC");
    configureWorld(*oracle_);
    oracleClient_ = oracle_->connectLocal();
  }

  std::unique_ptr<ShardHost> startShard(std::size_t index) {
    ShardHost::Options opts;
    opts.ringToken = "s" + std::to_string(index);
    opts.announceTtl = util::sec(5);
    opts.heartbeatPeriod = util::msec(100);
    auto host = std::make_unique<ShardHost>(clock_, universe(), "SC", "127.0.0.1",
                                            registry_->port(), opts);
    configureWorld(host->core());
    host->start();
    return host;
  }

  /// Starts a host from explicit options (replication / ring tests).
  std::unique_ptr<ShardHost> startHost(ShardHost::Options opts, std::uint16_t registryPort = 0) {
    auto host = std::make_unique<ShardHost>(clock_, universe(), "SC", "127.0.0.1",
                                            registryPort != 0 ? registryPort : registry_->port(),
                                            std::move(opts));
    configureWorld(host->core());
    host->start();
    return host;
  }

  /// Feeds the same reading to the cluster and to the single-process oracle.
  void ingestBoth(const db::SensorReading& reading) {
    router_->ingest(reading);
    oracleClient_->ingest(reading);
  }

  /// An object id owned by `shard` (deterministic: scans a fixed namespace).
  std::string objectOwnedBy(std::size_t shard) const {
    for (int i = 0; i < 1000; ++i) {
      std::string name = "obj-" + std::to_string(i);
      if (router_->shardFor(MobileObjectId{name}) == shard) return name;
    }
    ADD_FAILURE() << "no object found for shard " << shard;
    return "obj-0";
  }

  VirtualClock clock_;
  std::unique_ptr<core::RegistryServer> registry_;
  std::vector<std::unique_ptr<ShardHost>> hosts_;
  std::unique_ptr<ClusterLocationService> router_;
  std::unique_ptr<core::Middlewhere> oracle_;
  /// In-process client to the oracle: the same marshalling path the router
  /// uses, so answers are comparable byte-for-byte.
  std::unique_ptr<core::RemoteLocationClient> oracleClient_;
};

// --- oracle equivalence ---------------------------------------------------------

TEST_F(ClusterTest, ShardedLocateMatchesSingleProcessOracle) {
  startCluster(2);
  std::vector<std::string> objects;
  for (int i = 0; i < 12; ++i) objects.push_back("obj-" + std::to_string(i));

  for (std::size_t i = 0; i < objects.size(); ++i) {
    const double x = 1.0 + static_cast<double>(i % 6) * 3.0;
    const double y = 2.0 + static_cast<double>(i / 6) * 5.0;
    ingestBoth(makeReading(clock_, {x, y}, objects[i]));
    clock_.advance(util::msec(50));
    ingestBoth(makeReading(clock_, {x + 0.5, y}, objects[i]));
  }

  // Both shards must actually own traffic, or the test proves nothing.
  EXPECT_GT(hosts_[0]->core().locationService().ingestedReadings(), 0u);
  EXPECT_GT(hosts_[1]->core().locationService().ingestedReadings(), 0u);

  for (const auto& name : objects) {
    MobileObjectId object{name};
    auto fromCluster = router_->locate(object);
    auto fromOracle = oracleClient_->locate(object);
    ASSERT_TRUE(fromCluster.has_value()) << name;
    ASSERT_TRUE(fromOracle.has_value()) << name;
    EXPECT_EQ(estimateBytes(*fromCluster), estimateBytes(*fromOracle))
        << name << ": sharded locate must be byte-identical to the oracle";
    EXPECT_EQ(router_->locateSymbolic(object), oracleClient_->locateSymbolic(object)) << name;
  }
  EXPECT_EQ(router_->locate(MobileObjectId{"ghost"}), std::nullopt);
  EXPECT_EQ(router_->stats().failedRoutedCalls, 0u) << "unknown object is a miss, not a failure";
}

TEST_F(ClusterTest, ExtraRoutersAddNoServerThreads) {
  // Routers reach shards over TCP on the shared event-loop group, so more
  // routers mean more sockets, not more threads on either end.
  startCluster(2);
  // One routed call first, so whatever the serving path starts lazily runs.
  ASSERT_EQ(router_->locate(MobileObjectId{objectOwnedBy(0)}), std::nullopt);
  const std::size_t before = processThreadCount();
  std::vector<std::unique_ptr<ClusterLocationService>> routers;
  for (int i = 0; i < 4; ++i) {
    ClusterLocationService::Options opts;
    opts.retry = fastRetry();
    routers.push_back(
        std::make_unique<ClusterLocationService>("127.0.0.1", registry_->port(), opts));
    EXPECT_EQ(routers.back()->locate(MobileObjectId{objectOwnedBy(i % 2)}), std::nullopt);
  }
  EXPECT_LE(processThreadCount(), before + 2) << "threads scale with routers";
  for (const auto& router : routers) EXPECT_EQ(router->stats().failedRoutedCalls, 0u);
}

TEST_F(ClusterTest, ProbabilityInRegionPrefersEvidenceOverPriors) {
  startCluster(2);
  const auto region = geo::Rect::fromOrigin({0, 0}, 20, 20);
  const std::string inhabitant = objectOwnedBy(0);
  ingestBoth(makeReading(clock_, {5, 5}, inhabitant));

  // Evidence case: only the owning shard has readings; the other (N-1)
  // shards answer with the bare prior. The merge must pick the fused value.
  EXPECT_DOUBLE_EQ(router_->probabilityInRegion(MobileObjectId{inhabitant}, region),
                   oracleClient_->probabilityInRegion(MobileObjectId{inhabitant}, region));

  // No-evidence case: every shard reports the same prior mass; the cluster
  // must agree with the oracle's prior answer, not invent a zero.
  EXPECT_DOUBLE_EQ(router_->probabilityInRegion(MobileObjectId{"ghost"}, region),
                   oracleClient_->probabilityInRegion(MobileObjectId{"ghost"}, region));
  EXPECT_EQ(router_->stats().degradedQueries, 0u);
}

TEST_F(ClusterTest, ObjectsInRegionMergesAcrossShards) {
  startCluster(2);
  const auto region = geo::Rect::fromOrigin({0, 0}, 20, 20);
  for (int i = 0; i < 10; ++i) {
    ingestBoth(makeReading(clock_, {2.0 + i, 3.0 + (i % 4)}, "obj-" + std::to_string(i)));
  }
  // One object outside the region, to prove filtering matches too.
  ingestBoth(makeReading(clock_, {60, 40}, "outsider"));

  auto fromCluster = router_->objectsInRegionDetailed(region, 0.5);
  auto fromOracle = oracleClient_->objectsInRegion(region, 0.5);
  EXPECT_FALSE(fromCluster.degraded);
  EXPECT_EQ(fromCluster.shardsAnswered, 2u);
  ASSERT_EQ(fromCluster.members.size(), fromOracle.size());
  for (std::size_t i = 0; i < fromOracle.size(); ++i) {
    EXPECT_EQ(fromCluster.members[i].first, fromOracle[i].first) << "rank " << i;
    EXPECT_DOUBLE_EQ(fromCluster.members[i].second, fromOracle[i].second) << "rank " << i;
  }
  EXPECT_GE(router_->stats().scatterGathers, 1u);
}

TEST_F(ClusterTest, IngestBatchSplitsByOwningShard) {
  startCluster(2);
  std::vector<db::SensorReading> batch;
  for (int i = 0; i < 16; ++i) {
    batch.push_back(makeReading(clock_, {1.0 + i % 5, 2.0 + i % 7}, "obj-" + std::to_string(i)));
  }
  router_->ingestBatch(batch);
  oracleClient_->ingestBatch(batch);

  EXPECT_EQ(hosts_[0]->core().locationService().ingestedReadings() +
                hosts_[1]->core().locationService().ingestedReadings(),
            batch.size())
      << "every reading lands on exactly one shard";
  EXPECT_GT(hosts_[0]->core().locationService().ingestedReadings(), 0u);
  EXPECT_GT(hosts_[1]->core().locationService().ingestedReadings(), 0u);

  for (const auto& reading : batch) {
    auto fromCluster = router_->locate(reading.mobileObjectId);
    auto fromOracle = oracleClient_->locate(reading.mobileObjectId);
    ASSERT_TRUE(fromCluster.has_value());
    ASSERT_TRUE(fromOracle.has_value());
    EXPECT_EQ(estimateBytes(*fromCluster), estimateBytes(*fromOracle));
  }
}

// --- degraded mode --------------------------------------------------------------

TEST_F(ClusterTest, KillOneShardDegradesButKeepsAnswering) {
  startCluster(2);
  const auto region = geo::Rect::fromOrigin({0, 0}, 20, 20);
  const std::string onLive = objectOwnedBy(0);
  const std::string onDead = objectOwnedBy(1);
  ingestBoth(makeReading(clock_, {4, 4}, onLive));
  ingestBoth(makeReading(clock_, {8, 8}, onDead));
  ASSERT_TRUE(router_->locate(MobileObjectId{onDead}).has_value());

  hosts_[1].reset();  // the shard process dies: port closed, entry withdrawn

  // Scatter-gather still answers — partially, and says so.
  auto population = router_->objectsInRegionDetailed(region, 0.5);
  EXPECT_TRUE(population.degraded);
  EXPECT_EQ(population.shardsAnswered, 1u);
  ASSERT_EQ(population.members.size(), 1u);
  EXPECT_EQ(population.members[0].first, MobileObjectId{onLive});

  // Routed calls: the live shard's objects answer, the dead shard's return
  // "unknown" instead of hanging or throwing.
  ASSERT_TRUE(router_->locate(MobileObjectId{onLive}).has_value());
  EXPECT_EQ(router_->locate(MobileObjectId{onDead}), std::nullopt);
  EXPECT_GT(router_->probabilityInRegion(MobileObjectId{onLive}, region), 0.9);

  auto stats = router_->stats();
  EXPECT_TRUE(stats.shards[1].down) << "consecutive failures must mark the shard down";
  EXPECT_FALSE(stats.shards[0].down);
  EXPECT_GT(stats.shards[1].failures, 0u);
  EXPECT_GT(stats.degradedQueries, 0u);
  EXPECT_GT(stats.failedRoutedCalls, 0u);

  // Down shards fail fast: a routed call between probes costs ~nothing.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(router_->locate(MobileObjectId{onDead}), std::nullopt);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::milliseconds(500));
}

TEST_F(ClusterTest, StalledShardsCostOneRetryBudgetNotOnePerShard) {
  startCluster(3);
  ClusterLocationService::Options opts;
  opts.retry = fastRetry();
  opts.retry.callDeadline = util::msec(200);
  ClusterLocationService router("127.0.0.1", registry_->port(), opts);
  const auto region = geo::Rect::fromOrigin({0, 0}, 20, 20);
  const std::string onLive = objectOwnedBy(0);
  ingestBoth(makeReading(clock_, {4, 4}, onLive));

  // Shards 1 and 2 stall: each answers only after the call deadline.
  for (std::size_t i : {1u, 2u}) {
    hosts_[i]->core().rpcServer().registerMethod("objectsInRegion", [](const util::Bytes&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
      util::ByteWriter w;
      w.u32(0);
      return w.take();
    });
  }
  const auto t0 = std::chrono::steady_clock::now();
  auto population = router.objectsInRegionDetailed(region, 0.5);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_TRUE(population.degraded);
  EXPECT_EQ(population.shardsAnswered, 1u);
  ASSERT_EQ(population.members.size(), 1u);
  EXPECT_EQ(population.members[0].first, MobileObjectId{onLive});

  // Every round waits on both stalled shards at once, so the query costs one
  // retry budget; waiting on them one after the other would cost two.
  const auto rounds = static_cast<long>(1 + opts.retry.maxRetries);
  const auto budget = rounds * (opts.retry.callDeadline + opts.retry.backoffMax);
  EXPECT_LT(elapsed, budget + std::chrono::milliseconds(200));
  auto stats = router.stats();
  EXPECT_EQ(stats.shards[0].timeouts, 0u);
  EXPECT_EQ(stats.shards[1].timeouts, 1 + opts.retry.maxRetries);
  EXPECT_EQ(stats.shards[2].timeouts, 1 + opts.retry.maxRetries);
}

TEST_F(ClusterTest, RemoteErrorFromScatterReachesCallerWithoutFailingShards) {
  startCluster(3);
  const auto region = geo::Rect::fromOrigin({0, 0}, 20, 20);
  hosts_[1]->core().rpcServer().registerMethod("objectsInRegion",
                                               [](const util::Bytes&) -> util::Bytes {
                                                 throw std::runtime_error("region index offline");
                                               });
  try {
    (void)router_->objectsInRegionDetailed(region, 0.5);
    ADD_FAILURE() << "the shard's error must reach the caller";
  } catch (const util::TransportError& e) {
    ADD_FAILURE() << "a remote error is not a transport failure: " << e.what();
  } catch (const util::MwError& e) {
    EXPECT_NE(std::string(e.what()).find("region index offline"), std::string::npos);
  }
  for (const auto& shard : router_->stats().shards) {
    EXPECT_EQ(shard.failures, 0u);
    EXPECT_FALSE(shard.down);
  }
}

TEST_F(ClusterTest, RestartedShardIsReadmittedByProbe) {
  startCluster(2);
  const std::string object = objectOwnedBy(1);
  ingestBoth(makeReading(clock_, {5, 5}, object));

  hosts_[1].reset();
  EXPECT_EQ(router_->locate(MobileObjectId{object}), std::nullopt);
  ASSERT_TRUE(router_->stats().shards[1].down);

  // Restart shard 1 on a fresh port; the heartbeat re-announces it.
  hosts_[1] = startShard(1);
  router_->refreshMembers();

  // Probe until the health machine re-admits it (probeInterval is 30ms).
  for (int i = 0; i < 200 && router_->stats().shards[1].down; ++i) {
    router_->probeDownShards();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_FALSE(router_->stats().shards[1].down);

  // The restarted shard is empty (state died with the process); new
  // readings route to it and answer again.
  router_->ingest(makeReading(clock_, {6, 6}, object));
  auto est = router_->locate(MobileObjectId{object});
  ASSERT_TRUE(est.has_value());
  EXPECT_GT(est->probability, 0.9);
}

// --- subscriptions --------------------------------------------------------------

TEST_F(ClusterTest, SubscriptionFansOutAndCarriesOneClusterId) {
  startCluster(2);
  const auto region = geo::Rect::fromOrigin({0, 0}, 20, 20);
  const std::string onShard0 = objectOwnedBy(0);
  const std::string onShard1 = objectOwnedBy(1);

  std::mutex notesMutex;
  std::vector<core::Notification> notes;
  auto id = router_->subscribe(region, std::nullopt, 0.5, [&](const core::Notification& n) {
    std::lock_guard lock(notesMutex);
    notes.push_back(n);
  });
  EXPECT_TRUE(id.valid());

  router_->ingest(makeReading(clock_, {5, 5}, onShard0));
  router_->ingest(makeReading(clock_, {10, 10}, onShard1));

  // Notifications arrive on the clients' event threads; poll.
  for (int i = 0; i < 400; ++i) {
    std::lock_guard lock(notesMutex);
    if (notes.size() >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::set<std::string> notified;
  {
    std::lock_guard lock(notesMutex);
    ASSERT_EQ(notes.size(), 2u) << "one notification per shard-matched ingest";
    for (const auto& n : notes) {
      EXPECT_EQ(n.id, id) << "whichever shard matched, the caller sees ONE id";
      EXPECT_GT(n.probability, 0.5);
      notified.insert(n.object.str());
    }
  }
  EXPECT_EQ(notified, (std::set<std::string>{onShard0, onShard1}));

  EXPECT_TRUE(router_->unsubscribe(id));
  EXPECT_FALSE(router_->unsubscribe(id));
  router_->ingest(makeReading(clock_, {6, 6}, onShard0));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::lock_guard lock(notesMutex);
  EXPECT_EQ(notes.size(), 2u) << "no notifications after unsubscribe";
}

TEST_F(ClusterTest, SubscriptionReplaysOntoRestartedShard) {
  startCluster(2);
  const auto region = geo::Rect::fromOrigin({0, 0}, 20, 20);
  const std::string object = objectOwnedBy(1);

  std::mutex notesMutex;
  std::vector<core::Notification> notes;
  auto id = router_->subscribe(region, std::nullopt, 0.5, [&](const core::Notification& n) {
    std::lock_guard lock(notesMutex);
    notes.push_back(n);
  });

  hosts_[1].reset();
  router_->ingest(makeReading(clock_, {5, 5}, object));  // dropped; marks shard down
  hosts_[1] = startShard(1);
  router_->refreshMembers();
  for (int i = 0; i < 200 && router_->stats().shards[1].down; ++i) {
    router_->probeDownShards();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_FALSE(router_->stats().shards[1].down);

  // The reconnect replayed the live subscription onto the fresh shard: an
  // ingest routed there must still notify under the original cluster id.
  router_->ingest(makeReading(clock_, {7, 7}, object));
  for (int i = 0; i < 400; ++i) {
    std::lock_guard lock(notesMutex);
    if (!notes.empty()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::lock_guard lock(notesMutex);
  ASSERT_FALSE(notes.empty()) << "subscription must survive the shard restart";
  EXPECT_EQ(notes.back().id, id);
  EXPECT_EQ(notes.back().object, MobileObjectId{object});
}

TEST_F(ClusterTest, SubscriptionReachesMemberReturningFromLapse) {
  // s1 heartbeats too rarely to re-announce on its own during the test, so
  // the test controls its lapse and its return.
  registry_ = std::make_unique<core::RegistryServer>();
  hosts_.push_back(startShard(0));
  ShardHost::Options lateOpts;
  lateOpts.ringToken = "s1";
  lateOpts.announceTtl = util::sec(120);
  lateOpts.heartbeatPeriod = util::sec(60);
  hosts_.push_back(startHost(lateOpts));
  ClusterLocationService::Options opts;
  opts.retry = fastRetry();
  router_ = std::make_unique<ClusterLocationService>("127.0.0.1", registry_->port(), opts);

  const std::string object = objectOwnedBy(1);
  router_->ingest(makeReading(clock_, {30, 30}, object));  // opens the router's connection to s1

  // s1's entry lapses; two refreshes open and close the window, so s1
  // leaves the scatter set while its connection stays up.
  core::RegistryClient admin("127.0.0.1", registry_->port());
  const std::string name = memberName(Partitioning::Ring, "s1");
  const auto entry = admin.lookupEntry(name);
  ASSERT_TRUE(entry.has_value());
  ASSERT_TRUE(admin.withdraw(name));
  router_->refreshMembers();
  router_->refreshMembers();
  ASSERT_FALSE(router_->dualReadWindowOpen());
  ASSERT_EQ(router_->shardFor(MobileObjectId{object}), 0u);

  // Subscribed while s1 is away: the fan-out reaches s0 only.
  std::mutex notesMutex;
  std::vector<core::Notification> notes;
  const auto region = geo::Rect::fromOrigin({0, 0}, 20, 20);
  auto id = router_->subscribe(region, std::nullopt, 0.5, [&](const core::Notification& n) {
    std::lock_guard lock(notesMutex);
    notes.push_back(n);
  });

  // s1 returns under the same endpoint; once the window closes its objects
  // route to it again and must notify under the cluster id.
  ASSERT_TRUE(admin.announce(name, entry->endpoint, util::sec(60), entry->generation));
  router_->refreshMembers();
  router_->refreshMembers();
  ASSERT_FALSE(router_->dualReadWindowOpen());
  ASSERT_EQ(router_->shardFor(MobileObjectId{object}), 1u);
  router_->ingest(makeReading(clock_, {5, 5}, object));
  for (int i = 0; i < 400; ++i) {
    std::lock_guard lock(notesMutex);
    if (!notes.empty()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::lock_guard lock(notesMutex);
  ASSERT_FALSE(notes.empty()) << "the returned member missed the subscription";
  EXPECT_EQ(notes.back().id, id);
  EXPECT_EQ(notes.back().object, MobileObjectId{object});
}

// --- replication and failover ---------------------------------------------------

TEST_F(ClusterTest, KillPrimaryPromotesBackupWithoutLosingAcknowledgedReadings) {
  startCluster(2);
  ShardHost::Options backupOpts;
  backupOpts.ringToken = "s1";
  backupOpts.role = ShardHost::Role::Backup;
  backupOpts.announceTtl = util::sec(5);
  backupOpts.heartbeatPeriod = util::msec(100);
  auto backup = startHost(backupOpts);
  EXPECT_EQ(backup->name(), memberName(Partitioning::Ring, "s1") + kBackupSuffix);
  EXPECT_EQ(backup->primaryName(), memberName(Partitioning::Ring, "s1"));
  ASSERT_EQ(backup->role(), ShardHost::Role::Backup);

  // Wait until the primary discovered its backup and the initial sync went
  // live — from here every acked ingest exists on both sides.
  std::shared_ptr<ReplicationLink> link;
  for (int i = 0; i < 500; ++i) {
    link = hosts_[1]->replicationLink();
    if (link && link->live()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(link && link->live()) << "primary must discover and sync its backup";

  std::vector<std::string> objects;
  for (int i = 0; i < 12; ++i) objects.push_back("obj-" + std::to_string(i));
  for (std::size_t i = 0; i < objects.size(); ++i) {
    const double x = 1.0 + static_cast<double>(i % 6) * 3.0;
    const double y = 2.0 + static_cast<double>(i / 6) * 5.0;
    ingestBoth(makeReading(clock_, {x, y}, objects[i]));
    clock_.advance(util::msec(50));
    ingestBoth(makeReading(clock_, {x + 0.5, y}, objects[i]));
  }
  EXPECT_GT(link->mirroredReadings(), 0u) << "shard 1's ingests must mirror synchronously";
  EXPECT_EQ(link->failures(), 0u);

  hosts_[1].reset();  // the primary dies; its registry entry disappears

  // The backup notices the missing entry on its next monitor tick and
  // claims the primary name at the last seen generation + 1.
  for (int i = 0; i < 500 && backup->role() != ShardHost::Role::Primary; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(backup->role(), ShardHost::Role::Primary) << "backup must promote";
  EXPECT_EQ(backup->promotions(), 1u);
  EXPECT_GE(backup->generation(), 2u);

  // Shard 1's name now resolves to the promoted backup; the router re-routes.
  router_->refreshMembers();
  for (int i = 0; i < 200 && router_->stats().shards[1].down; ++i) {
    router_->probeDownShards();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_FALSE(router_->stats().shards[1].down);

  // No acknowledged reading was lost: every object — including the dead
  // shard's — answers byte-identically to the oracle.
  for (const auto& name : objects) {
    MobileObjectId object{name};
    auto fromCluster = router_->locate(object);
    auto fromOracle = oracleClient_->locate(object);
    ASSERT_TRUE(fromCluster.has_value()) << name;
    ASSERT_TRUE(fromOracle.has_value()) << name;
    EXPECT_EQ(estimateBytes(*fromCluster), estimateBytes(*fromOracle))
        << name << ": post-failover locate must be byte-identical to the oracle";
    EXPECT_EQ(router_->locateSymbolic(object), oracleClient_->locateSymbolic(object)) << name;
  }

  // The promoted backup is a full primary: fresh readings keep fusing.
  const std::string onPromoted = objectOwnedBy(1);
  clock_.advance(util::msec(50));
  ingestBoth(makeReading(clock_, {6, 6}, onPromoted));
  auto fromCluster = router_->locate(MobileObjectId{onPromoted});
  auto fromOracle = oracleClient_->locate(MobileObjectId{onPromoted});
  ASSERT_TRUE(fromCluster.has_value());
  ASSERT_TRUE(fromOracle.has_value());
  EXPECT_EQ(estimateBytes(*fromCluster), estimateBytes(*fromOracle));
}

TEST_F(ClusterTest, FencedStalePrimaryDoesNotFlapOwnershipBack) {
  startCluster(1);
  ShardHost::Options backupOpts;
  backupOpts.ringToken = "s0";
  backupOpts.role = ShardHost::Role::Backup;
  backupOpts.announceTtl = util::sec(5);
  backupOpts.heartbeatPeriod = util::msec(50);
  auto backup = startHost(backupOpts);

  std::shared_ptr<ReplicationLink> link;
  for (int i = 0; i < 500; ++i) {
    link = hosts_[0]->replicationLink();
    if (link && link->live()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(link && link->live());

  // Simulate the primary's entry expiring while the process is slow but
  // ALIVE: an admin client withdraws it out from under the still-beating
  // heartbeat. The primary keeps re-announcing, so keep withdrawing until
  // the backup's monitor wins the race and promotes.
  core::RegistryClient admin("127.0.0.1", registry_->port());
  const std::string name = memberName(Partitioning::Ring, "s0");
  for (int i = 0; i < 1000 && backup->role() != ShardHost::Role::Primary; ++i) {
    (void)admin.withdraw(name);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(backup->role(), ShardHost::Role::Primary);
  EXPECT_EQ(backup->generation(), 2u) << "claimed at the last seen generation + 1";
  EXPECT_EQ(backup->promotions(), 1u);

  // The stale primary's next heartbeat announce (generation 1) hits the
  // fence: it must demote itself instead of reclaiming the name.
  for (int i = 0; i < 400 && !hosts_[0]->fenced(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(hosts_[0]->fenced());
  EXPECT_GE(hosts_[0]->fencedHeartbeats(), 1u);

  // Ownership settles on the promoted backup...
  std::optional<core::RegistryClient::ResolvedEntry> entry;
  for (int i = 0; i < 400; ++i) {
    entry = admin.lookupEntry(name);
    if (entry && entry->endpoint.port == backup->port()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->endpoint.port, backup->port());
  EXPECT_EQ(entry->generation, 2u);

  // ...and STAYS there across several more of the stale primary's
  // heartbeats — the whole point of the fence.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  entry = admin.lookupEntry(name);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->endpoint.port, backup->port()) << "no flap: the fence holds";
  EXPECT_EQ(entry->generation, 2u);
}

// --- online resharding ----------------------------------------------------------

TEST_F(ClusterTest, RingJoinMovesOnlyItsArcsUnderLiveIngest) {
  registry_ = std::make_unique<core::RegistryServer>();
  for (const char* token : {"alpha", "beta"}) {
    ShardHost::Options opts;
    opts.ringToken = token;
    opts.announceTtl = util::sec(5);
    opts.heartbeatPeriod = util::msec(100);
    hosts_.push_back(startHost(opts));
  }
  ClusterLocationService::Options routerOpts;
  routerOpts.retry = fastRetry();
  routerOpts.partitioning = ClusterLocationService::Partitioning::Ring;
  router_ = std::make_unique<ClusterLocationService>("127.0.0.1", registry_->port(), routerOpts);
  EXPECT_EQ(router_->shardCount(), 2u);
  EXPECT_FALSE(router_->dualReadWindowOpen());
  oracle_ = std::make_unique<core::Middlewhere>(clock_, universe(), "SC");
  configureWorld(*oracle_);
  oracleClient_ = oracle_->connectLocal();

  // A static population ingested before the join, untouched afterwards.
  std::vector<std::string> statics;
  for (int i = 0; i < 24; ++i) statics.push_back("ring-" + std::to_string(i));
  for (std::size_t i = 0; i < statics.size(); ++i) {
    const double x = 1.0 + static_cast<double>(i % 8) * 2.0;
    const double y = 2.0 + static_cast<double>(i / 8) * 5.0;
    ingestBoth(makeReading(clock_, {x, y}, statics[i]));
    clock_.advance(util::msec(20));
    ingestBoth(makeReading(clock_, {x + 0.5, y}, statics[i]));
  }

  // Live traffic across the whole join: a feeder thread hammering a small
  // object set through the router AND the oracle. Timestamps are frozen (the
  // feeder must not race the VirtualClock) and router ingest is
  // request-reply, so each reading is fully applied — wherever the current
  // topology routes it, including a handoff buffer or forward — before the
  // next one leaves. Per-object order therefore matches the oracle's
  // exactly, which is what makes the final byte-identical check fair.
  constexpr int kLiveObjects = 6;
  const auto frozenNow = clock_.now();
  std::atomic<bool> stopFeeder{false};
  std::atomic<int> fed{0};
  std::thread feeder([&] {
    for (int i = 0; !stopFeeder.load(std::memory_order_acquire); ++i) {
      db::SensorReading r;
      r.sensorId = SensorId{"ubi-1"};
      r.sensorType = "Ubisense";
      r.mobileObjectId = MobileObjectId{"live-" + std::to_string(i % kLiveObjects)};
      r.location = {2.0 + i % 16, 3.0 + i % 5};
      r.detectionRadius = 0.5;
      r.detectionTime = frozenNow;
      router_->ingest(r);
      oracleClient_->ingest(r);
      fed.fetch_add(1, std::memory_order_release);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  // Every live object must exist on its pre-join owner before the join so
  // the handoff's export list covers it.
  for (int i = 0; i < 5000 && fed.load(std::memory_order_acquire) < 20; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(fed.load(std::memory_order_acquire), 20);

  // gamma joins under load: handoff sessions first, announce second.
  ShardHost::Options gammaOpts;
  gammaOpts.ringToken = "gamma";
  gammaOpts.deferAnnounce = true;
  gammaOpts.announceTtl = util::sec(5);
  gammaOpts.heartbeatPeriod = util::msec(100);
  auto gamma = startHost(gammaOpts);
  gamma->joinRing();

  router_->refreshMembers();
  EXPECT_TRUE(router_->dualReadWindowOpen()) << "a membership change must open the window";
  EXPECT_EQ(router_->shardCount(), 3u);

  // Mid-window the statics already answer exactly: the joiner does not have
  // the moved objects yet, so reads fall back to the previous owner.
  for (const auto& name : statics) {
    MobileObjectId object{name};
    auto fromCluster = router_->locate(object);
    auto fromOracle = oracleClient_->locate(object);
    ASSERT_TRUE(fromCluster.has_value()) << name;
    ASSERT_TRUE(fromOracle.has_value()) << name;
    EXPECT_EQ(estimateBytes(*fromCluster), estimateBytes(*fromOracle)) << name << " (mid-window)";
  }

  gamma->completeJoin();
  router_->refreshMembers();
  EXPECT_FALSE(router_->dualReadWindowOpen()) << "an unchanged refresh closes the window";

  // Keep feeding a little with the window closed (moved objects now route
  // straight to gamma), then stop.
  const int beforeClose = fed.load(std::memory_order_acquire);
  for (int i = 0; i < 5000 && fed.load(std::memory_order_acquire) < beforeClose + 20; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stopFeeder.store(true, std::memory_order_release);
  feeder.join();

  // Exactness: every object — static and live, moved and kept — answers
  // byte-identically to the oracle after the join.
  std::vector<std::string> all = statics;
  for (int k = 0; k < kLiveObjects; ++k) all.push_back("live-" + std::to_string(k));
  for (const auto& name : all) {
    MobileObjectId object{name};
    auto fromCluster = router_->locate(object);
    auto fromOracle = oracleClient_->locate(object);
    ASSERT_TRUE(fromCluster.has_value()) << name;
    ASSERT_TRUE(fromOracle.has_value()) << name;
    EXPECT_EQ(estimateBytes(*fromCluster), estimateBytes(*fromOracle))
        << name << ": post-join locate must be byte-identical to the oracle";
    EXPECT_EQ(router_->locateSymbolic(object), oracleClient_->locateSymbolic(object)) << name;
  }
  EXPECT_EQ(router_->stats().failedRoutedCalls, 0u);
  EXPECT_EQ(router_->stats().droppedIngestReadings, 0u);

  // Movement is bounded and exact: gamma holds precisely the objects its
  // arcs own, and the losers dropped precisely those.
  const HashRing after({"alpha", "beta", "gamma"});
  std::set<std::string> moved;
  for (const auto& name : all) {
    if (after.ownerForObject(MobileObjectId{name}) == "gamma") moved.insert(name);
  }
  EXPECT_FALSE(moved.empty()) << "the joiner should claim some of " << all.size() << " objects";
  std::set<std::string> onGamma;
  for (const auto& id : gamma->core().database().knownMobileObjects()) onGamma.insert(id.str());
  EXPECT_EQ(onGamma, moved) << "the joiner holds exactly its arcs' objects";
  for (const auto& host : hosts_) {
    for (const auto& id : host->core().database().knownMobileObjects()) {
      EXPECT_FALSE(moved.count(id.str()))
          << id.str() << " should have been dropped by " << host->name();
    }
  }
}

TEST_F(ClusterTest, RingPlannedLeaveDrainsUnderLiveIngest) {
  registry_ = std::make_unique<core::RegistryServer>();
  for (const char* token : {"alpha", "beta"}) {
    ShardHost::Options opts;
    opts.ringToken = token;
    opts.announceTtl = util::sec(5);
    opts.heartbeatPeriod = util::msec(100);
    hosts_.push_back(startHost(opts));
  }
  ShardHost::Options gammaOpts;
  gammaOpts.ringToken = "gamma";
  gammaOpts.announceTtl = util::sec(5);
  gammaOpts.heartbeatPeriod = util::msec(100);
  auto gamma = startHost(gammaOpts);
  ClusterLocationService::Options routerOpts;
  routerOpts.retry = fastRetry();
  routerOpts.partitioning = ClusterLocationService::Partitioning::Ring;
  router_ = std::make_unique<ClusterLocationService>("127.0.0.1", registry_->port(), routerOpts);
  EXPECT_EQ(router_->shardCount(), 3u);
  oracle_ = std::make_unique<core::Middlewhere>(clock_, universe(), "SC");
  configureWorld(*oracle_);
  oracleClient_ = oracle_->connectLocal();

  // A static population spread over all three members.
  std::vector<std::string> statics;
  for (int i = 0; i < 24; ++i) statics.push_back("ring-" + std::to_string(i));
  for (std::size_t i = 0; i < statics.size(); ++i) {
    const double x = 1.0 + static_cast<double>(i % 8) * 2.0;
    const double y = 2.0 + static_cast<double>(i / 8) * 5.0;
    ingestBoth(makeReading(clock_, {x, y}, statics[i]));
    clock_.advance(util::msec(20));
    ingestBoth(makeReading(clock_, {x + 0.5, y}, statics[i]));
  }

  // Live traffic across the whole drain (frozen timestamps, request-reply
  // ingest — see the join test for the exactness argument).
  constexpr int kLiveObjects = 6;
  const auto frozenNow = clock_.now();
  std::atomic<bool> stopFeeder{false};
  std::atomic<int> fed{0};
  std::thread feeder([&] {
    for (int i = 0; !stopFeeder.load(std::memory_order_acquire); ++i) {
      db::SensorReading r;
      r.sensorId = SensorId{"ubi-1"};
      r.sensorType = "Ubisense";
      r.mobileObjectId = MobileObjectId{"live-" + std::to_string(i % kLiveObjects)};
      r.location = {2.0 + i % 16, 3.0 + i % 5};
      r.detectionRadius = 0.5;
      r.detectionTime = frozenNow;
      router_->ingest(r);
      oracleClient_->ingest(r);
      fed.fetch_add(1, std::memory_order_release);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (int i = 0; i < 5000 && fed.load(std::memory_order_acquire) < 20; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(fed.load(std::memory_order_acquire), 20);

  // The planned departure: gamma installs a handoff session per inheriting
  // member, withdraws (routers recompute the ring) and drains its objects
  // across — all while the feeder keeps hammering it.
  gamma->leaveRing();
  EXPECT_TRUE(gamma->running()) << "the leaver keeps serving stragglers after the drain";

  router_->refreshMembers();
  EXPECT_TRUE(router_->dualReadWindowOpen()) << "a departure must open the window";
  // Shard slots are stable (the leaver keeps its slot and endpoint for
  // prev-ring routing while the window is open); membership is what shrank.
  EXPECT_EQ(router_->shardCount(), 3u);

  // Mid-window exactness: moved-arc ingest still routes to gamma (which
  // forwards), reads route new-owner-first. The drain already ran, so the
  // inheritors answer directly.
  for (const auto& name : statics) {
    MobileObjectId object{name};
    auto fromCluster = router_->locate(object);
    auto fromOracle = oracleClient_->locate(object);
    ASSERT_TRUE(fromCluster.has_value()) << name;
    ASSERT_TRUE(fromOracle.has_value()) << name;
    EXPECT_EQ(estimateBytes(*fromCluster), estimateBytes(*fromOracle)) << name << " (mid-window)";
  }

  router_->refreshMembers();
  EXPECT_FALSE(router_->dualReadWindowOpen()) << "an unchanged refresh closes the window";

  // Keep feeding with the window closed (moved arcs now route straight to
  // the inheritors), then stop.
  const int beforeClose = fed.load(std::memory_order_acquire);
  for (int i = 0; i < 5000 && fed.load(std::memory_order_acquire) < beforeClose + 20; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stopFeeder.store(true, std::memory_order_release);
  feeder.join();

  std::vector<std::string> all = statics;
  for (int k = 0; k < kLiveObjects; ++k) all.push_back("live-" + std::to_string(k));
  for (const auto& name : all) {
    MobileObjectId object{name};
    auto fromCluster = router_->locate(object);
    auto fromOracle = oracleClient_->locate(object);
    ASSERT_TRUE(fromCluster.has_value()) << name;
    ASSERT_TRUE(fromOracle.has_value()) << name;
    EXPECT_EQ(estimateBytes(*fromCluster), estimateBytes(*fromOracle))
        << name << ": post-leave locate must be byte-identical to the oracle";
    EXPECT_EQ(router_->locateSymbolic(object), oracleClient_->locateSymbolic(object)) << name;
  }
  EXPECT_EQ(router_->stats().failedRoutedCalls, 0u);
  EXPECT_EQ(router_->stats().droppedIngestReadings, 0u);

  // Movement is exact and bounded: gamma dropped precisely its former
  // objects, and each one landed on the member whose arc inherits it.
  const HashRing before({"alpha", "beta", "gamma"});
  const HashRing after({"alpha", "beta"});
  std::set<std::string> moved;
  for (const auto& name : all) {
    if (before.ownerForObject(MobileObjectId{name}) == "gamma") moved.insert(name);
  }
  EXPECT_FALSE(moved.empty()) << "the leaver should have owned some of " << all.size();
  for (const auto& id : gamma->core().database().knownMobileObjects()) {
    EXPECT_FALSE(moved.count(id.str())) << id.str() << " should have been dropped by the leaver";
  }
  for (std::size_t h = 0; h < hosts_.size(); ++h) {
    const std::string token = h == 0 ? "alpha" : "beta";
    std::set<std::string> resident;
    for (const auto& id : hosts_[h]->core().database().knownMobileObjects()) {
      resident.insert(id.str());
    }
    for (const auto& name : moved) {
      EXPECT_EQ(resident.count(name) > 0, after.ownerForObject(MobileObjectId{name}) == token)
          << name << " vs " << token;
    }
  }
}

TEST_F(ClusterTest, RingJoinMovesOnlyItsArcsIncludingObjectsFirstSeenMidWindow) {
  // The case arc coverage exists for: an object whose FIRST reading arrives
  // while the join's dual-read window is open. The router sends it to the
  // previous owner, whose session must catch it by its ring key — an object
  // list taken at begin time would not name it, so the reading would be
  // applied on the loser and stranded there.
  registry_ = std::make_unique<core::RegistryServer>();
  for (const char* token : {"alpha", "beta"}) {
    ShardHost::Options opts;
    opts.ringToken = token;
    opts.announceTtl = util::sec(5);
    opts.heartbeatPeriod = util::msec(100);
    hosts_.push_back(startHost(opts));
  }
  ClusterLocationService::Options routerOpts;
  routerOpts.retry = fastRetry();
  router_ = std::make_unique<ClusterLocationService>("127.0.0.1", registry_->port(), routerOpts);
  oracle_ = std::make_unique<core::Middlewhere>(clock_, universe(), "SC");
  configureWorld(*oracle_);
  oracleClient_ = oracle_->connectLocal();
  ingestBoth(makeReading(clock_, {3, 4}, "resident"));

  ShardHost::Options gammaOpts;
  gammaOpts.ringToken = "gamma";
  gammaOpts.deferAnnounce = true;
  gammaOpts.announceTtl = util::sec(5);
  gammaOpts.heartbeatPeriod = util::msec(100);
  auto gamma = startHost(gammaOpts);
  gamma->joinRing();
  router_->refreshMembers();
  ASSERT_TRUE(router_->dualReadWindowOpen());

  // A never-seen object whose key falls in an arc gamma claims.
  const HashRing after({"alpha", "beta", "gamma"});
  std::string newcomer;
  for (int i = 0; i < 1000 && newcomer.empty(); ++i) {
    const std::string name = "newcomer-" + std::to_string(i);
    if (after.ownerForObject(MobileObjectId{name}) == "gamma") newcomer = name;
  }
  ASSERT_FALSE(newcomer.empty());
  clock_.advance(util::msec(20));
  ingestBoth(makeReading(clock_, {6, 7}, newcomer));
  clock_.advance(util::msec(20));
  ingestBoth(makeReading(clock_, {6.5, 7}, newcomer));

  gamma->completeJoin();
  router_->refreshMembers();
  ASSERT_FALSE(router_->dualReadWindowOpen());

  auto onHost = [&](ShardHost& host) {
    const auto known = host.core().database().knownMobileObjects();
    return std::find(known.begin(), known.end(), MobileObjectId{newcomer}) != known.end();
  };
  EXPECT_TRUE(onHost(*gamma)) << newcomer << " must live on the joiner";
  for (const auto& host : hosts_) {
    EXPECT_FALSE(onHost(*host)) << newcomer << " stranded on " << host->name();
  }
  for (const std::string& name : {newcomer, std::string("resident")}) {
    MobileObjectId object{name};
    auto fromCluster = router_->locate(object);
    auto fromOracle = oracleClient_->locate(object);
    ASSERT_TRUE(fromCluster.has_value()) << name;
    ASSERT_TRUE(fromOracle.has_value()) << name;
    EXPECT_EQ(estimateBytes(*fromCluster), estimateBytes(*fromOracle)) << name;
    EXPECT_EQ(router_->locateSymbolic(object), oracleClient_->locateSymbolic(object)) << name;
  }
  EXPECT_EQ(router_->stats().droppedIngestReadings, 0u);
}

// --- the migrate.* protocol, called directly ----------------------------------

TEST_F(ClusterTest, MigrateRefusesUnknownAndUnflushedSessions) {
  startCluster(2);
  const std::string name = objectOwnedBy(0);
  ingestBoth(makeReading(clock_, {4, 4}, name));
  ShardHost& loser = *hosts_[0];
  auto knowsObject = [&] {
    const auto known = loser.core().database().knownMobileObjects();
    return std::find(known.begin(), known.end(), MobileObjectId{name}) != known.end();
  };
  ASSERT_TRUE(knowsObject());
  orb::RpcClient rpc(orb::tcpConnect("127.0.0.1", loser.port()));

  // Unknown session ids are refused.
  EXPECT_FALSE(callMigrateFlush(rpc, 9999));
  EXPECT_FALSE(callMigrateEnd(rpc, 9999));

  MigrateRequest request;
  request.gainerToken = "s1";
  request.gainer = core::Endpoint{"127.0.0.1", hosts_[1]->port()};
  request.objects = {MobileObjectId{name}};
  const MigrateBegun first = callMigrateBegin(rpc, request);
  EXPECT_EQ(first.affected, request.objects);
  EXPECT_EQ(loser.migrationSessions(), 1u);

  // End before flush is refused and drops nothing.
  EXPECT_FALSE(callMigrateEnd(rpc, first.session));
  EXPECT_TRUE(knowsObject());

  // A begin retried after a failed attempt prunes the stale session: it is
  // retired from the table, and its id is unknown from then on.
  const MigrateBegun retry = callMigrateBegin(rpc, request);
  EXPECT_NE(retry.session, first.session);
  EXPECT_EQ(loser.migrationSessions(), 1u);
  EXPECT_FALSE(callMigrateFlush(rpc, first.session));

  // The live session completes normally: flush, then end drops the object.
  EXPECT_TRUE(callMigrateFlush(rpc, retry.session));
  EXPECT_TRUE(callMigrateEnd(rpc, retry.session));
  EXPECT_FALSE(knowsObject());
}

TEST(MigrateCodecTest, BeginCarriesEveryRequestFieldAcrossTheWire) {
  // The gainer endpoint is host and port only; every field the caller sets
  // must decode unchanged on the serving side, and the reply likewise.
  orb::RpcServer server;
  std::optional<MigrateRequest> seen;
  serveMigrate(server, {[&](const MigrateRequest& request) {
                          seen = request;
                          return MigrateBegun{42, {MobileObjectId{"a"}}};
                        },
                        [](const std::vector<MobileObjectId>&) {},
                        [](std::uint64_t session) { return session == 42; },
                        [](std::uint64_t) { return false; }});
  auto [clientSide, serverSide] = orb::makeInProcPair();
  server.serve(serverSide);
  orb::RpcClient rpc(clientSide);

  MigrateRequest request;
  request.gainerToken = "s7";
  request.gainer = core::Endpoint{"10.1.2.3", 4242};
  request.objects = {MobileObjectId{"a"}, MobileObjectId{"b"}};
  request.rects = {geo::Rect::fromCorners({1, 2}, {3, 4})};
  request.arcs = {RingArc{10, 20}, RingArc{30, 5}};
  const MigrateBegun begun = callMigrateBegin(rpc, request);
  EXPECT_EQ(begun.session, 42u);
  EXPECT_EQ(begun.affected, std::vector<MobileObjectId>{MobileObjectId{"a"}});

  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(seen->gainerToken, "s7");
  EXPECT_EQ(seen->gainer, request.gainer);
  EXPECT_EQ(seen->objects, request.objects);
  ASSERT_EQ(seen->rects.size(), 1u);
  EXPECT_EQ(seen->rects[0], request.rects[0]);
  ASSERT_EQ(seen->arcs.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(seen->arcs[i].lo, request.arcs[i].lo) << i;
    EXPECT_EQ(seen->arcs[i].hi, request.arcs[i].hi) << i;
  }
  EXPECT_TRUE(callMigrateFlush(rpc, 42));
  EXPECT_FALSE(callMigrateEnd(rpc, 42));
}

// --- concurrency (runs under TSan in CI) ----------------------------------------

TEST_F(ClusterTest, ClusterConcurrencyMixedOpsThroughOneRouter) {
  startCluster(2);
  const auto region = geo::Rect::fromOrigin({0, 0}, 20, 20);
  constexpr int kThreads = 4;
  constexpr int kIters = 25;

  std::atomic<std::uint64_t> located{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::string object = "obj-" + std::to_string(t) + "-" + std::to_string(i % 7);
        router_->ingest(makeReading(clock_, {2.0 + i % 8, 3.0 + t}, object));
        if (router_->locate(MobileObjectId{object})) {
          located.fetch_add(1, std::memory_order_relaxed);
        }
        if (i % 5 == 0) {
          (void)router_->objectsInRegionDetailed(region, 0.5);
          (void)router_->probabilityInRegion(MobileObjectId{object}, region);
        }
        if (i % 10 == 0) {
          auto id = router_->subscribe(region, std::nullopt, 0.9, [](const core::Notification&) {});
          router_->unsubscribe(id);
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();

  EXPECT_EQ(located.load(), static_cast<std::uint64_t>(kThreads) * kIters)
      << "a healthy cluster must answer every routed locate";
  auto stats = router_->stats();
  EXPECT_EQ(stats.failedRoutedCalls, 0u);
  EXPECT_EQ(stats.droppedIngestReadings, 0u);
  EXPECT_FALSE(stats.shards[0].down);
  EXPECT_FALSE(stats.shards[1].down);
  EXPECT_EQ(hosts_[0]->core().locationService().ingestedReadings() +
                hosts_[1]->core().locationService().ingestedReadings(),
            static_cast<std::uint64_t>(kThreads) * kIters);
}

}  // namespace
}  // namespace mw::cluster

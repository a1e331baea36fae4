// Spatial-partitioning cluster tests: the kd-split TerritoryMap, the
// region-targeted router (Partitioning::Spatial) and its dynamic load
// balancer. The load-bearing property is oracle equivalence — the spatial
// cluster answers byte-for-byte like the single-process service fed the
// same readings, including across boundary crossings and live territory
// migration — plus the perf contract: region queries touch only the shards
// whose territory intersects the region. Suite names ClusterSpatial* are
// matched by the sanitizer regexes (they contain "Cluster").
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/cluster_location_service.hpp"
#include "cluster/shard_host.hpp"
#include "cluster/territory_map.hpp"
#include "core/codec.hpp"
#include "core/middlewhere.hpp"
#include "core/remote_registry.hpp"
#include "util/error.hpp"

namespace mw::cluster {
namespace {

using mw::util::MobileObjectId;
using mw::util::SensorId;
using mw::util::VirtualClock;

geo::Rect universe() { return geo::Rect::fromOrigin({0, 0}, 100, 50); }

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

db::SensorReading makeReading(util::TimePoint when, geo::Point2 where,
                              const std::string& object) {
  db::SensorReading r;
  r.sensorId = SensorId{"ubi-1"};
  r.sensorType = "Ubisense";
  r.mobileObjectId = MobileObjectId{object};
  r.location = where;
  r.detectionRadius = 0.5;
  r.detectionTime = when;
  return r;
}

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

// --- territory map unit tests ---------------------------------------------------

TEST(ClusterSpatialMapTest, UniformIsAPureFunctionOfTheMemberSet) {
  const auto a = TerritoryMap::uniform(universe(), {"b", "a", "d", "c"});
  const auto b = TerritoryMap::uniform(universe(), {"d", "c", "b", "a"});
  EXPECT_EQ(a, b) << "member ORDER must not matter";
  EXPECT_EQ(a.version(), 1u);
  EXPECT_EQ(a.leaves().size(), 4u) << "one leaf per member";
  EXPECT_EQ(a.owners(), (std::vector<std::string>{"a", "b", "c", "d"}));

  // Equal-area split, tiling the universe exactly.
  double total = 0;
  for (const auto& leaf : a.leaves()) {
    EXPECT_NEAR(leaf.rect.area(), universe().area() / 4.0, 1e-9);
    total += leaf.rect.area();
  }
  EXPECT_NEAR(total, universe().area(), 1e-9);

  EXPECT_THROW((void)TerritoryMap::uniform(universe(), {}), util::ContractError);
  EXPECT_THROW((void)TerritoryMap::uniform(geo::Rect(), {"a"}), util::ContractError);
}

TEST(ClusterSpatialMapTest, EveryPointHasExactlyOneOwner) {
  const auto map = TerritoryMap::uniform(universe(), {"a", "b", "c"});
  // Sample a dense grid INCLUDING split boundaries and the universe's own
  // edges: half-open leaves must hand every point to exactly one owner.
  for (double x = 0; x <= 100.0; x += 2.5) {
    for (double y = 0; y <= 50.0; y += 2.5) {
      const geo::Point2 p{x, y};
      const TerritoryLeaf& leaf = map.leafForPoint(p);
      EXPECT_EQ(map.ownerForPoint(p), leaf.owner);
      EXPECT_TRUE(leaf.rect.contains(p)) << "owner leaf must contain (" << x << "," << y << ")";
    }
  }
  // Each leaf's center maps back to itself.
  for (const auto& leaf : map.leaves()) {
    EXPECT_EQ(map.leafForPoint(leaf.rect.center()).id, leaf.id);
  }
  // Points outside the universe clamp instead of throwing.
  EXPECT_NO_THROW((void)map.ownerForPoint({-5, 70}));
  EXPECT_THROW((void)TerritoryMap().ownerForPoint({1, 1}), util::ContractError);
}

TEST(ClusterSpatialMapTest, SplitAndReassignBumpVersionsAndKeepIdsStable) {
  const auto map = TerritoryMap::uniform(universe(), {"a", "b"});
  const TerritoryLeaf aLeaf = map.leavesOf("a").front();

  const auto split = map.splitLeaf(aLeaf.id, "b");
  EXPECT_EQ(split.version(), map.version() + 1);
  EXPECT_EQ(split.leaves().size(), 3u);
  const TerritoryLeaf& lowHalf = *split.leafById(aLeaf.id);
  const TerritoryLeaf& highHalf = split.leaves().back();
  EXPECT_EQ(lowHalf.owner, "a") << "low half keeps id and owner";
  EXPECT_EQ(highHalf.owner, "b") << "high half goes to the new owner";
  EXPECT_NE(highHalf.id, aLeaf.id) << "fresh id for the new half";
  EXPECT_NEAR(lowHalf.rect.area() + highHalf.rect.area(), aLeaf.rect.area(), 1e-9);
  EXPECT_TRUE(aLeaf.rect.contains(lowHalf.rect));
  EXPECT_TRUE(aLeaf.rect.contains(highHalf.rect));

  const auto reassigned = map.reassignLeaf(aLeaf.id, "b");
  EXPECT_EQ(reassigned.version(), map.version() + 1);
  EXPECT_EQ(reassigned.leafById(aLeaf.id)->owner, "b");

  EXPECT_THROW((void)map.splitLeaf(9999, "b"), util::ContractError);
}

TEST(ClusterSpatialMapTest, MergeLeavesRoundTripsASplit) {
  const auto map = TerritoryMap::uniform(universe(), {"a", "b"});
  const TerritoryLeaf aLeaf = map.leavesOf("a").front();

  // Split, then merge the halves back: the geometry round-trips exactly and
  // the version moves monotonically (+1 per mutation, never back).
  const auto split = map.splitLeaf(aLeaf.id, "b");
  const std::uint32_t newHalf = split.leaves().back().id;
  EXPECT_EQ(split.mergeableSibling(aLeaf.id), newHalf)
      << "the freshly split sibling is the canonical merge candidate";

  const auto merged = split.mergeLeaves(aLeaf.id, newHalf);
  EXPECT_EQ(merged.version(), map.version() + 2);
  EXPECT_EQ(merged.leaves().size(), map.leaves().size());
  EXPECT_EQ(merged.leafById(aLeaf.id)->rect, aLeaf.rect)
      << "split-then-merge restores the original leaf bit-for-bit";
  EXPECT_EQ(merged.leafById(aLeaf.id)->owner, "a") << "keepId keeps its owner";
  EXPECT_EQ(merged.leafById(newHalf), nullptr) << "dropId disappears";

  double total = 0;
  for (const auto& leaf : merged.leaves()) total += leaf.rect.area();
  EXPECT_NEAR(total, universe().area(), 1e-9) << "merging loses no territory";

  // mergeableSibling prefers a same-owner neighbour when one exists.
  const auto bLeaf = map.leavesOf("b").front();
  const auto threeWay = map.splitLeaf(aLeaf.id, "a");
  const auto sibling = threeWay.mergeableSibling(aLeaf.id);
  ASSERT_TRUE(sibling.has_value());
  EXPECT_EQ(threeWay.leafById(*sibling)->owner, "a")
      << "same-owner merge moves no data and must win";

  // Error cases: unknown ids, self-merge, and non-rectangular unions.
  EXPECT_THROW((void)split.mergeLeaves(aLeaf.id, 9999), util::ContractError);
  EXPECT_THROW((void)split.mergeLeaves(aLeaf.id, aLeaf.id), util::ContractError);
  const auto askew = split.splitLeaf(newHalf, "b");
  const std::uint32_t corner = askew.leaves().back().id;
  EXPECT_THROW((void)askew.mergeLeaves(aLeaf.id, corner), util::ContractError)
      << "leaves that no longer share a full edge must not merge";
  EXPECT_EQ(askew.mergeableSibling(9999), std::nullopt);
  (void)bLeaf;
}

TEST(ClusterSpatialMapTest, EncodeDecodeRoundTripsExactly) {
  const auto map =
      TerritoryMap::uniform(universe(), {"a", "b", "c"}).splitLeaf(0, "c").reassignLeaf(1, "a");
  const auto back = TerritoryMap::decode(map.encode());
  EXPECT_EQ(back, map) << "wire round trip must be lossless (geometry bit-for-bit)";
  EXPECT_EQ(back.version(), map.version());

  const TerritoryMap empty;
  EXPECT_EQ(TerritoryMap::decode(empty.encode()), empty);
}

TEST(ClusterSpatialMapTest, OwnersIntersectingReturnsOnlyTouchedOwners) {
  const auto map = TerritoryMap::uniform(universe(), {"a", "b", "c", "d"});
  // The whole universe touches everyone.
  EXPECT_EQ(map.ownersIntersecting(universe()).size(), 4u);
  // A tiny region strictly inside one leaf touches exactly its owner.
  for (const auto& leaf : map.leaves()) {
    const auto owners = map.ownersIntersecting(geo::Rect::centeredSquare(leaf.rect.center(), 1));
    ASSERT_EQ(owners.size(), 1u) << "leaf " << leaf.id;
    EXPECT_EQ(owners.front(), leaf.owner);
  }
  // A region outside the universe touches nobody.
  EXPECT_TRUE(map.ownersIntersecting(geo::Rect::fromOrigin({500, 500}, 5, 5)).empty());
}

TEST(ClusterSpatialMapTest, SpaceMemberNameRoundTrip) {
  EXPECT_EQ(memberName(Partitioning::Spatial, "east"), "location.space.east");
  EXPECT_EQ(parseMemberName(Partitioning::Spatial, "location.space.east"),
            std::optional<std::string>("east"));
  EXPECT_EQ(parseMemberName(Partitioning::Spatial, "location.space."), std::nullopt);
  EXPECT_EQ(parseMemberName(Partitioning::Spatial, "location.ring.east"), std::nullopt);
  EXPECT_EQ(parseMemberName(Partitioning::Spatial, "location.space.east.backup"), std::nullopt)
      << "standby announcements are not members";
}

// --- cluster fixture ------------------------------------------------------------

/// The spatial cluster under test ("location.space.<token>") next to the
/// single-process oracle, reached through an in-process client (the same
/// marshalling path the router uses). Both are fed identical readings; every
/// answer must match byte-for-byte.
class ClusterSpatialTest : public ::testing::Test {
 protected:
  void startClusters(const std::vector<std::string>& tokens) {
    registry_ = std::make_unique<core::RegistryServer>();
    for (const auto& token : tokens) {
      ShardHost::Options opts;
      opts.spaceToken = token;
      opts.announceTtl = util::sec(5);
      opts.heartbeatPeriod = util::msec(100);
      spaceHosts_[token] = startHost(opts);
    }
    ClusterLocationService::Options spatialOpts;
    spatialOpts.retry = fastRetry();
    spatialOpts.partitioning = ClusterLocationService::Partitioning::Spatial;
    spatialOpts.universe = universe();
    router_ = std::make_unique<ClusterLocationService>("127.0.0.1", registry_->port(),
                                                       spatialOpts);
    oracleCore_ = std::make_unique<core::Middlewhere>(clock_, universe(), "SC");
    configureWorld(*oracleCore_);
    oracle_ = oracleCore_->connectLocal();
  }

  std::unique_ptr<ShardHost> startHost(ShardHost::Options opts) {
    auto host = std::make_unique<ShardHost>(clock_, universe(), "SC", "127.0.0.1",
                                            registry_->port(), std::move(opts));
    configureWorld(host->core());
    host->start();
    return host;
  }

  /// Feeds the same reading to the spatial cluster and the oracle.
  void ingestBoth(const db::SensorReading& reading) {
    router_->ingest(reading);
    oracle_->ingest(reading);
  }

  /// Every object must locate byte-identically through both routers.
  void expectOracleEquivalence(const std::vector<std::string>& objects,
                               const std::string& context) {
    for (const auto& name : objects) {
      MobileObjectId object{name};
      auto fromSpatial = router_->locate(object);
      auto fromOracle = oracle_->locate(object);
      ASSERT_TRUE(fromSpatial.has_value()) << context << ": " << name;
      ASSERT_TRUE(fromOracle.has_value()) << context << ": " << name;
      EXPECT_EQ(estimateBytes(*fromSpatial), estimateBytes(*fromOracle))
          << context << ": " << name << " must be byte-identical to the oracle";
      EXPECT_EQ(router_->locateSymbolic(object), oracle_->locateSymbolic(object))
          << context << ": " << name;
    }
  }

  /// The spatial host currently resident for `object`, by database scan.
  std::vector<std::string> residentTokens(const std::string& object) const {
    std::vector<std::string> tokens;
    for (const auto& [token, host] : spaceHosts_) {
      for (const auto& id : host->core().database().knownMobileObjects()) {
        if (id.str() == object) tokens.push_back(token);
      }
    }
    std::sort(tokens.begin(), tokens.end());
    return tokens;
  }

  VirtualClock clock_;
  std::unique_ptr<core::RegistryServer> registry_;
  std::map<std::string, std::unique_ptr<ShardHost>> spaceHosts_;
  std::unique_ptr<ClusterLocationService> router_;  ///< spatial, under test
  std::unique_ptr<core::Middlewhere> oracleCore_;   ///< single-process oracle
  std::unique_ptr<core::RemoteLocationClient> oracle_;
};

// --- oracle equivalence ---------------------------------------------------------

TEST_F(ClusterSpatialTest, SpatialAnswersMatchSingleProcessOracleByteForByte) {
  startClusters({"a", "b", "c", "d"});
  ASSERT_EQ(router_->shardCount(), 4u);

  // Subscriptions FIRST, on both clusters, so trigger parity is observed
  // for every reading that follows.
  const auto room = geo::Rect::fromOrigin({0, 0}, 20, 20);
  std::mutex notifyMutex;
  std::vector<std::pair<std::string, double>> spatialNotifies;
  std::vector<std::pair<std::string, double>> oracleNotifies;
  (void)router_->subscribe(room, std::nullopt, 0.6, [&](const core::Notification& n) {
    std::lock_guard lock(notifyMutex);
    spatialNotifies.emplace_back(n.object.str(), n.probability);
  });
  (void)oracle_->subscribe(room, std::nullopt, 0.6, [&](const core::Notification& n) {
    std::lock_guard lock(notifyMutex);
    oracleNotifies.emplace_back(n.object.str(), n.probability);
  });

  // Objects spread over the whole universe so every territory owns some.
  std::vector<std::string> objects;
  for (int i = 0; i < 24; ++i) {
    objects.push_back("obj-" + std::to_string(i));
    const double x = 3.0 + static_cast<double>(i % 8) * 12.0;
    const double y = 4.0 + static_cast<double>(i / 8) * 18.0;
    ingestBoth(makeReading(clock_.now(), {x, y}, objects[i]));
    clock_.advance(util::msec(20));
    ingestBoth(makeReading(clock_.now(), {x + 0.5, y}, objects[i]));
    clock_.advance(util::msec(20));
  }

  // The spatial cluster actually spreads load: every shard ingested some.
  for (const auto& [token, host] : spaceHosts_) {
    EXPECT_GT(host->loadStats().ingestedReadings, 0u)
        << token << " owns territory but ingested nothing";
  }

  expectOracleEquivalence(objects, "pull");

  // Region probability: exact doubles, for every object against two regions.
  const auto corridor = geo::Rect::fromOrigin({40, 10}, 30, 25);
  for (const auto& name : objects) {
    MobileObjectId object{name};
    EXPECT_EQ(router_->probabilityInRegion(object, room),
              oracle_->probabilityInRegion(object, room))
        << name;
    EXPECT_EQ(router_->probabilityInRegion(object, corridor),
              oracle_->probabilityInRegion(object, corridor))
        << name;
  }

  // Region population: identical member lists in identical order, both for
  // a thresholded query (targeted) and for a census (minProbability 0
  // scatters everywhere).
  for (const geo::Rect& region : {room, corridor, universe()}) {
    EXPECT_EQ(router_->objectsInRegion(region, 0.5), oracle_->objectsInRegion(region, 0.5));
    EXPECT_EQ(router_->objectsInRegion(region, 0.0), oracle_->objectsInRegion(region, 0.0));
  }

  // Trigger parity: same notifications (object, fused probability), any
  // order — shards race each other but the multiset is determined.
  auto sorted = [](std::vector<std::pair<std::string, double>> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  {
    std::lock_guard lock(notifyMutex);
    EXPECT_FALSE(oracleNotifies.empty()) << "the world should have fired some triggers";
    EXPECT_EQ(sorted(spatialNotifies), sorted(oracleNotifies));
  }

  EXPECT_EQ(router_->stats().failedRoutedCalls, 0u);
  EXPECT_EQ(router_->stats().droppedIngestReadings, 0u);
}

TEST_F(ClusterSpatialTest, RegionQueriesTouchOnlyIntersectingShards) {
  startClusters({"a", "b", "c", "d"});
  std::vector<std::string> objects;
  for (int i = 0; i < 16; ++i) {
    objects.push_back("obj-" + std::to_string(i));
    const double x = 5.0 + static_cast<double>(i % 4) * 25.0;
    const double y = 5.0 + static_cast<double>(i / 4) * 12.0;
    ingestBoth(makeReading(clock_.now(), {x, y}, objects[i]));
    clock_.advance(util::msec(20));
  }

  // A query region strictly inside ONE leaf (with slack margin) must cost
  // exactly one shard call — the whole point of spatial partitioning.
  const TerritoryMap map = router_->territorySnapshot();
  ASSERT_EQ(map.leaves().size(), 4u);
  for (const auto& leaf : map.leaves()) {
    const auto region = geo::Rect::centeredSquare(leaf.rect.center(), 1.0);
    const auto before = router_->stats();
    const auto members = router_->objectsInRegion(region, 0.5);
    const auto after = router_->stats();
    EXPECT_EQ(after.targetedRegionQueries, before.targetedRegionQueries + 1);
    EXPECT_EQ(after.regionShardsQueried, before.regionShardsQueried + 1)
        << "a region inside " << leaf.owner << "'s territory must cost ONE shard call";
    EXPECT_EQ(members, oracle_->objectsInRegion(region, 0.5))
        << "targeting must not change the answer";
  }

  // The census path (minProbability <= 0) still scatters everywhere.
  const auto before = router_->stats();
  (void)router_->objectsInRegion(geo::Rect::centeredSquare({10, 10}, 1.0), 0.0);
  EXPECT_EQ(router_->stats().scatterGathers, before.scatterGathers + 1);

  // A region outside every territory short-circuits to an empty answer.
  const auto result = router_->objectsInRegionDetailed(geo::Rect::fromOrigin({400, 400}, 5, 5),
                                                       0.5);
  EXPECT_TRUE(result.members.empty());
  EXPECT_FALSE(result.degraded);
}

TEST_F(ClusterSpatialTest, BoundaryCrossingMigratesTheObjectUnderLiveIngest) {
  startClusters({"a", "b", "c", "d"});
  const TerritoryMap map = router_->territorySnapshot();

  // Pick two horizontally adjacent leaves to walk between.
  const TerritoryLeaf& fromLeaf = map.leafForPoint({1, 1});
  const geo::Point2 start = fromLeaf.rect.center();
  // The nearest other leaf's center: a short walk across one border.
  geo::Point2 goal = map.leafForPoint({99, 49}).rect.center();
  for (const auto& leaf : map.leaves()) {
    if (leaf.id == fromLeaf.id) continue;
    const geo::Point2 c = leaf.rect.center();
    const auto dist = [&](geo::Point2 p) {
      return (p.x - start.x) * (p.x - start.x) + (p.y - start.y) * (p.y - start.y);
    };
    if (dist(c) < dist(goal)) goal = c;
  }
  const std::string fromOwner = map.ownerForPoint(start);
  const std::string toOwner = map.ownerForPoint(goal);
  ASSERT_NE(fromOwner, toOwner);

  // A static background population plus live feeder traffic spanning the
  // whole migration — the handoff must not disturb either.
  std::vector<std::string> statics;
  for (int i = 0; i < 12; ++i) {
    statics.push_back("static-" + std::to_string(i));
    const double x = 4.0 + static_cast<double>(i % 6) * 16.0;
    const double y = 6.0 + static_cast<double>(i / 6) * 20.0;
    ingestBoth(makeReading(clock_.now(), {x, y}, statics[i]));
    clock_.advance(util::msec(20));
  }

  constexpr int kLiveObjects = 4;
  const auto frozenNow = clock_.now();
  std::atomic<bool> stopFeeder{false};
  std::atomic<int> fed{0};
  std::thread feeder([&] {
    for (int i = 0; !stopFeeder.load(std::memory_order_acquire); ++i) {
      const auto r = makeReading(frozenNow, {2.0 + i % 10, 3.0 + i % 4},
                                 "live-" + std::to_string(i % kLiveObjects));
      router_->ingest(r);
      oracle_->ingest(r);
      fed.fetch_add(1, std::memory_order_release);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (int i = 0; i < 5000 && fed.load(std::memory_order_acquire) < 20; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(fed.load(std::memory_order_acquire), 20);

  // The mover walks from `start` into `goal`'s territory. The crossing
  // reading is applied at the OLD home first, then the router migrates the
  // whole log — synchronously, under the feeder's live traffic.
  const std::string mover = "mover";
  ingestBoth(makeReading(clock_.now(), start, mover));
  EXPECT_EQ(residentTokens(mover), (std::vector<std::string>{fromOwner}));
  const int steps = 6;
  for (int s = 1; s <= steps; ++s) {
    clock_.advance(util::msec(30));
    const double t = static_cast<double>(s) / steps;
    const geo::Point2 p{start.x + (goal.x - start.x) * t, start.y + (goal.y - start.y) * t};
    ingestBoth(makeReading(clock_.now(), p, mover));
  }
  stopFeeder.store(true, std::memory_order_release);
  feeder.join();

  EXPECT_GE(router_->stats().objectMigrations, 1u);
  EXPECT_EQ(router_->movingObjects(), 0u) << "migrations are synchronous";
  // The mover's whole log now lives exactly at its new territory owner.
  EXPECT_EQ(residentTokens(mover), (std::vector<std::string>{toOwner}));

  // Exactness across the board: mover, statics and live objects all answer
  // byte-identically to the oracle.
  std::vector<std::string> all = statics;
  all.push_back(mover);
  for (int k = 0; k < kLiveObjects; ++k) all.push_back("live-" + std::to_string(k));
  expectOracleEquivalence(all, "post-crossing");
  EXPECT_EQ(router_->stats().droppedIngestReadings, 0u);

  // And fresh ingest keeps flowing to the new home.
  clock_.advance(util::msec(30));
  ingestBoth(makeReading(clock_.now(), goal, mover));
  expectOracleEquivalence({mover}, "post-crossing ingest");
}

TEST_F(ClusterSpatialTest, RebalanceSplitsHotLeafAndMigratesUnderLoad) {
  startClusters({"a", "b"});
  const TerritoryMap before = router_->territorySnapshot();
  ASSERT_EQ(before.leaves().size(), 2u);
  const TerritoryLeaf hotLeaf = before.leavesOf("a").front();

  // The split is a pure function of the map, so the half that will move is
  // known in advance — subscribe to a region inside it BEFORE the split to
  // prove the subscription spills onto the gainer with the territory.
  const TerritoryMap expected = before.splitLeaf(hotLeaf.id, "b");
  const geo::Rect movedRect = expected.leaves().back().rect;
  const auto subRegion = geo::Rect::centeredSquare(movedRect.center(), 1.5);
  ASSERT_TRUE(movedRect.contains(subRegion.inflated(8.0)))
      << "test geometry: the subscription must START on shard a only";
  std::mutex notifyMutex;
  std::vector<std::pair<std::string, double>> spatialNotifies;
  std::vector<std::pair<std::string, double>> oracleNotifies;
  (void)router_->subscribe(subRegion, std::nullopt, 0.1, [&](const core::Notification& n) {
    std::lock_guard lock(notifyMutex);
    spatialNotifies.emplace_back(n.object.str(), n.probability);
  });
  (void)oracle_->subscribe(subRegion, std::nullopt, 0.1, [&](const core::Notification& n) {
    std::lock_guard lock(notifyMutex);
    oracleNotifies.emplace_back(n.object.str(), n.probability);
  });

  // Load ALL the traffic onto a's territory: every reading lands in the
  // hot leaf, half of them inside the half that will split away.
  std::vector<std::string> objects;
  for (int i = 0; i < 24; ++i) {
    objects.push_back("hot-" + std::to_string(i));
    const double x = hotLeaf.rect.lo().x + 2.0 +
                     static_cast<double>(i % 6) * (hotLeaf.rect.width() - 4.0) / 5.0;
    const double y = hotLeaf.rect.lo().y + 2.0 +
                     static_cast<double>(i / 6) * (hotLeaf.rect.height() - 4.0) / 3.0;
    ingestBoth(makeReading(clock_.now(), {x, y}, objects[i]));
    clock_.advance(util::msec(20));
    ingestBoth(makeReading(clock_.now(), {x + 0.3, y}, objects[i]));
    clock_.advance(util::msec(20));
  }
  EXPECT_GT(spaceHosts_.at("a")->loadStats().ingestedReadings,
            spaceHosts_.at("b")->loadStats().ingestedReadings)
      << "the load skew the balancer should see";

  // Live traffic across the whole migration.
  const auto frozenNow = clock_.now();
  std::atomic<bool> stopFeeder{false};
  std::atomic<int> fed{0};
  std::thread feeder([&] {
    for (int i = 0; !stopFeeder.load(std::memory_order_acquire); ++i) {
      const double x = hotLeaf.rect.lo().x + 1.0 + i % 12;
      const double y = hotLeaf.rect.lo().y + 1.0 + i % 8;
      const auto r = makeReading(frozenNow, {x, y}, "live-" + std::to_string(i % 4));
      router_->ingest(r);
      oracle_->ingest(r);
      fed.fetch_add(1, std::memory_order_release);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (int i = 0; i < 5000 && fed.load(std::memory_order_acquire) < 20; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(fed.load(std::memory_order_acquire), 20);

  // One balancer pass: a is hot, b is cold — split a's leaf, hand the high
  // half to b, migrate its residents live.
  ASSERT_TRUE(router_->rebalanceOnce(/*hotColdRatio=*/2.0, /*minReadings=*/16))
      << "a carries all the load; the balancer must act";
  EXPECT_EQ(router_->stats().territorySplits, 1u);
  EXPECT_GE(router_->stats().objectMigrations, 1u);

  const TerritoryMap after = router_->territorySnapshot();
  EXPECT_EQ(after.leaves().size(), 3u);
  EXPECT_GT(after.version(), before.version());
  EXPECT_EQ(after.leaves().back().owner, "b") << "the new half belongs to the cold shard";
  // The new map is published: the registry carries the bumped version.
  core::RegistryClient meta("127.0.0.1", registry_->port());
  auto published = meta.getMeta(kTerritoryMetaName);
  ASSERT_TRUE(published.has_value());
  EXPECT_EQ(published->version, after.version());
  EXPECT_EQ(TerritoryMap::decode(published->value), after);

  stopFeeder.store(true, std::memory_order_release);
  feeder.join();

  // The split reset the heat counters; far below this floor, a second pass
  // must decline instead of splitting again.
  EXPECT_FALSE(router_->rebalanceOnce(2.0, 1u << 20));
  EXPECT_EQ(router_->stats().territorySplits, 1u);
  EXPECT_EQ(router_->movingObjects(), 0u);

  // Residency moved with the territory: every object whose evidence
  // centers in the moved half now lives on b, the rest stayed on a.
  for (const auto& name : objects) {
    const auto est = oracle_->locate(MobileObjectId{name});
    ASSERT_TRUE(est.has_value()) << name;
  }
  std::size_t movedCount = 0;
  for (int i = 0; i < 24; ++i) {
    const double x = hotLeaf.rect.lo().x + 2.0 +
                     static_cast<double>(i % 6) * (hotLeaf.rect.width() - 4.0) / 5.0;
    const double y = hotLeaf.rect.lo().y + 2.0 +
                     static_cast<double>(i / 6) * (hotLeaf.rect.height() - 4.0) / 3.0;
    // The second reading shifted +0.3 in x; use the LAST evidence center.
    const geo::Point2 lastCenter{x + 0.3, y};
    const std::string expectedOwner = movedRect.contains(lastCenter) ? "b" : "a";
    if (expectedOwner == "b") ++movedCount;
    EXPECT_EQ(residentTokens(objects[i]), (std::vector<std::string>{expectedOwner}))
        << objects[i];
  }
  EXPECT_GT(movedCount, 0u) << "the split should actually move some residents";

  // Exactness under and after migration: every object, moved or kept,
  // answers byte-identically to the oracle.
  std::vector<std::string> all = objects;
  for (int k = 0; k < 4; ++k) all.push_back("live-" + std::to_string(k));
  expectOracleEquivalence(all, "post-rebalance");
  EXPECT_EQ(router_->stats().droppedIngestReadings, 0u);

  // The spilled subscription is live on the gainer: a fresh object walking
  // into the moved half fires the trigger on the cluster and the oracle
  // identically.
  clock_.advance(util::msec(50));
  ingestBoth(makeReading(clock_.now(), subRegion.center(), "visitor"));
  auto sorted = [](std::vector<std::pair<std::string, double>> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  {
    std::lock_guard lock(notifyMutex);
    std::vector<std::pair<std::string, double>> spatialCopy;
    std::vector<std::pair<std::string, double>> oracleCopy;
    spatialCopy = spatialNotifies;
    oracleCopy = oracleNotifies;
    EXPECT_FALSE(oracleCopy.empty()) << "the visitor must fire the trigger";
    EXPECT_EQ(sorted(spatialCopy), sorted(oracleCopy))
        << "the subscription must have spilled onto the gainer with its territory";
  }
}

TEST_F(ClusterSpatialTest, BoundaryCrossingMigratesBackAndForthOnBoundedResources) {
  // One object shuttling across a 2-shard border: every crossing is a
  // migration, but the losing side's sessions towards one gainer share one
  // connection, and a session whose last object migrates back is retired.
  startClusters({"a", "b"});
  const TerritoryMap map = router_->territorySnapshot();
  const geo::Point2 west = map.leavesOf("a").front().rect.center();
  const geo::Point2 east = map.leavesOf("b").front().rect.center();
  // A resident on each side first, so the router already holds its
  // connection to both shards when the baseline is taken.
  ingestBoth(makeReading(clock_.now(), west, "west-resident"));
  ingestBoth(makeReading(clock_.now(), east, "east-resident"));
  ingestBoth(makeReading(clock_.now(), west, "shuttle"));
  std::map<std::string, std::size_t> baseline;
  for (const auto& [token, host] : spaceHosts_) {
    baseline[token] = host->core().rpcServer().connectionCount();
  }

  constexpr int kCrossings = 40;
  for (int crossing = 1; crossing <= kCrossings; ++crossing) {
    clock_.advance(util::msec(20));
    ingestBoth(makeReading(clock_.now(), crossing % 2 == 1 ? east : west, "shuttle"));
    for (const auto& [token, host] : spaceHosts_) {
      EXPECT_LE(host->migrationSessions(), 1u) << token << " after crossing " << crossing;
    }
  }
  EXPECT_EQ(router_->stats().objectMigrations, static_cast<std::uint64_t>(kCrossings));
  for (const auto& [token, host] : spaceHosts_) {
    EXPECT_LE(host->core().rpcServer().connectionCount(), baseline[token] + 1)
        << token << ": one pooled migration connection, not one per crossing";
  }
  EXPECT_EQ(residentTokens("shuttle"), (std::vector<std::string>{"a"}));
  expectOracleEquivalence({"shuttle", "west-resident", "east-resident"}, "after the shuttle");
}

TEST_F(ClusterSpatialTest, BalancerDaemonSplitsInTheBackgroundAndStopsCleanly) {
  startClusters({"a", "b"});
  const TerritoryMap before = router_->territorySnapshot();
  const TerritoryLeaf hotLeaf = before.leavesOf("a").front();
  EXPECT_FALSE(router_->balancerRunning());

  // All the load on a's territory — the same skew the one-shot rebalance
  // test drives by hand, here left for the daemon to discover on its own.
  for (int i = 0; i < 24; ++i) {
    const double x = hotLeaf.rect.lo().x + 2.0 +
                     static_cast<double>(i % 6) * (hotLeaf.rect.width() - 4.0) / 5.0;
    const double y = hotLeaf.rect.lo().y + 2.0 +
                     static_cast<double>(i / 6) * (hotLeaf.rect.height() - 4.0) / 3.0;
    ingestBoth(makeReading(clock_.now(), {x, y}, "hot-" + std::to_string(i)));
    clock_.advance(util::msec(20));
  }

  router_->startBalancer(std::chrono::milliseconds(5), /*hotColdRatio=*/2.0,
                         /*minReadings=*/16);
  EXPECT_TRUE(router_->balancerRunning());
  // Idempotent: re-start updates parameters instead of spawning twice.
  router_->startBalancer(std::chrono::milliseconds(5), 2.0, 16);

  // The daemon must notice the skew and split without any manual
  // rebalanceOnce call.
  for (int i = 0; i < 2000 && router_->stats().territorySplits == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(router_->stats().territorySplits, 1u)
      << "the background balancer should have split the hot leaf";
  EXPECT_GE(router_->balancerPasses(), 1u);

  // Once balanced, further passes decline but keep counting — the daemon
  // keeps watching rather than acting.
  const std::uint64_t passesAtSplit = router_->balancerPasses();
  for (int i = 0; i < 2000 && router_->balancerPasses() <= passesAtSplit; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(router_->balancerPasses(), passesAtSplit);
  EXPECT_EQ(router_->stats().territorySplits, 1u) << "heat reset: no repeat split";

  router_->stopBalancer();
  EXPECT_FALSE(router_->balancerRunning());
  const std::uint64_t passesAtStop = router_->balancerPasses();
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  EXPECT_EQ(router_->balancerPasses(), passesAtStop) << "stopped means stopped";
  router_->stopBalancer();  // idempotent

  // The daemon's split behaves exactly like a manual one: answers still
  // match the oracle byte-for-byte.
  std::vector<std::string> all;
  for (int i = 0; i < 24; ++i) all.push_back("hot-" + std::to_string(i));
  expectOracleEquivalence(all, "post-daemon-rebalance");
}

}  // namespace
}  // namespace mw::cluster

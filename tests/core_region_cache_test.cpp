// Region population cache (the second cache level): objectsInRegion memoizes
// the population per (region, minProbability) key and revalidates members by
// readings epoch, so repolling an N-person region re-fuses only the objects
// that actually changed. These tests pin the invalidation edges: member epoch
// bumps, TTL expiry, sensor (de)registration, spatial-object insert/delete and
// population appear/disappear, asserted through the hit/miss/revalidation
// counters and the per-object fusion-cache counters underneath. A cached
// population survives structural change: discovery runs on every poll, so a
// poll after any of these edges is a hit whose revalidation count is the
// number of members whose epoch moved (plus candidates new to the region).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/location_service.hpp"
#include "util/error.hpp"

namespace mw::core {
namespace {

using mw::util::minutes;
using mw::util::MobileObjectId;
using mw::util::msec;
using mw::util::sec;
using mw::util::SensorId;
using mw::util::VirtualClock;

// Same world as core_service_test: floor (0,0)-(100,50), rooms A and B,
// two long-TTL Ubisense sensors plus one short-TTL badge sensor so TTL
// expiry can hit one member while the rest of the population stays fresh.
struct Fixture {
  VirtualClock clock;
  db::SpatialDatabase db;
  LocationService service;

  static constexpr double kRoomSide = 20;

  Fixture() : db(makeDb(clock)), service(clock, db) {}

  static db::SpatialDatabase makeDb(const util::Clock& clock) {
    db::SpatialDatabase database(clock, geo::Rect::fromOrigin({0, 0}, 100, 50), "SC");
    auto addRoom = [&](const char* id, geo::Rect r) {
      db::SpatialObjectRow row;
      row.id = util::SpatialObjectId{id};
      row.globPrefix = "SC";
      row.objectType = db::ObjectType::Room;
      row.geometryType = db::GeometryType::Polygon;
      row.points = {r.lo(), {r.hi().x, r.lo().y}, r.hi(), {r.lo().x, r.hi().y}};
      database.addObject(row);
    };
    addRoom("roomA", roomA());
    addRoom("roomB", roomB());

    db::SensorMeta ubi;
    ubi.sensorId = SensorId{"ubi-1"};
    ubi.sensorType = "Ubisense";
    ubi.errorSpec = quality::ubisenseSpec(1.0);
    ubi.scaleMisidentifyByArea = true;
    ubi.quality.ttl = sec(30);
    database.registerSensor(ubi);
    db::SensorMeta ubi2 = ubi;
    ubi2.sensorId = SensorId{"ubi-2"};
    database.registerSensor(ubi2);
    db::SensorMeta badge = ubi;
    badge.sensorId = SensorId{"badge-1"};
    badge.quality.ttl = sec(2);  // expires long before the Ubisense readings
    database.registerSensor(badge);
    return database;
  }

  static geo::Rect roomA() { return geo::Rect::fromOrigin({0, 0}, kRoomSide, kRoomSide); }
  static geo::Rect roomB() { return geo::Rect::fromOrigin({40, 0}, kRoomSide, kRoomSide); }

  db::SensorReading reading(const char* sensor, const char* person, geo::Point2 where,
                            double radius = 0.5) {
    db::SensorReading r;
    r.sensorId = SensorId{sensor};
    r.sensorType = "Ubisense";
    r.mobileObjectId = MobileObjectId{person};
    r.location = where;
    r.detectionRadius = radius;
    r.detectionTime = clock.now();
    return r;
  }

  void resetAllCounters() {
    service.resetFusionCacheCounters();
    service.resetRegionCacheCounters();
  }
};

bool contains(const std::vector<std::pair<MobileObjectId, double>>& population,
              const char* person) {
  for (const auto& [who, p] : population) {
    if (who == MobileObjectId{person}) return true;
  }
  return false;
}

TEST(RegionCacheTest, RepeatPollHitsCache) {
  Fixture f;
  f.service.ingest(f.reading("ubi-1", "alice", {5, 5}));
  f.service.ingest(f.reading("ubi-1", "bob", {10, 10}));
  f.resetAllCounters();

  auto first = f.service.objectsInRegion(Fixture::roomA(), 0.5);
  EXPECT_EQ(f.service.regionCacheMisses(), 1u);
  EXPECT_EQ(f.service.regionCacheHits(), 0u);
  ASSERT_EQ(first.size(), 2u);

  auto second = f.service.objectsInRegion(Fixture::roomA(), 0.5);
  EXPECT_EQ(f.service.regionCacheMisses(), 1u);
  EXPECT_EQ(f.service.regionCacheHits(), 1u);
  EXPECT_EQ(f.service.regionCacheRevalidations(), 0u);
  EXPECT_EQ(first, second);

  // A different threshold is a different key: its own miss, not a hit.
  (void)f.service.objectsInRegion(Fixture::roomA(), 0.2);
  EXPECT_EQ(f.service.regionCacheMisses(), 2u);
}

TEST(RegionCacheTest, MovedMemberRevalidatesAlone) {
  Fixture f;
  f.service.ingest(f.reading("ubi-1", "alice", {5, 5}));
  f.service.ingest(f.reading("ubi-1", "bob", {10, 10}));
  f.service.ingest(f.reading("ubi-1", "carol", {15, 15}));
  auto warm = f.service.objectsInRegion(Fixture::roomA(), 0.5);
  ASSERT_EQ(warm.size(), 3u);

  // One of three moves: the repoll must re-fuse exactly that one member.
  f.service.ingest(f.reading("ubi-1", "alice", {6, 6}));
  f.resetAllCounters();
  auto population = f.service.objectsInRegion(Fixture::roomA(), 0.5);
  EXPECT_EQ(f.service.regionCacheHits(), 1u);
  EXPECT_EQ(f.service.regionCacheMisses(), 0u);
  EXPECT_EQ(f.service.regionCacheRevalidations(), 1u);
  EXPECT_EQ(f.service.fusionCacheMisses(), 1u);  // alice, and only alice
  EXPECT_EQ(population.size(), 3u);
}

TEST(RegionCacheTest, TtlExpiryRevalidatesOnlyTheExpiredMember) {
  Fixture f;
  // Both of bob's legs matter: the badge reading expires at 2 s, the
  // Ubisense one keeps him in the population, so expiry changes his epoch
  // without shrinking the population (a hit that re-fuses bob alone).
  f.service.setFusionCacheTolerance(minutes(10));
  f.service.ingest(f.reading("ubi-1", "alice", {5, 5}));
  f.service.ingest(f.reading("ubi-1", "bob", {10, 10}));
  f.service.ingest(f.reading("badge-1", "bob", {10, 10}));
  (void)f.service.objectsInRegion(Fixture::roomA(), 0.5);

  f.clock.advance(sec(5));  // past badge TTL, within Ubisense TTL
  f.resetAllCounters();
  auto population = f.service.objectsInRegion(Fixture::roomA(), 0.5);
  EXPECT_EQ(f.service.regionCacheHits(), 1u);
  EXPECT_EQ(f.service.regionCacheMisses(), 0u);
  EXPECT_EQ(f.service.regionCacheRevalidations(), 1u);  // bob, and only bob
  EXPECT_EQ(f.service.fusionCacheMisses(), 1u);
  EXPECT_EQ(population.size(), 2u);
}

TEST(RegionCacheTest, SpatialObjectInsertRebuildsWithoutRefusing) {
  Fixture f;
  f.service.ingest(f.reading("ubi-1", "alice", {5, 5}));
  f.service.ingest(f.reading("ubi-1", "bob", {10, 10}));
  (void)f.service.objectsInRegion(Fixture::roomA(), 0.5);

  // A new spatial object moves the catalog epoch but no member's readings
  // epoch: the cached population still answers, with nothing re-fused and
  // no trip to the first cache level.
  db::SpatialObjectRow desk;
  desk.id = util::SpatialObjectId{"desk-1"};
  desk.globPrefix = "SC";
  desk.objectType = db::ObjectType::Other;
  desk.geometryType = db::GeometryType::Point;
  desk.points = {{3, 3}};
  f.db.addObject(desk);

  f.resetAllCounters();
  auto population = f.service.objectsInRegion(Fixture::roomA(), 0.5);
  EXPECT_EQ(f.service.regionCacheMisses(), 0u);
  EXPECT_EQ(f.service.regionCacheHits(), 1u);
  EXPECT_EQ(f.service.regionCacheRevalidations(), 0u);  // no member epoch moved
  EXPECT_EQ(f.service.fusionCacheMisses(), 0u);         // epochs unchanged: L1 warm
  EXPECT_EQ(f.service.fusionCacheHits(), 0u);           // ... and not even consulted
  EXPECT_EQ(population.size(), 2u);

  // Deleting it bumps the catalog again: one more hit, still no fusion.
  ASSERT_TRUE(f.db.removeObject("SC", util::SpatialObjectId{"desk-1"}));
  (void)f.service.objectsInRegion(Fixture::roomA(), 0.5);
  EXPECT_EQ(f.service.regionCacheMisses(), 0u);
  EXPECT_EQ(f.service.regionCacheHits(), 2u);
  EXPECT_EQ(f.service.regionCacheRevalidations(), 0u);
  EXPECT_EQ(f.service.fusionCacheMisses(), 0u);
}

TEST(RegionCacheTest, SensorDeregistrationForcesFullRefusion) {
  Fixture f;
  f.service.ingest(f.reading("ubi-1", "alice", {5, 5}));
  f.service.ingest(f.reading("ubi-1", "bob", {10, 10}));
  (void)f.service.objectsInRegion(Fixture::roomA(), 0.5);

  // Dropping a sensor changes the evidence model for every object (its
  // readings must stop contributing), so the meta epoch shift moves every
  // member's readings epoch: the poll is a hit that re-fuses every member.
  ASSERT_TRUE(f.db.deregisterSensor(SensorId{"badge-1"}));
  f.resetAllCounters();
  auto population = f.service.objectsInRegion(Fixture::roomA(), 0.5);
  EXPECT_EQ(f.service.regionCacheMisses(), 0u);
  EXPECT_EQ(f.service.regionCacheHits(), 1u);
  EXPECT_EQ(f.service.regionCacheRevalidations(), 2u);  // both epochs moved
  EXPECT_EQ(f.service.fusionCacheMisses(), 2u);         // alice and bob both re-fuse
  EXPECT_EQ(population.size(), 2u);

  EXPECT_FALSE(f.db.deregisterSensor(SensorId{"badge-1"}));  // already gone
}

TEST(RegionCacheTest, NewObjectAppearingInvalidates) {
  Fixture f;
  f.service.ingest(f.reading("ubi-1", "alice", {5, 5}));
  (void)f.service.objectsInRegion(Fixture::roomA(), 0.5);

  // First reading for a new object grows the mobile population. A cached
  // "who is in room A" answer that predates dave cannot contain him, but
  // discovery runs on every poll: dave is found as a new candidate and fused
  // alone, while alice (epoch unchanged) is reused — a hit, not a rebuild.
  f.service.ingest(f.reading("ubi-1", "dave", {8, 8}));
  f.resetAllCounters();
  auto population = f.service.objectsInRegion(Fixture::roomA(), 0.5);
  EXPECT_EQ(f.service.regionCacheMisses(), 0u);
  EXPECT_EQ(f.service.regionCacheHits(), 1u);
  EXPECT_EQ(f.service.regionCacheRevalidations(), 1u);  // dave, and only dave
  EXPECT_TRUE(contains(population, "dave"));
  EXPECT_TRUE(contains(population, "alice"));
}

TEST(RegionCacheTest, MovedAwayMemberDropsOutOnRevalidation) {
  Fixture f;
  f.service.setFusionCacheTolerance(minutes(10));
  f.service.ingest(f.reading("ubi-1", "alice", {5, 5}));
  f.service.ingest(f.reading("ubi-1", "bob", {45, 5}));  // room B: never a candidate
  auto before = f.service.objectsInRegion(Fixture::roomA(), 0.5);
  ASSERT_EQ(before.size(), 1u);
  EXPECT_TRUE(contains(before, "alice"));

  // Alice walks to room B, spotted by the OTHER sensor (so her stale room-A
  // reading stays stored and she remains a discovery candidate); the fresher
  // reading wins conflict resolution and her room-A probability collapses.
  f.clock.advance(sec(5));
  f.service.ingest(f.reading("ubi-2", "alice", {45, 6}));
  f.resetAllCounters();
  auto after = f.service.objectsInRegion(Fixture::roomA(), 0.5);
  EXPECT_FALSE(contains(after, "alice"));
  // She was still a candidate (her stale room-A evidence box intersects), so
  // this is a hit that re-fused her — not a rebuild.
  EXPECT_EQ(f.service.regionCacheHits(), 1u);
  EXPECT_EQ(f.service.regionCacheRevalidations(), 1u);

  auto roomB = f.service.objectsInRegion(Fixture::roomB(), 0.5);
  EXPECT_TRUE(contains(roomB, "alice"));
  EXPECT_TRUE(contains(roomB, "bob"));
}

TEST(RegionCacheTest, GlobKeyedPollSharesTheRectCache) {
  Fixture f;
  f.service.ingest(f.reading("ubi-1", "alice", {5, 5}));
  f.resetAllCounters();

  auto byName = f.service.objectsInRegion("SC/roomA", 0.5);
  EXPECT_EQ(f.service.regionCacheMisses(), 1u);
  ASSERT_EQ(byName.size(), 1u);

  // The glob resolves to the same universe MBR, so the rect overload lands
  // on the same cache entry.
  auto byRect = f.service.objectsInRegion(Fixture::roomA(), 0.5);
  EXPECT_EQ(f.service.regionCacheHits(), 1u);
  EXPECT_EQ(byName, byRect);

  EXPECT_THROW((void)f.service.objectsInRegion("SC/no-such-room", 0.5),
               mw::util::NotFoundError);
}

TEST(RegionCacheTest, CapacityBoundsEntriesAndEvictionMisses) {
  Fixture f;
  f.service.setRegionCacheCapacity(1);
  f.service.ingest(f.reading("ubi-1", "alice", {5, 5}));
  f.service.ingest(f.reading("ubi-1", "bob", {45, 5}));
  f.resetAllCounters();

  (void)f.service.objectsInRegion(Fixture::roomA(), 0.5);  // miss, cached
  (void)f.service.objectsInRegion(Fixture::roomB(), 0.5);  // miss, evicts A
  (void)f.service.objectsInRegion(Fixture::roomA(), 0.5);  // miss again
  EXPECT_EQ(f.service.regionCacheMisses(), 3u);
  EXPECT_EQ(f.service.regionCacheHits(), 0u);
}

TEST(RegionCacheTest, ExplicitInvalidationFlushesBothLevels) {
  Fixture f;
  f.service.ingest(f.reading("ubi-1", "alice", {5, 5}));
  (void)f.service.objectsInRegion(Fixture::roomA(), 0.5);

  // invalidateFusionCache drops the fused states the region members point
  // at, so it must flush the region cache too — a member whose state is
  // gone from L1 can't be "fresh".
  f.service.invalidateFusionCache();
  f.resetAllCounters();
  (void)f.service.objectsInRegion(Fixture::roomA(), 0.5);
  EXPECT_EQ(f.service.regionCacheMisses(), 1u);
  EXPECT_EQ(f.service.fusionCacheMisses(), 1u);

  // invalidateRegionCache alone keeps L1 warm.
  f.service.invalidateRegionCache();
  f.resetAllCounters();
  (void)f.service.objectsInRegion(Fixture::roomA(), 0.5);
  EXPECT_EQ(f.service.regionCacheMisses(), 1u);
  EXPECT_EQ(f.service.fusionCacheMisses(), 0u);
  EXPECT_EQ(f.service.fusionCacheHits(), 1u);
}

// Exercised under TSan in CI: region polls racing batch ingest and sensor
// (de)registration must stay data-race free and conservatively fresh.
TEST(RegionCacheTest, PollsConcurrentWithBatchIngest) {
  Fixture f;
  constexpr int kPeople = 8;
  std::vector<db::SensorReading> seed;
  for (int i = 0; i < kPeople; ++i) {
    seed.push_back(f.reading("ubi-1", ("p" + std::to_string(i)).c_str(),
                             {2.0 + static_cast<double>(i), 5.0}));
  }
  f.service.ingestBatch(seed);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int round = 0; round < 50; ++round) {
      std::vector<db::SensorReading> batch;
      for (int i = 0; i < kPeople; ++i) {
        batch.push_back(f.reading(i % 2 ? "ubi-1" : "ubi-2",
                                  ("p" + std::to_string(i)).c_str(),
                                  {2.0 + static_cast<double>((i + round) % 16), 5.0}));
      }
      f.service.ingestBatch(batch);
    }
    stop.store(true);
  });
  std::vector<std::thread> pollers;
  for (int t = 0; t < 3; ++t) {
    pollers.emplace_back([&] {
      while (!stop.load()) {
        auto population = f.service.objectsInRegion(Fixture::roomA(), 0.2);
        EXPECT_LE(population.size(), static_cast<std::size_t>(kPeople));
      }
    });
  }
  writer.join();
  for (auto& t : pollers) t.join();

  // Quiescent repoll: every member fresh, nothing re-fused.
  (void)f.service.objectsInRegion(Fixture::roomA(), 0.2);
  f.resetAllCounters();
  (void)f.service.objectsInRegion(Fixture::roomA(), 0.2);
  EXPECT_EQ(f.service.regionCacheHits(), 1u);
  EXPECT_EQ(f.service.regionCacheRevalidations(), 0u);
}

}  // namespace
}  // namespace mw::core

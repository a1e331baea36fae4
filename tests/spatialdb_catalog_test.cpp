// Catalog epoch + evidence boxes: the structural version for callers that
// cache catalog-derived answers, and the per-object evidence boxes that
// candidate discovery scans. Pins every bump site — spatial-object
// insert/delete, sensor (de)registration, mobile population appear/disappear
// — and the conservative-superset contract of mobileObjectsIntersecting.
#include "spatialdb/database.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "quality/error_model.hpp"

namespace mw::db {
namespace {

using mw::util::MobileObjectId;
using mw::util::sec;
using mw::util::SensorId;
using mw::util::VirtualClock;

struct Fixture {
  VirtualClock clock;
  SpatialDatabase db;

  Fixture() : db(clock, geo::Rect::fromOrigin({0, 0}, 100, 50), "SC") {
    SensorMeta ubi;
    ubi.sensorId = SensorId{"ubi-1"};
    ubi.sensorType = "Ubisense";
    ubi.errorSpec = quality::ubisenseSpec(1.0);
    ubi.quality.ttl = sec(30);
    db.registerSensor(ubi);
  }

  SensorReading reading(const char* person, geo::Point2 where, const char* sensor = "ubi-1") {
    SensorReading r;
    r.sensorId = SensorId{sensor};
    r.sensorType = "Ubisense";
    r.mobileObjectId = MobileObjectId{person};
    r.location = where;
    r.detectionRadius = 0.5;
    r.detectionTime = clock.now();
    return r;
  }

  SpatialObjectRow room(const char* id, geo::Rect r) {
    SpatialObjectRow row;
    row.id = util::SpatialObjectId{id};
    row.globPrefix = "SC";
    row.objectType = ObjectType::Room;
    row.geometryType = GeometryType::Polygon;
    row.points = {r.lo(), {r.hi().x, r.lo().y}, r.hi(), {r.lo().x, r.hi().y}};
    return row;
  }
};

bool lists(const std::vector<MobileObjectId>& ids, const char* person) {
  return std::find(ids.begin(), ids.end(), MobileObjectId{person}) != ids.end();
}

TEST(CatalogEpochTest, SpatialObjectInsertAndDeleteBump) {
  Fixture f;
  const auto e0 = f.db.catalogEpoch();
  f.db.addObject(f.room("roomA", geo::Rect::fromOrigin({0, 0}, 20, 20)));
  const auto e1 = f.db.catalogEpoch();
  EXPECT_GT(e1, e0);
  ASSERT_TRUE(f.db.removeObject("SC", util::SpatialObjectId{"roomA"}));
  EXPECT_GT(f.db.catalogEpoch(), e1);
  // Removing a row that is not there is not a structural change.
  const auto e2 = f.db.catalogEpoch();
  EXPECT_FALSE(f.db.removeObject("SC", util::SpatialObjectId{"roomA"}));
  EXPECT_EQ(f.db.catalogEpoch(), e2);
}

TEST(CatalogEpochTest, SensorRegistrationAndDeregistrationBump) {
  Fixture f;
  const auto e0 = f.db.catalogEpoch();
  SensorMeta badge;
  badge.sensorId = SensorId{"badge-1"};
  badge.sensorType = "Badge";
  badge.errorSpec = quality::ubisenseSpec(1.0);
  badge.quality.ttl = sec(5);
  f.db.registerSensor(badge);
  const auto e1 = f.db.catalogEpoch();
  EXPECT_GT(e1, e0);

  EXPECT_TRUE(f.db.deregisterSensor(SensorId{"badge-1"}));
  EXPECT_GT(f.db.catalogEpoch(), e1);
  const auto e2 = f.db.catalogEpoch();
  EXPECT_FALSE(f.db.deregisterSensor(SensorId{"badge-1"}));
  EXPECT_EQ(f.db.catalogEpoch(), e2);
}

TEST(CatalogEpochTest, DeregistrationBumpsEveryObjectsReadingsEpoch) {
  Fixture f;
  f.db.insertReading(f.reading("alice", {5, 5}));
  const auto alice = f.db.readingsEpoch(MobileObjectId{"alice"});
  ASSERT_TRUE(f.db.deregisterSensor(SensorId{"ubi-1"}));
  // Meta epoch shift: per-object fused states keyed on the old value die.
  EXPECT_NE(f.db.readingsEpoch(MobileObjectId{"alice"}), alice);
}

TEST(CatalogEpochTest, PopulationGrowthBumpsOncePerNewObject) {
  Fixture f;
  const auto e0 = f.db.catalogEpoch();
  f.db.insertReading(f.reading("alice", {5, 5}));
  const auto e1 = f.db.catalogEpoch();
  EXPECT_GT(e1, e0);  // first-ever reading for alice: population grew
  // A later reading for the same object moves HER epoch, not the catalog.
  f.db.insertReading(f.reading("alice", {6, 6}));
  EXPECT_EQ(f.db.catalogEpoch(), e1);
}

TEST(CatalogEpochTest, PopulationShrinkOnPurgeBumps) {
  Fixture f;
  f.db.insertReading(f.reading("alice", {5, 5}));
  const auto e0 = f.db.catalogEpoch();
  f.clock.advance(sec(60));  // far past the 30 s TTL
  f.db.purgeExpired();
  EXPECT_GT(f.db.catalogEpoch(), e0);
  EXPECT_TRUE(f.db.mobileObjectsIntersecting(geo::Rect::fromOrigin({0, 0}, 100, 50)).empty());
}

TEST(CatalogEpochTest, MobileObjectsIntersectingFindsEvidenceBoxes) {
  Fixture f;
  f.db.insertReading(f.reading("alice", {5, 5}));
  f.db.insertReading(f.reading("bob", {45, 5}));

  const geo::Rect roomA = geo::Rect::fromOrigin({0, 0}, 20, 20);
  auto inA = f.db.mobileObjectsIntersecting(roomA);
  EXPECT_TRUE(lists(inA, "alice"));
  EXPECT_FALSE(lists(inA, "bob"));

  auto everyone = f.db.mobileObjectsIntersecting(geo::Rect::fromOrigin({0, 0}, 100, 50));
  EXPECT_EQ(everyone.size(), 2u);

  // The box is the UNION of an object's evidence: a second sighting widens
  // it, so bob now matches room A queries too (conservative superset — the
  // fusion layer, not discovery, decides his actual probability).
  f.db.insertReading(f.reading("bob", {10, 10}, "ubi-1"));
  EXPECT_TRUE(lists(f.db.mobileObjectsIntersecting(roomA), "bob"));
}

TEST(CatalogEpochTest, StaleEvidenceKeepsCandidatesUntilStorageExpiry) {
  Fixture f;
  f.db.insertReading(f.reading("alice", {5, 5}));
  f.clock.advance(sec(60));  // reading is past TTL but still stored
  // Discovery stays conservative: the lazily-expired box still matches...
  EXPECT_TRUE(lists(f.db.mobileObjectsIntersecting(geo::Rect::fromOrigin({0, 0}, 20, 20)),
                    "alice"));
  // ...until storage reclamation actually removes the reading.
  f.db.purgeExpired();
  EXPECT_FALSE(lists(f.db.mobileObjectsIntersecting(geo::Rect::fromOrigin({0, 0}, 20, 20)),
                     "alice"));
}

}  // namespace
}  // namespace mw::db

// Mobile evidence discovery and the evidence revision: the per-object
// evidence boxes that candidate discovery scans (appear/disappear is a
// discovery answer, not a counter), the revision that moves on every
// evidence change other than an append — drop, forced expiry, purge, sensor
// (de)registration — and the next-evidence-change instant density rules
// schedule on. Pins the conservative-superset contract of
// mobileObjectsIntersecting.
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

TEST(EvidenceDiscoveryTest, SpatialObjectRowsLeaveEvidenceAlone) {
  Fixture f;
  f.db.insertReading(f.reading("alice", {5, 5}));
  const auto r0 = f.db.evidenceRevision();
  f.db.addObject(f.room("roomA", geo::Rect::fromOrigin({0, 0}, 20, 20)));
  ASSERT_TRUE(f.db.removeObject("SC", util::SpatialObjectId{"roomA"}));
  // Catalog rows are not mobile evidence: nothing moves and discovery is
  // unchanged.
  EXPECT_EQ(f.db.evidenceRevision(), r0);
  EXPECT_TRUE(lists(f.db.mobileObjectsIntersecting(geo::Rect::fromOrigin({0, 0}, 20, 20)),
                    "alice"));
}

TEST(EvidenceDiscoveryTest, SensorRegistrationAndDeregistrationBump) {
  Fixture f;
  const auto r0 = f.db.evidenceRevision();
  SensorMeta badge;
  badge.sensorId = SensorId{"badge-1"};
  badge.sensorType = "Badge";
  badge.errorSpec = quality::ubisenseSpec(1.0);
  badge.quality.ttl = sec(5);
  f.db.registerSensor(badge);
  const auto r1 = f.db.evidenceRevision();
  EXPECT_GT(r1, r0);

  EXPECT_TRUE(f.db.deregisterSensor(SensorId{"badge-1"}));
  EXPECT_GT(f.db.evidenceRevision(), r1);
  const auto r2 = f.db.evidenceRevision();
  EXPECT_FALSE(f.db.deregisterSensor(SensorId{"badge-1"}));
  EXPECT_EQ(f.db.evidenceRevision(), r2);
}

TEST(EvidenceDiscoveryTest, DeregistrationBumpsEveryObjectsReadingsEpoch) {
  Fixture f;
  f.db.insertReading(f.reading("alice", {5, 5}));
  const auto alice = f.db.readingsEpoch(MobileObjectId{"alice"});
  ASSERT_TRUE(f.db.deregisterSensor(SensorId{"ubi-1"}));
  // Meta epoch shift: per-object fused states keyed on the old value die.
  EXPECT_NE(f.db.readingsEpoch(MobileObjectId{"alice"}), alice);
}

TEST(EvidenceDiscoveryTest, NewObjectsAreDiscoveredWithoutARevisionBump) {
  Fixture f;
  const geo::Rect everywhere = geo::Rect::fromOrigin({0, 0}, 100, 50);
  EXPECT_TRUE(f.db.mobileObjectsIntersecting(everywhere).empty());
  const auto r0 = f.db.evidenceRevision();
  f.db.insertReading(f.reading("alice", {5, 5}));
  // Appearing is found by discovery itself; appends never move the
  // revision, whether an object's first reading or a later one.
  EXPECT_TRUE(lists(f.db.mobileObjectsIntersecting(everywhere), "alice"));
  f.db.insertReading(f.reading("alice", {6, 6}));
  EXPECT_EQ(f.db.mobileObjectsIntersecting(everywhere).size(), 1u);
  EXPECT_EQ(f.db.evidenceRevision(), r0);
}

TEST(EvidenceDiscoveryTest, PurgeDropAndForcedExpiryDisappearAndBump) {
  Fixture f;
  const geo::Rect everywhere = geo::Rect::fromOrigin({0, 0}, 100, 50);
  f.db.insertReading(f.reading("alice", {5, 5}));
  f.db.insertReading(f.reading("bob", {45, 5}));
  f.db.insertReading(f.reading("carol", {80, 5}));

  auto r = f.db.evidenceRevision();
  f.db.purgeExpired();  // nothing expired: no change, no bump
  EXPECT_EQ(f.db.evidenceRevision(), r);

  ASSERT_TRUE(f.db.dropMobileObject(MobileObjectId{"bob"}));
  EXPECT_GT(f.db.evidenceRevision(), r);
  EXPECT_FALSE(lists(f.db.mobileObjectsIntersecting(everywhere), "bob"));

  r = f.db.evidenceRevision();
  f.db.expireReadings(MobileObjectId{"carol"}, SensorId{"ubi-1"});
  EXPECT_GT(f.db.evidenceRevision(), r);
  EXPECT_FALSE(lists(f.db.mobileObjectsIntersecting(everywhere), "carol"));

  r = f.db.evidenceRevision();
  f.clock.advance(sec(60));  // far past the 30 s TTL
  f.db.purgeExpired();
  EXPECT_GT(f.db.evidenceRevision(), r);
  EXPECT_TRUE(f.db.mobileObjectsIntersecting(everywhere).empty());
}

TEST(EvidenceDiscoveryTest, NextEvidenceChangeIsTheTtlBoundaryOrTheNextTick) {
  Fixture f;
  const MobileObjectId alice{"alice"};
  EXPECT_EQ(f.db.nextEvidenceChange(alice), util::TimePoint::max());  // unknown
  f.db.insertReading(f.reading("alice", {5, 5}));
  // A constant tdf changes nothing until the reading outlives its TTL.
  EXPECT_EQ(f.db.nextEvidenceChange(alice), f.clock.now() + sec(30) + util::Duration{1});

  SensorMeta rf;
  rf.sensorId = SensorId{"rf-1"};
  rf.sensorType = "RF";
  rf.errorSpec = quality::ubisenseSpec(1.0);
  rf.quality.ttl = sec(10);
  rf.quality.tdf = std::make_shared<quality::LinearDegradation>(sec(20));
  f.db.registerSensor(rf);
  f.db.insertReading(f.reading("alice", {6, 5}, "rf-1"));
  // A degrading sensor's confidence moves with every tick.
  EXPECT_EQ(f.db.nextEvidenceChange(alice), f.clock.now() + util::Duration{1});
  // Once that reading expired, only the constant one's boundary is left.
  f.clock.advance(sec(11));
  (void)f.db.readingsEpoch(alice);  // publishes the lazy TTL bump
  EXPECT_EQ(f.db.nextEvidenceChange(alice), f.clock.now() - sec(11) + sec(30) +
                                                util::Duration{1});
}

TEST(EvidenceDiscoveryTest, MobileObjectsIntersectingFindsEvidenceBoxes) {
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

TEST(EvidenceDiscoveryTest, StaleEvidenceKeepsCandidatesUntilStorageExpiry) {
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

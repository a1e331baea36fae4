// Epoch-based fusion caching: repeated queries on an unchanged object reuse
// one fused state; a new reading, TTL expiry or sensor (de)registration
// bumps the object's readings epoch and forces recomputation. Batch ingest,
// also from concurrent callers, must be observationally identical to
// sequential ingest.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "concurrent_ingest.hpp"
#include "core/location_service.hpp"

namespace mw::core {
namespace {

using mw::util::MobileObjectId;
using mw::util::msec;
using mw::util::sec;
using mw::util::SensorId;
using mw::util::VirtualClock;

// Same world as core_service_test: floor (0,0)-(100,50), rooms A and B.
struct Fixture {
  VirtualClock clock;
  db::SpatialDatabase db;
  LocationService service;

  Fixture() : db(makeDb(clock)), service(clock, db) {}

  static db::SpatialDatabase makeDb(const util::Clock& clock) {
    db::SpatialDatabase database(clock, geo::Rect::fromOrigin({0, 0}, 100, 50), "SC");
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
    return database;
  }

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
};

TEST(FusionCacheTest, RepeatedQueryHitsCache) {
  Fixture f;
  f.service.ingest(f.reading("ubi-1", "alice", {5, 5}));
  f.service.resetFusionCacheCounters();

  auto first = f.service.locateObject(MobileObjectId{"alice"});
  EXPECT_EQ(f.service.fusionCacheMisses(), 1u);
  EXPECT_EQ(f.service.fusionCacheHits(), 0u);

  // Same epoch, same clock tick: zero lattice rebuilds for any further query.
  auto second = f.service.locateObject(MobileObjectId{"alice"});
  auto prob = f.service.probabilityInRegion(MobileObjectId{"alice"},
                                            geo::Rect::fromOrigin({0, 0}, 20, 20));
  auto dist = f.service.distributionFor(MobileObjectId{"alice"});
  EXPECT_EQ(f.service.fusionCacheMisses(), 1u);
  EXPECT_EQ(f.service.fusionCacheHits(), 3u);

  ASSERT_TRUE(first.has_value() && second.has_value());
  EXPECT_EQ(first->region, second->region);
  EXPECT_DOUBLE_EQ(first->probability, second->probability);
  EXPECT_GT(prob, 0.5);
  EXPECT_FALSE(dist.empty());
}

TEST(FusionCacheTest, QueriesShareOneFusedState) {
  Fixture f;
  f.service.ingest(f.reading("ubi-1", "alice", {5, 5}));
  auto a = f.service.fusedStateFor(MobileObjectId{"alice"});
  auto b = f.service.fusedStateFor(MobileObjectId{"alice"});
  EXPECT_EQ(a.get(), b.get());  // literally the same immutable state
}

TEST(FusionCacheTest, IngestInvalidates) {
  Fixture f;
  f.service.ingest(f.reading("ubi-1", "alice", {5, 5}));
  auto before = f.service.locateObject(MobileObjectId{"alice"});
  ASSERT_TRUE(before.has_value());

  // New reading on the same clock tick: the epoch (not the timestamp) must
  // invalidate the cached state.
  f.service.ingest(f.reading("ubi-1", "alice", {45, 5}));
  f.service.resetFusionCacheCounters();
  auto after = f.service.locateObject(MobileObjectId{"alice"});
  EXPECT_EQ(f.service.fusionCacheMisses(), 1u);
  ASSERT_TRUE(after.has_value());
  EXPECT_NE(before->region, after->region);
  EXPECT_TRUE(after->region.contains(geo::Point2{45, 5}));
}

TEST(FusionCacheTest, TtlExpiryBumpsEpochWithoutNewReadings) {
  Fixture f;
  const MobileObjectId alice{"alice"};
  f.service.ingest(f.reading("ubi-1", "alice", {5, 5}));
  const std::uint64_t epochFresh = f.db.readingsEpoch(alice);
  ASSERT_TRUE(f.service.locateObject(alice).has_value());

  // Advancing past the 30s TTL bumps the epoch lazily — no purge call, no
  // new reading — so the cached estimate cannot outlive its readings.
  f.clock.advance(sec(31));
  EXPECT_GT(f.db.readingsEpoch(alice), epochFresh);
  f.service.resetFusionCacheCounters();
  EXPECT_EQ(f.service.locateObject(alice), std::nullopt);
  EXPECT_EQ(f.service.fusionCacheMisses(), 1u);
}

TEST(FusionCacheTest, SensorRegistrationBumpsEpoch) {
  Fixture f;
  const MobileObjectId alice{"alice"};
  f.service.ingest(f.reading("ubi-1", "alice", {5, 5}));
  const std::uint64_t before = f.db.readingsEpoch(alice);

  db::SensorMeta extra;
  extra.sensorId = SensorId{"ubi-3"};
  extra.sensorType = "Ubisense";
  extra.errorSpec = quality::ubisenseSpec(1.0);
  extra.quality.ttl = sec(30);
  f.db.registerSensor(extra);
  EXPECT_GT(f.db.readingsEpoch(alice), before);
}

TEST(FusionCacheTest, ClockAdvanceInvalidatesByDefault) {
  Fixture f;
  const MobileObjectId alice{"alice"};
  f.service.ingest(f.reading("ubi-1", "alice", {5, 5}));
  ASSERT_TRUE(f.service.locateObject(alice).has_value());

  // tdf degrades confidence continuously, so with the default 0ms tolerance
  // a later clock tick must recompute even though the epoch is unchanged.
  f.clock.advance(msec(1));
  f.service.resetFusionCacheCounters();
  ASSERT_TRUE(f.service.locateObject(alice).has_value());
  EXPECT_EQ(f.service.fusionCacheMisses(), 1u);
  EXPECT_EQ(f.service.fusionCacheHits(), 0u);
}

TEST(FusionCacheTest, ToleranceWindowAllowsBoundedStaleness) {
  Fixture f;
  const MobileObjectId alice{"alice"};
  f.service.setFusionCacheTolerance(sec(1));
  f.service.ingest(f.reading("ubi-1", "alice", {5, 5}));
  ASSERT_TRUE(f.service.locateObject(alice).has_value());

  f.clock.advance(msec(500));  // inside the tolerance window
  f.service.resetFusionCacheCounters();
  ASSERT_TRUE(f.service.locateObject(alice).has_value());
  EXPECT_EQ(f.service.fusionCacheHits(), 1u);

  f.clock.advance(msec(600));  // now 1100ms past computedAt
  ASSERT_TRUE(f.service.locateObject(alice).has_value());
  EXPECT_EQ(f.service.fusionCacheMisses(), 1u);
}

TEST(FusionCacheTest, CapacityBoundsEntries) {
  Fixture f;
  f.service.setFusionCacheCapacity(2);
  for (int p = 0; p < 8; ++p) {
    std::string name = "p" + std::to_string(p);
    f.service.ingest(f.reading("ubi-1", name.c_str(), {5.0 + p, 5}));
    ASSERT_TRUE(f.service.locateObject(MobileObjectId{name}).has_value());
  }
  // All 8 objects still answer correctly after eviction churn.
  for (int p = 0; p < 8; ++p) {
    MobileObjectId who{"p" + std::to_string(p)};
    auto est = f.service.locateObject(who);
    ASSERT_TRUE(est.has_value());
    EXPECT_TRUE(est->region.contains(geo::Point2{5.0 + p, 5}));
  }
}

TEST(FusionCacheTest, MovementPriorChangeInvalidates) {
  Fixture f;
  const MobileObjectId alice{"alice"};
  f.service.ingest(f.reading("ubi-1", "alice", {5, 5}));
  ASSERT_TRUE(f.service.locateObject(alice).has_value());
  f.service.setMovementPrior(nullptr);
  f.service.resetFusionCacheCounters();
  ASSERT_TRUE(f.service.locateObject(alice).has_value());
  EXPECT_EQ(f.service.fusionCacheMisses(), 1u);
}

// --- ingestBatch equivalence ----------------------------------------------------

struct NotificationRecord {
  std::string sub;
  std::string object;
  double probability;
  bool operator<(const NotificationRecord& o) const {
    return std::tie(sub, object, probability) < std::tie(o.sub, o.object, o.probability);
  }
  bool operator==(const NotificationRecord& o) const {
    return sub == o.sub && object == o.object && probability == o.probability;
  }
};

std::vector<db::SensorReading> mixedBatch(Fixture& f, int people) {
  std::vector<db::SensorReading> batch;
  for (int p = 0; p < people; ++p) {
    std::string name = "p" + std::to_string(p);
    geo::Point2 where{5.0 + (p % 10) * 9.0, 5.0 + (p / 10) * 4.0};
    batch.push_back(f.reading("ubi-1", name.c_str(), where));
    batch.push_back(f.reading("ubi-2", name.c_str(), {where.x + 0.2, where.y}));
  }
  return batch;
}

TEST(IngestBatchTest, MatchesSequentialIngest) {
  Fixture seq, par;

  // Identical wall-to-wall subscriptions on both services, recording every
  // notification (order-insensitively comparable). Callbacks fire on four
  // concurrent caller threads on the parallel service, so the recorder locks.
  std::mutex notesMutex;
  std::vector<NotificationRecord> seqNotes, parNotes;
  auto recordInto = [&notesMutex](std::vector<NotificationRecord>& out, const char* tag) {
    return [&out, &notesMutex, tag](const Notification& n) {
      std::lock_guard lock(notesMutex);
      out.push_back({tag, n.object.str(), n.probability});
    };
  };
  geo::Rect everywhere = geo::Rect::fromOrigin({0, 0}, 100, 50);
  geo::Rect roomA = geo::Rect::fromOrigin({0, 0}, 20, 20);
  seq.service.subscribe({everywhere, std::nullopt, 0.01, std::nullopt, false,
                         recordInto(seqNotes, "everywhere")});
  seq.service.subscribe({roomA, std::nullopt, 0.5, std::nullopt, true,
                         recordInto(seqNotes, "roomA")});
  par.service.subscribe({everywhere, std::nullopt, 0.01, std::nullopt, false,
                         recordInto(parNotes, "everywhere")});
  par.service.subscribe({roomA, std::nullopt, 0.5, std::nullopt, true,
                         recordInto(parNotes, "roomA")});

  std::vector<db::SensorReading> batchSeq = mixedBatch(seq, 20);
  std::vector<db::SensorReading> batchPar = mixedBatch(par, 20);
  for (const auto& r : batchSeq) seq.service.ingest(r);
  testing::ingestFromCallers(par.service, batchPar, 4, 3);

  // Byte-identical estimates per object.
  for (int p = 0; p < 20; ++p) {
    MobileObjectId who{"p" + std::to_string(p)};
    auto a = seq.service.locateObject(who);
    auto b = par.service.locateObject(who);
    ASSERT_TRUE(a.has_value() && b.has_value()) << who.str();
    EXPECT_EQ(a->region, b->region) << who.str();
    EXPECT_DOUBLE_EQ(a->probability, b->probability) << who.str();
    EXPECT_EQ(a->cls, b->cls) << who.str();
    EXPECT_EQ(a->supporting, b->supporting) << who.str();
    EXPECT_EQ(a->discarded, b->discarded) << who.str();
  }

  // Same notification multiset, order-insensitive across objects.
  std::sort(seqNotes.begin(), seqNotes.end());
  std::sort(parNotes.begin(), parNotes.end());
  EXPECT_FALSE(seqNotes.empty());
  EXPECT_EQ(seqNotes, parNotes);
}

TEST(IngestBatchTest, SingleShardAndEmptyBatch) {
  Fixture f;
  f.service.ingestBatch({});  // no-op
  EXPECT_EQ(f.service.ingestedBatches(), 0u);
  std::vector<db::SensorReading> batch = mixedBatch(f, 3);
  f.service.ingestBatch(batch);
  EXPECT_EQ(f.service.ingestedBatches(), 1u);
  EXPECT_EQ(f.service.ingestedReadings(), batch.size());
  for (int p = 0; p < 3; ++p) {
    EXPECT_TRUE(f.service.locateObject(MobileObjectId{"p" + std::to_string(p)}).has_value());
  }
}

TEST(IngestBatchTest, PerObjectOrderPreservedAcrossShards) {
  // Each object gets two readings far apart in one caller's batch while
  // three other callers ingest their own objects: the second reading must
  // win the `moving` comparison against the first, as in sequential ingest.
  Fixture seq, par;
  std::vector<db::SensorReading> batch;
  for (int p = 0; p < 8; ++p) {
    const std::string name = "p" + std::to_string(p);
    const double y = 5.0 + p * 5.0;
    batch.push_back(par.reading("ubi-1", name.c_str(), {5, y}));
    batch.push_back(par.reading("ubi-1", name.c_str(), {45, y}));
  }
  for (const auto& r : batch) seq.service.ingest(r);
  testing::ingestFromCallers(par.service, batch, 4);

  for (int p = 0; p < 8; ++p) {
    const MobileObjectId who{"p" + std::to_string(p)};
    auto a = seq.service.locateObject(who);
    auto b = par.service.locateObject(who);
    ASSERT_TRUE(a.has_value() && b.has_value()) << who.str();
    EXPECT_TRUE(b->region.contains(geo::Point2{45, 5.0 + p * 5.0})) << who.str();
    EXPECT_EQ(a->region, b->region) << who.str();
    EXPECT_EQ(a->probability, b->probability) << who.str();
  }
}

TEST(IngestBatchTest, CallbacksFireOnCallingThreadBeforeReturn) {
  // No worker threads: every notification of a batch has fired, on the
  // caller's own thread, by the time ingestBatch returns.
  Fixture f;
  std::vector<std::thread::id> firedOn;
  f.service.subscribe({geo::Rect::fromOrigin({0, 0}, 100, 50), std::nullopt, 0.01,
                       std::nullopt, false,
                       [&firedOn](const Notification&) {
                         firedOn.push_back(std::this_thread::get_id());
                       }});
  std::vector<db::SensorReading> batch = mixedBatch(f, 12);
  f.service.ingestBatch(batch);
  EXPECT_EQ(firedOn.size(), batch.size());  // level-triggered: one per reading
  for (const auto& id : firedOn) EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(IngestBatchTest, NotificationOrderMatchesSequentialIngest) {
  // One caller: the batch's notification stream equals sequential ingest's,
  // order included, not just as a multiset.
  Fixture seq, bat;
  std::vector<NotificationRecord> seqNotes, batNotes;
  auto recordInto = [](std::vector<NotificationRecord>& out, const char* tag) {
    return [&out, tag](const Notification& n) {
      out.push_back({tag, n.object.str(), n.probability});
    };
  };
  geo::Rect everywhere = geo::Rect::fromOrigin({0, 0}, 100, 50);
  geo::Rect roomA = geo::Rect::fromOrigin({0, 0}, 20, 20);
  for (auto* into : {&seq, &bat}) {
    auto& notes = into == &seq ? seqNotes : batNotes;
    into->service.subscribe({everywhere, std::nullopt, 0.01, std::nullopt, false,
                             recordInto(notes, "everywhere")});
    into->service.subscribe({roomA, std::nullopt, 0.5, std::nullopt, true,
                             recordInto(notes, "roomA")});
  }
  for (int round = 0; round < 3; ++round) {
    std::vector<db::SensorReading> batch = mixedBatch(seq, 20);
    for (auto& r : batch) r.location.x += round * 3.0;  // move in and out of room A
    for (const auto& r : batch) seq.service.ingest(r);
    bat.service.ingestBatch(batch);
  }
  EXPECT_FALSE(seqNotes.empty());
  EXPECT_EQ(seqNotes, batNotes);
}

TEST(IngestBatchTest, TapSeesEachBatchOnceAndOnlyKeptReadingsApply) {
  Fixture f;
  std::vector<std::size_t> tapped;
  bool dropAll = false;
  f.service.setIngestTap([&](std::span<const db::SensorReading> readings) {
    tapped.push_back(readings.size());
    std::vector<db::SensorReading> kept;
    for (const auto& r : readings) {
      if (!dropAll && r.mobileObjectId.str() != "p1") kept.push_back(r);
    }
    return kept;
  });

  std::vector<db::SensorReading> batch = mixedBatch(f, 3);
  f.service.ingestBatch(batch);
  EXPECT_EQ(tapped, std::vector<std::size_t>{batch.size()});  // one call, whole batch
  EXPECT_EQ(f.service.ingestedReadings(), batch.size() - 2);  // p1's two consumed
  EXPECT_TRUE(f.service.locateObject(MobileObjectId{"p0"}).has_value());
  EXPECT_FALSE(f.service.locateObject(MobileObjectId{"p1"}).has_value());
  EXPECT_TRUE(f.service.locateObject(MobileObjectId{"p2"}).has_value());

  // A tap that consumes the whole batch still counts the batch, not its readings.
  dropAll = true;
  f.service.ingestBatch(batch);
  EXPECT_EQ(tapped.size(), 2u);
  EXPECT_EQ(f.service.ingestedBatches(), 2u);
  EXPECT_EQ(f.service.ingestedReadings(), batch.size() - 2);

  f.service.setIngestTap(nullptr);
  f.service.ingestBatch(batch);
  EXPECT_EQ(tapped.size(), 2u);
  EXPECT_TRUE(f.service.locateObject(MobileObjectId{"p1"}).has_value());
}

}  // namespace
}  // namespace mw::core

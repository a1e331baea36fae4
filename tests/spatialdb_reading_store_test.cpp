// The striped reading store: concurrent appends to the same and different
// objects against snapshot readers (run under -DMW_SANITIZE=thread to prove
// the epoch-publication protocol race-free), lazy TTL-expiry epoch bumps,
// the shared sensor-table epoch path, the catalog/readings lock split (a
// long catalog read must never block ingest), an oracle pinning ingest from
// concurrent callers on disjoint objects to byte-identical fusion results
// vs. the sequential path, and a seeded model check of the packed evidence
// column behind region discovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "concurrent_ingest.hpp"
#include "core/location_service.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mw::core {
namespace {

using mw::util::MobileObjectId;
using mw::util::msec;
using mw::util::sec;
using mw::util::SensorId;
using mw::util::VirtualClock;

db::SpatialDatabase makeDb(const util::Clock& clock) {
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
  addRoom("roomA", geo::Rect::fromOrigin({0, 0}, 20, 20));
  addRoom("roomB", geo::Rect::fromOrigin({40, 0}, 20, 20));

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

db::SensorReading reading(const util::Clock& clock, const char* sensor, const char* person,
                          geo::Point2 where) {
  db::SensorReading r;
  r.sensorId = SensorId{sensor};
  r.sensorType = "Ubisense";
  r.mobileObjectId = MobileObjectId{person};
  r.location = where;
  r.detectionRadius = 0.5;
  r.detectionTime = clock.now();
  return r;
}

struct Fixture {
  VirtualClock clock;
  db::SpatialDatabase db;
  LocationService service;

  Fixture() : db(makeDb(clock)), service(clock, db) {}

  db::SensorReading read(const char* sensor, const char* person, geo::Point2 where) {
    return reading(clock, sensor, person, where);
  }
};

// --- concurrency ---------------------------------------------------------------

TEST(ReadingStoreConcurrencyTest, DifferentObjectsAppendWithoutContention) {
  Fixture f;
  constexpr int kThreads = 4;
  constexpr int kObjectsPerThread = 4;
  constexpr int kRounds = 50;

  std::atomic<bool> stop{false};
  std::atomic<int> snapshotsRead{0};

  // Readers take lock-free snapshots of every read surface while the
  // writers run; TSan proves the publication protocol, the asserts prove
  // each snapshot is internally consistent.
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        for (const auto& id : f.db.knownMobileObjects()) {
          auto stored = f.db.readingsFor(id);
          EXPECT_LE(stored.size(), 1u);  // one sensor per object below
          (void)f.db.readingsEpoch(id);
        }
        (void)f.db.mobileObjectsIntersecting(f.db.universe());
        snapshotsRead.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (int o = 0; o < kObjectsPerThread; ++o) {
          std::string person = "p" + std::to_string(t) + "-" + std::to_string(o);
          f.db.insertReading(
              f.read("ubi-1", person.c_str(), {5.0 + o + round * 0.01, 5.0 + t}));
        }
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  EXPECT_GT(snapshotsRead.load(), 0);
  EXPECT_EQ(f.db.knownMobileObjects().size(),
            static_cast<std::size_t>(kThreads * kObjectsPerThread));
  // Writers always targeted distinct objects, so no append ever found its
  // object's writer lock held.
  EXPECT_EQ(f.db.readingWriterContentions(), 0u);
}

TEST(ReadingStoreConcurrencyTest, SameObjectAppendsSerializePerObject) {
  Fixture f;
  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  // One producer per sensor technology, all reporting the same person — the
  // MPSC shape the per-object writer mutex exists for.
  for (int t = 0; t < kThreads; ++t) {
    db::SensorMeta meta;
    meta.sensorId = SensorId{"s" + std::to_string(t)};
    meta.sensorType = "Ubisense";
    meta.errorSpec = quality::ubisenseSpec(1.0);
    meta.quality.ttl = sec(30);
    f.db.registerSensor(meta);
  }
  const MobileObjectId person{"alice"};
  const std::uint64_t before = f.db.readingsEpoch(person);

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    std::uint64_t lastEpoch = 0;
    while (!stop.load(std::memory_order_acquire)) {
      std::uint64_t epoch = f.db.readingsEpoch(person);
      EXPECT_GE(epoch, lastEpoch);  // published epochs are monotonic
      lastEpoch = epoch;
      EXPECT_LE(f.db.readingsFor(person).size(), static_cast<std::size_t>(kThreads));
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      std::string sensor = "s" + std::to_string(t);
      for (int round = 0; round < kRounds; ++round) {
        f.db.insertReading(f.read(sensor.c_str(), "alice", {5.0 + t, 5.0 + round * 0.01}));
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  // Every append published exactly one epoch increment, none were lost.
  EXPECT_EQ(f.db.readingsEpoch(person) - before,
            static_cast<std::uint64_t>(kThreads * kRounds));
  EXPECT_EQ(f.db.readingsFor(person).size(), static_cast<std::size_t>(kThreads));
}

TEST(ReadingStoreConcurrencyTest, LongCatalogReadDoesNotBlockIngest) {
  Fixture f;
  std::atomic<bool> predicateEntered{false};
  std::atomic<bool> insertsDone{false};
  std::atomic<bool> scannerDone{false};

  // The scanner parks inside db.query()'s predicate, holding the catalog
  // lock for the whole duration of the ingest burst below.
  std::thread scanner([&] {
    bool parked = false;
    (void)f.db.query([&](const db::SpatialObjectRow&) {
      if (!parked) {
        parked = true;
        predicateEntered.store(true, std::memory_order_release);
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
        while (!insertsDone.load(std::memory_order_acquire) &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
      }
      return false;
    });
    scannerDone.store(true, std::memory_order_release);
  });
  while (!predicateEntered.load(std::memory_order_acquire)) std::this_thread::yield();

  // With readings behind the catalog lock these inserts would deadlock-wait
  // on the parked scanner; through the striped store they complete while it
  // still holds the lock.
  for (int i = 0; i < 32; ++i) {
    f.db.insertReading(f.read("ubi-1", "walker", {1.0 + i * 0.1, 1.0}));
  }
  EXPECT_FALSE(scannerDone.load(std::memory_order_acquire));

  insertsDone.store(true, std::memory_order_release);
  scanner.join();
  EXPECT_EQ(f.db.readingsFor(MobileObjectId{"walker"}).size(), 1u);
}

// --- TTL expiry ----------------------------------------------------------------

TEST(ReadingStoreTest, TtlExpiryBumpsEpochLazilyExactlyOnce) {
  Fixture f;
  const MobileObjectId person{"alice"};
  f.db.insertReading(f.read("ubi-1", "alice", {5, 5}));
  const std::uint64_t fresh = f.db.readingsEpoch(person);
  ASSERT_EQ(f.db.readingsFor(person).size(), 1u);

  f.clock.advance(sec(31));  // past the 30 s TTL
  const std::uint64_t expired = f.db.readingsEpoch(person);
  EXPECT_EQ(expired, fresh + 1);  // the boundary crossing published one bump
  EXPECT_EQ(f.db.readingsEpoch(person), expired);  // and only one
  EXPECT_TRUE(f.db.readingsFor(person).empty());

  // The stale evidence is still stored (lazy purge), so the object remains
  // discoverable until purgeExpired removes it and moves the evidence
  // revision. The lazy bump itself left the revision alone.
  const geo::Rect around = geo::Rect::fromOrigin({0, 0}, 20, 20);
  EXPECT_EQ(f.db.mobileObjectsIntersecting(around).size(), 1u);
  const std::uint64_t revision = f.db.evidenceRevision();
  f.db.purgeExpired();
  EXPECT_TRUE(f.db.mobileObjectsIntersecting(around).empty());
  EXPECT_TRUE(f.db.knownMobileObjects().empty());
  EXPECT_EQ(f.db.evidenceRevision(), revision + 1);
}

// --- sensor-table epoch discipline (shared helper regression) ------------------

TEST(ReadingStoreTest, RegisterAndDeregisterShareOneEpochPath) {
  Fixture f;
  const MobileObjectId person{"alice"};
  f.db.insertReading(f.read("ubi-1", "alice", {5, 5}));

  const std::uint64_t e0 = f.db.readingsEpoch(person);
  const std::uint64_t c0 = f.db.evidenceRevision();

  // Registration goes through the shared sensor-change path: one readings
  // epoch bump (calibration shifts every confidence) AND one evidence
  // revision bump.
  db::SensorMeta extra;
  extra.sensorId = SensorId{"ubi-3"};
  extra.sensorType = "Ubisense";
  extra.errorSpec = quality::ubisenseSpec(1.0);
  extra.quality.ttl = sec(30);
  f.db.registerSensor(extra);
  EXPECT_EQ(f.db.readingsEpoch(person), e0 + 1);
  EXPECT_EQ(f.db.evidenceRevision(), c0 + 1);

  // Deregistration must take the exact same path — identical deltas.
  ASSERT_TRUE(f.db.deregisterSensor(SensorId{"ubi-3"}));
  EXPECT_EQ(f.db.readingsEpoch(person), e0 + 2);
  EXPECT_EQ(f.db.evidenceRevision(), c0 + 2);

  // Unknown sensors bump nothing.
  EXPECT_FALSE(f.db.deregisterSensor(SensorId{"ubi-3"}));
  EXPECT_EQ(f.db.readingsEpoch(person), e0 + 2);
  EXPECT_EQ(f.db.evidenceRevision(), c0 + 2);

  // Deregistering a sensor with stored readings hides them immediately.
  f.db.insertReading(f.read("ubi-2", "alice", {6, 5}));
  ASSERT_EQ(f.db.readingsFor(person).size(), 2u);
  ASSERT_TRUE(f.db.deregisterSensor(SensorId{"ubi-2"}));
  EXPECT_EQ(f.db.readingsFor(person).size(), 1u);
}

// --- oracle: ingest sharded over concurrent callers is byte-identical ----------

TEST(ReadingStoreTest, ShardedIngestMatchesSequentialOracle) {
  VirtualClock clock;
  db::SpatialDatabase seqDb = makeDb(clock);
  db::SpatialDatabase parDb = makeDb(clock);
  LocationService seq(clock, seqDb);
  LocationService par(clock, parDb);

  constexpr int kPeople = 12;
  constexpr int kRounds = 5;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<db::SensorReading> batch;
    for (int p = 0; p < kPeople; ++p) {
      const char* sensor = (p + round) % 2 == 0 ? "ubi-1" : "ubi-2";
      std::string person = "p" + std::to_string(p);
      batch.push_back(reading(clock, sensor, person.c_str(),
                              {2.0 + p * 7.0 + round * 0.5, 5.0 + (p % 5) * 8.0}));
    }
    for (const auto& r : batch) seq.ingest(r);
    testing::ingestFromCallers(par, batch, 4, 2);
    clock.advance(msec(500));
  }

  for (int p = 0; p < kPeople; ++p) {
    MobileObjectId person{"p" + std::to_string(p)};
    auto a = seq.locateObject(person);
    auto b = par.locateObject(person);
    ASSERT_EQ(a.has_value(), b.has_value()) << person.str();
    if (!a) continue;
    // Byte-identical: exact doubles, same supporting/discarded sets, same
    // class — each object's readings stay on one caller in order, so fusion
    // sees the same inputs in the same order.
    EXPECT_EQ(a->region, b->region) << person.str();
    EXPECT_EQ(a->probability, b->probability) << person.str();
    EXPECT_EQ(a->cls, b->cls) << person.str();
    EXPECT_EQ(a->supporting, b->supporting) << person.str();
    EXPECT_EQ(a->discarded, b->discarded) << person.str();
    EXPECT_EQ(seqDb.readingsEpoch(person), parDb.readingsEpoch(person)) << person.str();
  }
  EXPECT_EQ(seqDb.knownMobileObjects(), parDb.knownMobileObjects());
  EXPECT_EQ(seqDb.evidenceRevision(), parDb.evidenceRevision());
}

// --- evidence column vs. a model -------------------------------------------------

using SensorTtls = std::map<std::string, util::Duration>;

/// What the evidence column must say, kept by the test from what it inserted,
/// expired and dropped: every stored reading per object and sensor (lazy TTL
/// expiry does not remove readings; purgeExpired and expireReadings do).
class EvidenceModel {
 public:
  void append(const db::SensorReading& r) { stored_[r.mobileObjectId.str()][r.sensorId.str()] = r; }
  void expire(const std::string& object, const std::string& sensor) {
    auto it = stored_.find(object);
    if (it == stored_.end()) return;
    it->second.erase(sensor);
    if (it->second.empty()) stored_.erase(it);
  }
  void drop(const std::string& object) { stored_.erase(object); }
  /// purgeExpired: readings of unregistered sensors and readings older than
  /// their sensor's TTL go.
  void purge(const SensorTtls& registeredTtl, util::TimePoint now) {
    for (auto it = stored_.begin(); it != stored_.end();) {
      auto& perSensor = it->second;
      for (auto r = perSensor.begin(); r != perSensor.end();) {
        auto ttl = registeredTtl.find(r->first);
        const bool orphaned = ttl == registeredTtl.end();
        const bool gone = orphaned || now - r->second.detectionTime > ttl->second;
        r = gone ? perSensor.erase(r) : std::next(r);
      }
      it = perSensor.empty() ? stored_.erase(it) : std::next(it);
    }
  }
  /// Union of the stored reading rects; a zero-area union is inflated by
  /// 1e-6 so it still intersects.
  [[nodiscard]] std::optional<geo::Rect> boxOf(const std::string& object) const {
    auto it = stored_.find(object);
    if (it == stored_.end()) return std::nullopt;
    geo::Rect box;
    for (const auto& [_, r] : it->second) box = box.unionWith(r.rect());
    if (box.area() == 0) box = box.inflated(1e-6);
    return box;
  }
  [[nodiscard]] std::vector<std::string> intersecting(const geo::Rect& q) const {
    std::vector<std::string> out;
    for (const auto& [object, _] : stored_) {
      if (boxOf(object)->intersects(q)) out.push_back(object);
    }
    return out;
  }

 private:
  std::map<std::string, std::map<std::string, db::SensorReading>> stored_;
};

std::vector<std::string> sortedNames(const std::vector<MobileObjectId>& ids) {
  std::vector<std::string> out;
  out.reserve(ids.size());
  for (const auto& id : ids) out.push_back(id.str());
  std::sort(out.begin(), out.end());
  return out;
}

TEST(ReadingStoreTest, EvidenceColumnMatchesModelUnderRandomOps) {
  constexpr int kObjects = 12;
  constexpr int kSteps = 1500;
  const geo::Rect universe = geo::Rect::fromOrigin({0, 0}, 100, 50);
  const SensorTtls ttls{{"s0", sec(3)}, {"s1", sec(10)}, {"s2", msec(800)}};

  for (const std::uint64_t seed : {1, 2, 3, 4}) {
    std::printf("ReadingStoreTest model seed=%llu\n", static_cast<unsigned long long>(seed));
    SCOPED_TRACE("seed=" + std::to_string(seed));
    util::Rng rng{seed};
    VirtualClock clock;
    db::SpatialDatabase database(clock, universe, "SC");
    SensorTtls registered;
    auto registerSensor = [&](const std::string& id) {
      db::SensorMeta meta;
      meta.sensorId = SensorId{id};
      meta.sensorType = "Ubisense";
      meta.errorSpec = quality::ubisenseSpec(1.0);
      meta.quality.ttl = ttls.at(id);
      database.registerSensor(meta);
      registered[id] = ttls.at(id);
    };
    for (const auto& [id, _] : ttls) registerSensor(id);
    EvidenceModel model;

    auto objectName = [&] { return "o" + std::to_string(rng.uniformInt(0, kObjects - 1)); };
    auto sensorName = [&] { return "s" + std::to_string(rng.uniformInt(0, 2)); };
    auto randomRect = [&] {
      const geo::Point2 lo{rng.uniform(0, 95), rng.uniform(0, 45)};
      return geo::Rect::fromOrigin(lo, rng.uniform(0, 30), rng.uniform(0, 20));
    };

    for (int step = 0; step < kSteps; ++step) {
      const std::int64_t op = rng.uniformInt(0, 99);
      std::string what;
      if (op < 55) {  // append: a point reading, or a symbolic region (possibly degenerate)
        db::SensorReading r;
        r.sensorId = SensorId{sensorName()};
        r.sensorType = "Ubisense";
        r.mobileObjectId = MobileObjectId{objectName()};
        r.location = {rng.uniform(0, 100), rng.uniform(0, 50)};
        r.detectionRadius = rng.uniformInt(0, 2) * 1.5;
        if (rng.uniformInt(0, 4) == 0) {
          const geo::Point2 lo{rng.uniform(0, 90), rng.uniform(0, 40)};
          r.symbolicRegion = geo::Rect::fromOrigin(lo, rng.uniformInt(0, 1) * 6.0, 4.0);
        }
        r.detectionTime = clock.now();
        what = "append " + r.mobileObjectId.str() + "/" + r.sensorId.str();
        if (registered.contains(r.sensorId.str())) {
          database.insertReading(r);
          model.append(r);
        } else {
          EXPECT_THROW(database.insertReading(r), mw::util::NotFoundError) << what;
        }
      } else if (op < 65) {
        const std::string object = objectName();
        const std::string sensor = sensorName();
        what = "expire " + object + "/" + sensor;
        database.expireReadings(MobileObjectId{object}, SensorId{sensor});
        model.expire(object, sensor);
      } else if (op < 70) {
        what = "purge";
        database.purgeExpired();
        model.purge(registered, clock.now());
      } else if (op < 75) {
        const std::string object = objectName();
        what = "drop " + object;
        (void)database.dropMobileObject(MobileObjectId{object});
        model.drop(object);
      } else if (op < 80) {  // s2 flips between registered and not
        if (registered.contains("s2")) {
          what = "deregister s2";
          ASSERT_TRUE(database.deregisterSensor(SensorId{"s2"}));
          registered.erase("s2");
        } else {
          what = "register s2";
          registerSensor("s2");
        }
      } else if (op < 90) {  // lazy TTL bump: republishes, box unchanged
        const std::string object = objectName();
        what = "epoch " + object;
        (void)database.readingsEpoch(MobileObjectId{object});
      } else {
        what = "advance";
        clock.advance(msec(rng.uniformInt(0, 1500)));
      }

      for (int o = 0; o < kObjects; ++o) {
        const std::string object = "o" + std::to_string(o);
        ASSERT_EQ(database.evidenceBoxOf(MobileObjectId{object}), model.boxOf(object))
            << "step " << step << " after " << what << ", object " << object;
      }
      for (const geo::Rect& q : {universe, randomRect(), randomRect()}) {
        ASSERT_EQ(sortedNames(database.mobileObjectsIntersecting(q)), model.intersecting(q))
            << "step " << step << " after " << what << ", query " << q;
      }
    }
  }
}

// Exercised under TSan/ASan in CI: writers move objects (and force-expire one
// of two sensors) while polls scan the column. An object whose readings all
// lie inside the query is returned by every poll, never missed mid-move.
TEST(ReadingStoreTest, PollsAlwaysSeeObjectsMovingInsideTheQuery) {
  Fixture f;
  const geo::Rect q = geo::Rect::fromOrigin({10, 10}, 30, 30);
  constexpr int kInsiders = 6;
  constexpr int kRoamers = 6;
  constexpr int kRounds = 300;
  auto insider = [](int i) { return "in" + std::to_string(i); };
  auto roamer = [](int i) { return "roam" + std::to_string(i); };
  for (int i = 0; i < kInsiders; ++i) {
    f.db.insertReading(f.read("ubi-1", insider(i).c_str(), {20, 20}));
  }

  std::atomic<int> writersLeft{2};
  std::atomic<int> polls{0};
  std::vector<std::thread> pollers;
  for (int t = 0; t < 2; ++t) {
    pollers.emplace_back([&] {
      do {
        const auto found = sortedNames(f.db.mobileObjectsIntersecting(q));
        for (int i = 0; i < kInsiders; ++i) {
          EXPECT_TRUE(std::binary_search(found.begin(), found.end(), insider(i)))
              << insider(i) << " missing from a poll";
          const auto box = f.db.evidenceBoxOf(MobileObjectId{insider(i)});
          ASSERT_TRUE(box.has_value());
          EXPECT_TRUE(q.contains(*box)) << insider(i) << " box " << *box;
        }
        polls.fetch_add(1, std::memory_order_relaxed);
      } while (writersLeft.load(std::memory_order_acquire) > 0);
    });
  }
  // Writers start once polls are running, so the writes overlap scans.
  while (polls.load(std::memory_order_relaxed) < 2) std::this_thread::yield();

  std::vector<std::thread> writers;
  // Insider writer: both sensors stay inside q; ubi-2's reading comes and
  // goes, ubi-1's never leaves.
  writers.emplace_back([&] {
    for (int round = 0; round < kRounds; ++round) {
      for (int i = 0; i < kInsiders; ++i) {
        const geo::Point2 where{12.0 + (round + i) % 26, 12.0 + (round * 3 + i) % 26};
        f.db.insertReading(f.read(round % 2 ? "ubi-1" : "ubi-2", insider(i).c_str(), where));
        if (round % 5 == 4) f.db.expireReadings(MobileObjectId{insider(i)}, SensorId{"ubi-2"});
      }
    }
    writersLeft.fetch_sub(1, std::memory_order_release);
  });
  // Roamer writer: objects cross q's edges and get dropped and re-created.
  writers.emplace_back([&] {
    for (int round = 0; round < kRounds; ++round) {
      for (int i = 0; i < kRoamers; ++i) {
        const double x = (round * 7 + i * 13) % 100;
        const double y = (round * 3 + i * 5) % 50;
        f.db.insertReading(f.read("ubi-1", roamer(i).c_str(), {x, y}));
        if (round % 7 == 6) (void)f.db.dropMobileObject(MobileObjectId{roamer(i)});
      }
    }
    writersLeft.fetch_sub(1, std::memory_order_release);
  });
  for (auto& w : writers) w.join();
  for (auto& p : pollers) p.join();
}

}  // namespace
}  // namespace mw::core

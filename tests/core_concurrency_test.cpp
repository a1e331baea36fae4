// Concurrent ingest/query discipline: readers and writers share the
// database, fusion cache and subscription table without data races (run
// under -DMW_SANITIZE=thread to prove it) and without deadlock, including
// callbacks that reenter the service. Concurrent batch callers on disjoint
// objects must end where a sequential replay ends.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <latch>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "concurrent_ingest.hpp"
#include "core/location_service.hpp"

namespace mw::core {
namespace {

using mw::util::MobileObjectId;
using mw::util::sec;
using mw::util::SensorId;
using mw::util::VirtualClock;

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
    return database;
  }

  db::SensorReading reading(const char* person, geo::Point2 where) {
    db::SensorReading r;
    r.sensorId = SensorId{"ubi-1"};
    r.sensorType = "Ubisense";
    r.mobileObjectId = MobileObjectId{person};
    r.location = where;
    r.detectionRadius = 0.5;
    r.detectionTime = clock.now();
    return r;
  }
};

TEST(ConcurrencyTest, ParallelIngestAndQueries) {
  Fixture seq, f;
  constexpr int kObjects = 8;
  constexpr int kRounds = 50;

  std::atomic<bool> stop{false};
  std::atomic<int> located{0};

  // Writers: each round, four callers batch-ingest their own two objects
  // at once; the oracle ingests the same readings one by one.
  std::thread writer([&] {
    for (int round = 0; round < kRounds; ++round) {
      std::vector<db::SensorReading> batch;
      for (int p = 0; p < kObjects; ++p) {
        batch.push_back(
            f.reading(("p" + std::to_string(p)).c_str(), {5.0 + p * 2.0 + round * 0.01, 5}));
      }
      for (const auto& r : batch) seq.service.ingest(r);
      testing::ingestFromCallers(f.service, batch, 4);
    }
    stop.store(true);
  });

  // Readers: hammer pull queries across all objects while ingest runs.
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      while (!stop.load()) {
        MobileObjectId who{"p" + std::to_string(t % kObjects)};
        if (f.service.locateObject(who)) located.fetch_add(1);
        (void)f.service.probabilityInRegion(who, geo::Rect::fromOrigin({0, 0}, 50, 50));
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();

  // Every object locatable at the end, with the last round's position and
  // the oracle's estimate.
  for (int p = 0; p < kObjects; ++p) {
    const MobileObjectId who{"p" + std::to_string(p)};
    auto est = f.service.locateObject(who);
    auto want = seq.service.locateObject(who);
    ASSERT_TRUE(est.has_value() && want.has_value());
    EXPECT_TRUE(est->region.contains(geo::Point2{5.0 + p * 2.0 + (kRounds - 1) * 0.01, 5}));
    EXPECT_EQ(est->region, want->region);
    EXPECT_EQ(est->probability, want->probability);
  }
  EXPECT_EQ(f.service.ingestedReadings(), seq.service.ingestedReadings());
}

TEST(ConcurrencyTest, ConcurrentQueriesShareCache) {
  Fixture f;
  f.service.ingest(f.reading("alice", {5, 5}));
  f.service.resetFusionCacheCounters();

  constexpr int kThreads = 4;
  constexpr int kQueries = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kQueries; ++i) {
        auto est = f.service.locateObject(MobileObjectId{"alice"});
        ASSERT_TRUE(est.has_value());
      }
    });
  }
  for (auto& t : threads) t.join();

  // Readings and clock are frozen, so at worst each thread misses once while
  // racing the first fill; everything else must be a hit.
  EXPECT_LE(f.service.fusionCacheMisses(), static_cast<std::uint64_t>(kThreads));
  EXPECT_GE(f.service.fusionCacheHits(),
            static_cast<std::uint64_t>(kThreads * kQueries - kThreads));
}

TEST(ConcurrencyTest, SubscriptionsFireUnderBatchIngestWithReentrantCallback) {
  Fixture seq, f;
  std::mutex notesMutex;
  std::multiset<std::string> seqFired, parFired;
  geo::Rect roomA = geo::Rect::fromOrigin({0, 0}, 20, 20);
  auto subscribeRecorder = [&](Fixture& into, std::multiset<std::string>& fired) {
    into.service.subscribe({roomA, std::nullopt, 0.5, std::nullopt, false,
                            [&](const Notification& n) {
                              // Reentrant query from inside the callback: must
                              // not deadlock against any service or database
                              // lock, nor against another caller's ingest.
                              (void)into.service.locateObject(n.object);
                              std::lock_guard lock(notesMutex);
                              fired.insert(n.object.str());
                            }});
  };
  subscribeRecorder(seq, seqFired);
  subscribeRecorder(f, parFired);

  for (int round = 0; round < 10; ++round) {
    std::vector<db::SensorReading> batch;
    for (int p = 0; p < 8; ++p) {
      // Half the objects inside roomA, half far away.
      geo::Point2 where = p % 2 == 0 ? geo::Point2{5.0 + 0.01 * round, 5}
                                     : geo::Point2{80.0, 40};
      batch.push_back(f.reading(("p" + std::to_string(p)).c_str(), where));
    }
    for (const auto& r : batch) seq.service.ingest(r);
    testing::ingestFromCallers(f.service, batch, 4);
  }
  EXPECT_EQ(parFired.size(), 10u * 4);  // 4 inside objects x 10 rounds, level-triggered
  EXPECT_EQ(parFired, seqFired);
}

TEST(ConcurrencyTest, CallersSharingObjectsConvergeOnOracle) {
  // Four callers ingestBatch the same readings for the same objects at once,
  // so they collide on the reading store's per-object writer locks. Repeats
  // of one reading are idempotent, so any interleaving must end where the
  // sequential replay ends, with every reading counted.
  Fixture seq, f;
  constexpr int kCallers = 4;
  std::vector<db::SensorReading> batch;
  for (int p = 0; p < 6; ++p) {
    batch.push_back(f.reading(("p" + std::to_string(p)).c_str(), {5.0 + p * 12.0, 10}));
  }
  for (int c = 0; c < kCallers; ++c) {
    for (const auto& r : batch) seq.service.ingest(r);
  }
  std::latch start(kCallers);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      start.arrive_and_wait();
      f.service.ingestBatch(batch);
    });
  }
  for (auto& t : callers) t.join();

  EXPECT_EQ(f.service.ingestedReadings(), seq.service.ingestedReadings());
  EXPECT_EQ(f.service.ingestedBatches(), static_cast<std::uint64_t>(kCallers));
  for (const auto& r : batch) {
    auto est = f.service.locateObject(r.mobileObjectId);
    auto want = seq.service.locateObject(r.mobileObjectId);
    ASSERT_TRUE(est.has_value() && want.has_value()) << r.mobileObjectId.str();
    EXPECT_EQ(est->region, want->region) << r.mobileObjectId.str();
    EXPECT_EQ(est->probability, want->probability) << r.mobileObjectId.str();
    EXPECT_EQ(f.db.readingsFor(r.mobileObjectId).size(),
              seq.db.readingsFor(r.mobileObjectId).size());
  }
}

TEST(ConcurrencyTest, BatchAndSingleReadingCallersInterleave) {
  // Two callers batch-ingest their own objects while two others ingest()
  // theirs one reading at a time; the end state matches a sequential replay.
  Fixture seq, f;
  constexpr int kRounds = 20;
  auto objectName = [](int caller, int k) {
    return "c" + std::to_string(caller) + "-" + std::to_string(k);
  };
  auto readingsFor = [&](Fixture& into, int caller) {
    std::vector<db::SensorReading> out;
    for (int round = 0; round < kRounds; ++round) {
      for (int k = 0; k < 2; ++k) {
        out.push_back(into.reading(objectName(caller, k).c_str(),
                                   {5.0 + caller * 20.0 + round * 0.5, 5.0 + k * 20.0}));
      }
    }
    return out;
  };
  std::vector<std::vector<db::SensorReading>> shares;
  for (int c = 0; c < 4; ++c) shares.push_back(readingsFor(f, c));
  for (const auto& share : shares) {
    for (const auto& r : share) seq.service.ingest(r);
  }

  std::latch start(4);
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&, c] {
      const auto& share = shares[static_cast<std::size_t>(c)];
      start.arrive_and_wait();
      if (c % 2 == 0) {
        for (std::size_t i = 0; i < share.size(); i += 4) {
          const std::size_t n = std::min<std::size_t>(4, share.size() - i);
          f.service.ingestBatch(std::span(share).subspan(i, n));
        }
      } else {
        for (const auto& r : share) f.service.ingest(r);
      }
    });
  }
  for (auto& t : callers) t.join();

  EXPECT_EQ(f.service.ingestedReadings(), seq.service.ingestedReadings());
  for (int c = 0; c < 4; ++c) {
    for (int k = 0; k < 2; ++k) {
      const MobileObjectId who{objectName(c, k)};
      auto est = f.service.locateObject(who);
      auto want = seq.service.locateObject(who);
      ASSERT_TRUE(est.has_value() && want.has_value()) << who.str();
      EXPECT_EQ(est->region, want->region) << who.str();
      EXPECT_EQ(est->probability, want->probability) << who.str();
      EXPECT_EQ(est->cls, want->cls) << who.str();
    }
  }
}

TEST(ConcurrencyTest, TriggerCallbacksRunOutsideTheDatabaseLock) {
  // A database trigger that reenters the database must not self-deadlock.
  Fixture f;
  std::atomic<int> fired{0};
  db::TriggerSpec spec;
  spec.region = geo::Rect::fromOrigin({0, 0}, 100, 50);
  spec.callback = [&](const db::TriggerEvent& event) {
    (void)f.db.readingsFor(event.reading.mobileObjectId);  // shared lock reentry
    fired.fetch_add(1);
  };
  f.db.createTrigger(std::move(spec));
  f.service.ingest(f.reading("alice", {5, 5}));
  EXPECT_EQ(fired.load(), 1);
}

}  // namespace
}  // namespace mw::core

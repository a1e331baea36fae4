// Remote access tests: the Location Service over the MicroOrb, in-process
// and over TCP loopback (§7's CORBA deployment path).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/codec.hpp"
#include "core/middlewhere.hpp"
#include "core/registry.hpp"
#include "orb/rpc.hpp"
#include "orb/tcp.hpp"

namespace mw::core {
namespace {

using mw::util::MobileObjectId;
using mw::util::SensorId;
using mw::util::VirtualClock;

std::unique_ptr<Middlewhere> makeStack(const util::Clock& clock) {
  auto mw = std::make_unique<Middlewhere>(clock, geo::Rect::fromOrigin({0, 0}, 100, 50), "SC");
  db::SpatialObjectRow room;
  room.id = util::SpatialObjectId{"roomA"};
  room.globPrefix = "SC";
  room.objectType = db::ObjectType::Room;
  room.geometryType = db::GeometryType::Polygon;
  room.points = {{0, 0}, {20, 0}, {20, 20}, {0, 20}};
  mw->database().addObject(room);

  db::SensorMeta ubi;
  ubi.sensorId = SensorId{"ubi-1"};
  ubi.sensorType = "Ubisense";
  ubi.errorSpec = quality::ubisenseSpec(1.0);
  ubi.scaleMisidentifyByArea = true;
  ubi.quality.ttl = util::sec(30);
  mw->database().registerSensor(ubi);
  return mw;
}

db::SensorReading makeReading(const util::Clock& clock, geo::Point2 where,
                              const std::string& object = "alice") {
  db::SensorReading r;
  r.sensorId = SensorId{"ubi-1"};
  r.sensorType = "Ubisense";
  r.mobileObjectId = MobileObjectId{object};
  r.location = where;
  r.detectionRadius = 0.5;
  r.detectionTime = clock.now();
  return r;
}

/// Polls until the service has accepted `expected` readings (oneway traffic
/// has no reply to wait on).
void waitForIngested(Middlewhere& mw, std::uint64_t expected) {
  for (int i = 0; i < 2000 && mw.locationService().ingestedReadings() < expected; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(mw.locationService().ingestedReadings(), expected);
}

// --- codec ------------------------------------------------------------------------

TEST(CodecTest, RectRoundTrip) {
  util::ByteWriter w;
  encodeRect(w, geo::Rect::fromOrigin({1.5, 2.5}, 3, 4));
  encodeRect(w, geo::Rect{});
  util::ByteReader r(w.bytes());
  EXPECT_EQ(decodeRect(r), geo::Rect::fromOrigin({1.5, 2.5}, 3, 4));
  EXPECT_TRUE(decodeRect(r).empty());
}

TEST(CodecTest, ReadingRoundTrip) {
  VirtualClock clock;
  db::SensorReading reading = makeReading(clock, {7, 8});
  reading.globPrefix = "SC/3";
  reading.symbolicRegion = geo::Rect::fromOrigin({0, 0}, 5, 5);
  util::ByteWriter w;
  encodeReading(w, reading);
  util::ByteReader r(w.bytes());
  db::SensorReading back = decodeReading(r);
  EXPECT_EQ(back.sensorId, reading.sensorId);
  EXPECT_EQ(back.globPrefix, reading.globPrefix);
  EXPECT_EQ(back.mobileObjectId, reading.mobileObjectId);
  EXPECT_EQ(back.location, reading.location);
  EXPECT_EQ(back.detectionRadius, reading.detectionRadius);
  EXPECT_EQ(back.detectionTime, reading.detectionTime);
  EXPECT_EQ(back.symbolicRegion, reading.symbolicRegion);
}

TEST(CodecTest, EstimateRoundTrip) {
  fusion::LocationEstimate est;
  est.region = geo::Rect::fromOrigin({1, 2}, 3, 4);
  est.probability = 0.87;
  est.cls = fusion::ProbabilityClass::High;
  est.supporting = {SensorId{"a"}, SensorId{"b"}};
  est.discarded = {SensorId{"c"}};
  util::ByteWriter w;
  encodeEstimate(w, est);
  util::ByteReader r(w.bytes());
  auto back = decodeEstimate(r);
  EXPECT_EQ(back.region, est.region);
  EXPECT_DOUBLE_EQ(back.probability, est.probability);
  EXPECT_EQ(back.cls, est.cls);
  EXPECT_EQ(back.supporting, est.supporting);
  EXPECT_EQ(back.discarded, est.discarded);
}

// --- in-process remote ---------------------------------------------------------------

TEST(RemoteTest, LocalClientFullLoop) {
  VirtualClock clock;
  auto mw = makeStack(clock);
  auto client = mw->connectLocal();

  client->ingest(makeReading(clock, {5, 5}));
  auto est = client->locate(MobileObjectId{"alice"});
  ASSERT_TRUE(est.has_value());
  EXPECT_TRUE(est->region.contains(geo::Point2{5, 5}));
  EXPECT_EQ(client->locateSymbolic(MobileObjectId{"alice"}), "SC/roomA");
  EXPECT_GT(client->probabilityInRegion(MobileObjectId{"alice"},
                                        geo::Rect::fromOrigin({0, 0}, 20, 20)),
            0.9);
  EXPECT_EQ(client->locate(MobileObjectId{"ghost"}), std::nullopt);
}

TEST(RemoteTest, SubscriptionOverOrb) {
  VirtualClock clock;
  auto mw = makeStack(clock);
  auto client = mw->connectLocal();

  std::vector<Notification> notes;
  auto id = client->subscribe(geo::Rect::fromOrigin({0, 0}, 20, 20), std::nullopt, 0.5,
                              [&](const Notification& n) { notes.push_back(n); });
  EXPECT_TRUE(id.valid());
  client->ingest(makeReading(clock, {5, 5}));
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_EQ(notes[0].object.str(), "alice");
  EXPECT_GT(notes[0].probability, 0.5);

  EXPECT_TRUE(client->unsubscribe(id));
  client->ingest(makeReading(clock, {6, 5}));
  EXPECT_EQ(notes.size(), 1u);
}

TEST(RemoteTest, ServiceRegistryDiscovery) {
  // Gaia-style discovery: register the service, look it up, use it.
  VirtualClock clock;
  auto mw = std::make_shared<Middlewhere>(clock, geo::Rect::fromOrigin({0, 0}, 10, 10), "SC");
  ServiceRegistry registry;
  registry.registerService<Middlewhere>("LocationService", mw);
  EXPECT_EQ(registry.list(), (std::vector<std::string>{"LocationService"}));
  auto found = registry.lookup<Middlewhere>("LocationService");
  ASSERT_TRUE(found != nullptr);
  EXPECT_EQ(registry.lookup<Middlewhere>("nope"), nullptr);
  EXPECT_EQ(registry.lookup<int>("LocationService"), nullptr) << "wrong type";
  EXPECT_TRUE(registry.unregisterService("LocationService"));
  EXPECT_FALSE(registry.unregisterService("LocationService"));
}

// --- TCP remote -------------------------------------------------------------------------

TEST(RemoteTest, TcpClientFullLoop) {
  VirtualClock clock;
  auto mw = makeStack(clock);
  std::uint16_t port = mw->listen();
  auto client = Middlewhere::connectRemote("127.0.0.1", port);

  client->ingest(makeReading(clock, {5, 5}));
  auto est = client->locate(MobileObjectId{"alice"});
  ASSERT_TRUE(est.has_value());
  EXPECT_GT(est->probability, 0.9);
}

TEST(RemoteTest, OnewayIngestOverTcp) {
  VirtualClock clock;
  auto mw = makeStack(clock);
  std::uint16_t port = mw->listen();
  auto client = Middlewhere::connectRemote("127.0.0.1", port);

  client->ingestAsync(makeReading(clock, {5, 5}));
  // Oneway: no reply to wait on; poll the service until the reading lands.
  std::optional<fusion::LocationEstimate> est;
  for (int i = 0; i < 200 && !est; ++i) {
    est = client->locate(MobileObjectId{"alice"});
    if (!est) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(est.has_value());
  EXPECT_GT(est->probability, 0.9);
}

TEST(RemoteTest, TcpSubscriptionDeliversEvents) {
  VirtualClock clock;
  auto mw = makeStack(clock);
  std::uint16_t port = mw->listen();
  auto client = Middlewhere::connectRemote("127.0.0.1", port);

  std::atomic<int> count{0};
  client->subscribe(geo::Rect::fromOrigin({0, 0}, 20, 20), std::nullopt, 0.5,
                    [&](const Notification&) { count.fetch_add(1); });
  client->ingest(makeReading(clock, {5, 5}));
  for (int i = 0; i < 200 && count.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(count.load(), 1);
}

// --- wire batches -----------------------------------------------------------------

TEST(IngestBatchTest, BlockingBatchLandsEveryReading) {
  VirtualClock clock;
  auto mw = makeStack(clock);
  auto client = mw->connectLocal();

  std::vector<db::SensorReading> batch;
  for (int i = 0; i < 10; ++i) {
    batch.push_back(makeReading(clock, {1.0 + i, 5}, "obj" + std::to_string(i % 3)));
  }
  client->ingestBatch(batch);
  EXPECT_EQ(mw->locationService().ingestedBatches(), 1u);
  EXPECT_EQ(mw->locationService().ingestedReadings(), 10u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(client->locate(MobileObjectId{"obj" + std::to_string(i)}).has_value()) << i;
  }
}

TEST(IngestBatchTest, EmptyBatchIsANoop) {
  VirtualClock clock;
  auto mw = makeStack(clock);
  auto client = mw->connectLocal();
  client->ingestBatch({});
  client->ingestBatchAsync({});
  EXPECT_EQ(mw->locationService().ingestedReadings(), 0u);
}

TEST(IngestBatchTest, OnewayBatchOverTcpDrains) {
  VirtualClock clock;
  auto mw = makeStack(clock);
  std::uint16_t port = mw->listen();
  auto client = Middlewhere::connectRemote("127.0.0.1", port);

  std::vector<db::SensorReading> batch;
  for (int i = 0; i < 32; ++i) batch.push_back(makeReading(clock, {5, 5}));
  client->ingestBatchAsync(batch);
  waitForIngested(*mw, 32);
  EXPECT_EQ(mw->locationService().ingestedBatches(), 1u);
  EXPECT_TRUE(client->locate(MobileObjectId{"alice"}).has_value());
}

TEST(IngestBatchTest, RemoteBatchMatchesSequentialOracle) {
  // The same reading sequence, ingested one call at a time into one stack and
  // as wire batches through the dispatcher into another, must produce
  // byte-identical location estimates: batch ingest preserves each object's
  // reading order.
  VirtualClock clock;
  const std::vector<std::string> objects{"bob", "carol", "dave"};
  std::vector<db::SensorReading> sequence;
  for (int i = 0; i < 60; ++i) {
    const auto& who = objects[static_cast<std::size_t>(i) % objects.size()];
    sequence.push_back(makeReading(clock, {1.0 + (i % 18), 1.0 + (i % 12)}, who));
  }

  auto sequential = makeStack(clock);
  auto seqClient = sequential->connectLocal();
  for (const auto& r : sequence) seqClient->ingest(r);

  auto batched = makeStack(clock);
  std::uint16_t port = batched->listen();
  auto batchClient = Middlewhere::connectRemote("127.0.0.1", port);
  for (std::size_t off = 0; off < sequence.size(); off += 20) {
    batchClient->ingestBatch(
        std::span<const db::SensorReading>(sequence).subspan(off, 20));
  }

  for (const auto& who : objects) {
    auto a = seqClient->locate(MobileObjectId{who});
    auto b = batchClient->locate(MobileObjectId{who});
    ASSERT_TRUE(a.has_value()) << who;
    ASSERT_TRUE(b.has_value()) << who;
    util::ByteWriter wa, wb;
    encodeEstimate(wa, *a);
    encodeEstimate(wb, *b);
    EXPECT_EQ(wa.bytes(), wb.bytes()) << who;
  }
}

TEST(IngestBatchTest, BatchingClientFlushesBySize) {
  VirtualClock clock;
  auto mw = makeStack(clock);
  std::uint16_t port = mw->listen();
  auto rpc = std::make_shared<orb::RpcClient>(orb::tcpConnect("127.0.0.1", port));

  BatchingIngestClient::Options opts;
  opts.maxBatch = 4;
  opts.maxDelay = util::sec(60);  // never fires in this test
  BatchingIngestClient batcher(rpc, opts);
  for (int i = 0; i < 8; ++i) batcher.ingest(makeReading(clock, {5, 5}));
  waitForIngested(*mw, 8);
  EXPECT_EQ(batcher.batchesSent(), 2u);
  EXPECT_EQ(batcher.readingsSent(), 8u);
  EXPECT_EQ(mw->locationService().ingestedBatches(), 2u);
}

TEST(IngestBatchTest, BatchingClientFlushesOnDeadline) {
  VirtualClock clock;
  auto mw = makeStack(clock);
  std::uint16_t port = mw->listen();
  auto rpc = std::make_shared<orb::RpcClient>(orb::tcpConnect("127.0.0.1", port));

  BatchingIngestClient::Options opts;
  opts.maxBatch = 1000;  // size threshold never reached
  opts.maxDelay = util::msec(5);
  BatchingIngestClient batcher(rpc, opts);
  batcher.ingest(makeReading(clock, {5, 5}));
  batcher.ingest(makeReading(clock, {6, 5}));
  waitForIngested(*mw, 2);  // the flusher thread shipped the partial batch
  EXPECT_EQ(batcher.batchesSent(), 1u);
}

TEST(IngestBatchTest, BatchingClientFlushesOnDestructionAndExplicitly) {
  VirtualClock clock;
  auto mw = makeStack(clock);
  std::uint16_t port = mw->listen();
  auto rpc = std::make_shared<orb::RpcClient>(orb::tcpConnect("127.0.0.1", port));

  BatchingIngestClient::Options opts;
  opts.maxBatch = 1000;
  opts.maxDelay = util::sec(60);
  {
    BatchingIngestClient batcher(rpc, opts);
    batcher.ingest(makeReading(clock, {5, 5}));
    batcher.flush();
    EXPECT_EQ(batcher.batchesSent(), 1u);
    batcher.flush();  // empty buffer: no extra batch
    EXPECT_EQ(batcher.batchesSent(), 1u);
    batcher.ingest(makeReading(clock, {6, 5}));
    batcher.ingest(makeReading(clock, {7, 5}));
  }  // destructor ships the remainder
  waitForIngested(*mw, 3);
  EXPECT_EQ(mw->locationService().ingestedBatches(), 2u);
}

TEST(IngestBatchTest, BatchingClientCountsFlushFailuresOnDeadConnection) {
  VirtualClock clock;
  auto mw = makeStack(clock);
  std::uint16_t port = mw->listen();
  auto rpc = std::make_shared<orb::RpcClient>(orb::tcpConnect("127.0.0.1", port));

  BatchingIngestClient::Options opts;
  opts.maxBatch = 1000;
  opts.maxDelay = util::sec(60);
  BatchingIngestClient batcher(rpc, opts);
  batcher.ingest(makeReading(clock, {5, 5}));
  batcher.flush();
  EXPECT_EQ(batcher.flushFailures(), 0u);
  EXPECT_EQ(batcher.droppedReadings(), 0u);

  mw.reset();  // the service dies with readings still to come

  // A flush on the dead connection drops the batch — oneway semantics, the
  // caller keeps running — but the drop must be counted, not swallowed.
  // TCP surfaces the peer's death lazily (first write after close may still
  // be buffered), so feed flushes until the failure registers.
  for (int i = 0; i < 200 && batcher.flushFailures() == 0; ++i) {
    batcher.ingest(makeReading(clock, {6, 5}));
    batcher.flush();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(batcher.flushFailures(), 0u);
  EXPECT_GT(batcher.droppedReadings(), 0u);
}

// --- concurrent serving -----------------------------------------------------------

TEST(RemoteConcurrencyTest, ManyClientsMixedWorkloadOverTcp) {
  // The TSan workhorse: several clients hammer one server with every method
  // concurrently — blocking ingest, oneway ingest, pull queries,
  // subscribe/unsubscribe churn — through the dispatcher lanes.
  VirtualClock clock;
  auto mw = makeStack(clock);
  ASSERT_GT(mw->rpcServer().dispatchLanes(), 0u) << "dispatcher on by default";
  std::uint16_t port = mw->listen();

  constexpr int kThreads = 4;
  constexpr int kIters = 25;
  std::atomic<int> notifications{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      auto client = Middlewhere::connectRemote("127.0.0.1", port);
      const std::string mine = "obj" + std::to_string(t);
      for (int i = 0; i < kIters; ++i) {
        client->ingest(makeReading(clock, {1.0 + t, 1.0 + (i % 10)}, mine));
        client->ingestAsync(makeReading(clock, {2.0 + t, 1.0 + (i % 10)}, "shared"));
        (void)client->locate(MobileObjectId{mine});
        (void)client->locateSymbolic(MobileObjectId{"shared"});
        (void)client->probabilityInRegion(MobileObjectId{mine},
                                          geo::Rect::fromOrigin({0, 0}, 20, 20));
        if (i % 5 == 0) {
          auto id = client->subscribe(geo::Rect::fromOrigin({0, 0}, 20, 20), std::nullopt,
                                      0.5, [&](const Notification&) {
                                        notifications.fetch_add(1, std::memory_order_relaxed);
                                      });
          client->ingest(makeReading(clock, {3.0 + t, 4}, mine));
          client->unsubscribe(id);
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  const auto perThread = kIters * 2 + kIters / 5;  // blocking + oneway + subscribe probes
  waitForIngested(*mw, static_cast<std::uint64_t>(kThreads * perThread));
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(mw->locationService().locateObject(MobileObjectId{"obj" + std::to_string(t)}))
        << t;
  }
  const auto stats = mw->rpcServer().stats();
  EXPECT_EQ(stats.undecodableFrames, 0u);
  EXPECT_EQ(stats.unknownMethodErrors, 0u);
  EXPECT_GT(stats.dispatchedRequests, 0u);
  EXPECT_GT(notifications.load(), 0);
}

TEST(RemoteConcurrencyTest, ConcurrentSameObjectIngestKeepsLaneOrder) {
  // Two connections racing on the same object: the hash(object) lane rule
  // serializes them onto one lane, so the last write each connection sends
  // is one of the two final positions (no interleaving corruption), and the
  // estimate stays well-formed throughout.
  VirtualClock clock;
  auto mw = makeStack(clock);
  std::uint16_t port = mw->listen();

  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&, t] {
      auto client = Middlewhere::connectRemote("127.0.0.1", port);
      for (int i = 0; i < 50; ++i) {
        client->ingestAsync(makeReading(clock, {1.0 + t * 10, 1.0 + (i % 15)}, "alice"));
      }
    });
  }
  std::thread reader([&] {
    auto client = Middlewhere::connectRemote("127.0.0.1", port);
    for (int i = 0; i < 30; ++i) {
      auto est = client->locate(MobileObjectId{"alice"});
      if (est) {
        EXPECT_GE(est->probability, 0.0);
        EXPECT_LE(est->probability, 1.0);
      }
    }
  });
  for (auto& w : writers) w.join();
  reader.join();
  waitForIngested(*mw, 100);
  EXPECT_TRUE(mw->locationService().locateObject(MobileObjectId{"alice"}).has_value());
}

}  // namespace
}  // namespace mw::core

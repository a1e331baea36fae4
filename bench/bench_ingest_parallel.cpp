// Batch ingest: throughput of LocationService::ingestBatch, which applies a
// batch in order on the calling thread, with and without live
// subscriptions, plus four concurrent callers on disjoint objects — the
// multi-caller path (ORB dispatcher lanes, adapters) the striped reading
// store serves without a database-wide lock. How far four callers scale
// depends on the host's core count, recorded in the JSON context as
// "hardware_concurrency"; the per-iteration counters report how often
// callers still met on a per-object writer lock.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/location_service.hpp"
#include "sim/blueprint.hpp"
#include "util/rng.hpp"

using namespace mw;

namespace {

struct Fixture {
  util::VirtualClock clock;
  sim::Blueprint bp;
  std::unique_ptr<db::SpatialDatabase> database;
  std::unique_ptr<core::LocationService> service;

  explicit Fixture(int sensors = 2)
      : bp(sim::generateBlueprint({.floors = 2, .roomsPerSide = 8})) {
    database = std::make_unique<db::SpatialDatabase>(clock, bp.universe, bp.frames());
    bp.populate(*database);
    service = std::make_unique<core::LocationService>(clock, *database);
    for (int s = 0; s < sensors; ++s) {
      db::SensorMeta meta;
      meta.sensorId = util::SensorId{"ubi-" + std::to_string(s)};
      meta.sensorType = "Ubisense";
      meta.errorSpec = quality::ubisenseSpec(1.0);
      meta.scaleMisidentifyByArea = true;
      meta.quality.ttl = util::minutes(10);
      database->registerSensor(meta);
    }
  }

  /// One reading per (person, sensor), people scattered over the universe
  /// and named `prefix` + index.
  std::vector<db::SensorReading> makeBatch(int people, int sensors,
                                           const std::string& prefix = "p") {
    util::Rng rng{7};
    std::vector<db::SensorReading> batch;
    batch.reserve(static_cast<std::size_t>(people) * sensors);
    for (int p = 0; p < people; ++p) {
      geo::Point2 where{rng.uniform(10, bp.universe.hi().x - 10),
                        rng.uniform(10, bp.universe.hi().y - 10)};
      for (int s = 0; s < sensors; ++s) {
        db::SensorReading r;
        r.sensorId = util::SensorId{"ubi-" + std::to_string(s)};
        r.sensorType = "Ubisense";
        r.mobileObjectId = util::MobileObjectId{prefix + std::to_string(p)};
        r.location = {where.x + rng.gaussian(0, 0.2), where.y + rng.gaussian(0, 0.2)};
        r.detectionRadius = 0.5 + s;
        r.detectionTime = clock.now();
        batch.push_back(std::move(r));
      }
    }
    return batch;
  }
};

}  // namespace

// Pure storage path: no subscriptions, so each ingest is an insert + trigger
// scan only (no fusion).
static void BM_IngestBatch(benchmark::State& state) {
  Fixture f;
  std::vector<db::SensorReading> batch = f.makeBatch(64, 2);
  for (auto _ : state) {
    for (auto& r : batch) r.detectionTime = f.clock.now();
    f.service->ingestBatch(batch);
    f.clock.advance(util::msec(100));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch.size()));
  state.counters["writer_contentions"] =
      static_cast<double>(f.service->ingestWriterContentions());
  state.counters["snapshot_retries"] = static_cast<double>(f.service->ingestSnapshotRetries());
}
BENCHMARK(BM_IngestBatch)->UseRealTime();

// With live subscriptions each reading that touches a subscribed region pays
// a fused evaluation — the dominant per-reading cost.
static void BM_IngestBatchWithSubscriptions(benchmark::State& state) {
  Fixture f;
  // A wall-to-wall subscription: every reading triggers an evaluation.
  f.service->subscribe({f.bp.universe, std::nullopt, 0.01, std::nullopt, false,
                        [](const core::Notification&) {}});
  std::vector<db::SensorReading> batch = f.makeBatch(64, 2);
  for (auto _ : state) {
    for (auto& r : batch) r.detectionTime = f.clock.now();
    f.service->ingestBatch(batch);
    f.clock.advance(util::msec(100));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch.size()));
  state.counters["writer_contentions"] =
      static_cast<double>(f.service->ingestWriterContentions());
  state.counters["snapshot_retries"] = static_cast<double>(f.service->ingestSnapshotRetries());
  state.SetLabel("1 region sub");
}
BENCHMARK(BM_IngestBatchWithSubscriptions)->UseRealTime();

// Four callers, each batch-ingesting its own 64 people into one shared
// service (no subscriptions): items/s sums over the callers.
static std::unique_ptr<Fixture> sharedCallersFixture;

static void BM_IngestBatchConcurrentCallers(benchmark::State& state) {
  if (state.thread_index() == 0) sharedCallersFixture = std::make_unique<Fixture>();
  std::vector<db::SensorReading> batch;
  for (auto _ : state) {
    Fixture& f = *sharedCallersFixture;  // built by thread 0 before the start barrier
    if (batch.empty()) batch = f.makeBatch(64, 2, "t" + std::to_string(state.thread_index()) + "p");
    for (auto& r : batch) r.detectionTime = f.clock.now();
    f.service->ingestBatch(batch);
    f.clock.advance(util::msec(25));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch.size()));
  if (state.thread_index() == 0) {
    state.counters["writer_contentions"] =
        static_cast<double>(sharedCallersFixture->service->ingestWriterContentions());
    state.counters["snapshot_retries"] =
        static_cast<double>(sharedCallersFixture->service->ingestSnapshotRetries());
    sharedCallersFixture.reset();  // after the stop barrier: the others are done
  }
  state.SetLabel(std::to_string(state.threads()) + " callers");
}
BENCHMARK(BM_IngestBatchConcurrentCallers)->Threads(4)->UseRealTime();

// Sequential loop over the same batch for an apples-to-apples baseline
// against BM_IngestBatch: one ingest() call (tap, gate) per reading.
static void BM_IngestSequentialLoop(benchmark::State& state) {
  Fixture f;
  std::vector<db::SensorReading> batch = f.makeBatch(64, 2);
  for (auto _ : state) {
    for (auto& r : batch) {
      r.detectionTime = f.clock.now();
      f.service->ingest(r);
    }
    f.clock.advance(util::msec(100));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_IngestSequentialLoop)->UseRealTime();

// Custom main: stamp the host's core count into the JSON context so the
// concurrent-caller row in BENCH_ingest.json is interpretable per host (a
// 1-core runner cannot show >1x scaling no matter what the store does).
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("hardware_concurrency",
                              std::to_string(std::thread::hardware_concurrency()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

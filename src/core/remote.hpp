// Remote access to the Location Service over the MicroOrb (§7).
//
// "Gaia applications can discover the location service component of
// MiddleWhere by querying the Gaia Space Repository service ... applications
// can then talk directly to the location service. To access location
// information, we provide push and pull models."
//
// exposeLocationService() registers the RPC methods on a server; the
// RemoteLocationClient is the typed stub applications use. Subscriptions
// arrive back as MicroOrb events on topic "notify.<subscriptionId>".
//
// Concurrency model: the paper's deployment ran a single-threaded CORBA POA,
// and this layer used to mirror it with one mutex around every method. The
// LocationService is now thread-safe (reader/writer locks, striped reading
// store, epoch-stamped caches), so the gate is gone: pull queries call the
// service directly from whichever thread carries the request, and with
// RpcServer::enableDispatcher the server fans requests out over executor
// lanes. Ordering-sensitive methods route deterministically — "ingest" by
// hash(object) so one object's readings keep their relative order across
// lanes (the PR-3 shard invariant, lifted to the transport layer), and
// "ingestBatch" by connection so one adapter's batches stay FIFO — while
// "locate"/"locateSymbolic"/"probabilityInRegion" spread round-robin so a
// query storm is never serialized behind ingest traffic.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "core/location_service.hpp"
#include "orb/rpc.hpp"

namespace mw::core {

/// Registers the service's methods ("ingest", "ingestBatch", "importBatch",
/// "locate",
/// "locateSymbolic", "probabilityInRegion", "probabilityInRegionEx",
/// "objectsInRegion", "subscribe", "unsubscribe", "ping") on the RPC
/// server, with the lane routing rules described above.
/// Subscription notifications are published as events through the server.
/// The service must be configured (regions, sensors) before traffic arrives;
/// enable concurrency with server.enableDispatcher(lanes).
void exposeLocationService(orb::RpcServer& server, LocationService& service);

/// Typed client stub over an RpcClient connection.
class RemoteLocationClient {
 public:
  explicit RemoteLocationClient(std::shared_ptr<orb::RpcClient> rpc);

  /// Uninstalls the this-capturing event handler from the (possibly shared)
  /// RpcClient before the callback table dies; onEvent's quiesce guarantee
  /// makes this safe against a delivery in flight on the reader thread.
  ~RemoteLocationClient();

  RemoteLocationClient(const RemoteLocationClient&) = delete;
  RemoteLocationClient& operator=(const RemoteLocationClient&) = delete;

  /// Push a sensor reading to the remote service (adapter path).
  void ingest(const db::SensorReading& reading);

  /// Oneway variant: returns as soon as the reading is on the wire, without
  /// waiting for the service to process it (high-rate adapters).
  void ingestAsync(const db::SensorReading& reading);

  /// Ships a whole batch as ONE wire frame feeding
  /// LocationService::ingestBatch — one framing + syscall round trip instead
  /// of one per reading. Blocks until the server has processed the batch.
  void ingestBatch(std::span<const db::SensorReading> readings);

  /// Oneway batch: one frame on the wire, no reply awaited.
  void ingestBatchAsync(std::span<const db::SensorReading> readings);

  /// The remote service's full stored history for one object, insertion
  /// order (replication / handoff transfer). Executes on the object's ingest
  /// lane, so it observes every ingest enqueued before it.
  [[nodiscard]] std::vector<db::SensorReading> exportReadings(
      const util::MobileObjectId& object);

  /// The replay half of a handoff: ships readings into the remote service's
  /// importBatch (stored without firing triggers or passing the ingest tap).
  /// Blocks until applied.
  void importBatch(std::span<const db::SensorReading> readings);

  [[nodiscard]] std::optional<fusion::LocationEstimate> locate(
      const util::MobileObjectId& object);

  /// Symbolic location as a GLOB string ("" when unknown).
  [[nodiscard]] std::string locateSymbolic(const util::MobileObjectId& object);

  [[nodiscard]] double probabilityInRegion(const util::MobileObjectId& object,
                                           const geo::Rect& region);

  /// probabilityInRegion plus whether the answering service actually holds
  /// sensor evidence for the object. A service with no readings answers with
  /// the bare prior mass of the region — indistinguishable from a real fused
  /// value by number alone, so scatter-gather routers need the flag to pick
  /// the owning shard's answer over the (N-1) evidence-free priors.
  struct RegionProbability {
    double probability = 0;
    bool hasEvidence = false;
  };
  [[nodiscard]] RegionProbability probabilityInRegionEx(const util::MobileObjectId& object,
                                                        const geo::Rect& region);

  /// Region population query (mirrors LocationService::objectsInRegion):
  /// members with fused P(inside) >= minProbability, sorted by descending
  /// probability with ties broken by object id.
  using Members = std::vector<std::pair<util::MobileObjectId, double>>;
  [[nodiscard]] Members objectsInRegion(const geo::Rect& region, double minProbability);

  /// Round-trip liveness check; throws like any call when the peer is gone.
  void ping();

  /// Start halves of the calls above: each puts its request on the wire
  /// and returns at once, so a caller can have requests to many services in
  /// flight before waiting on any (rpc()->wait). The decode halves turn the
  /// reply into the blocking method's result; ingestBatch and ping replies
  /// carry nothing to decode.
  [[nodiscard]] orb::RpcClient::Call startIngestBatch(std::span<const db::SensorReading> readings);
  [[nodiscard]] orb::RpcClient::Call startProbabilityInRegionEx(const util::MobileObjectId& object,
                                                                const geo::Rect& region);
  [[nodiscard]] static RegionProbability decodeProbabilityInRegionEx(const util::Bytes& reply);
  [[nodiscard]] orb::RpcClient::Call startObjectsInRegion(const geo::Rect& region,
                                                          double minProbability);
  [[nodiscard]] static Members decodeObjectsInRegion(const util::Bytes& reply);
  [[nodiscard]] orb::RpcClient::Call startPing();

  /// Deadline applied to every blocking call made through this stub
  /// (delegates to the underlying RpcClient).
  void setCallTimeout(util::Duration timeout);

  /// Region-entry subscription; notifications arrive on the callback from
  /// the client's event thread.
  util::SubscriptionId subscribe(const geo::Rect& region,
                                 std::optional<util::MobileObjectId> subject, double threshold,
                                 std::function<void(const Notification&)> callback);

  /// Aggregate (density) subscription; count-change notifications arrive on
  /// topic "density.<id>". The handle carries the region population at
  /// subscribe time so monitors start from the true count.
  struct DensityHandle {
    util::SubscriptionId id;
    std::size_t initialCount = 0;
  };
  DensityHandle subscribeDensity(const geo::Rect& region, double minProbability,
                                 std::size_t limit,
                                 std::function<void(const DensityNotification&)> callback);

  bool unsubscribe(util::SubscriptionId id);

  /// The underlying connection — escape hatch for sideband methods hosts
  /// register on the same server next to the service (e.g. the cluster's
  /// migrate.* protocol).
  [[nodiscard]] const std::shared_ptr<orb::RpcClient>& rpc() const noexcept { return rpc_; }

 private:
  /// Waits for a started call under the connection's default deadline.
  util::Bytes finish(const orb::RpcClient::Call& call);

  std::shared_ptr<orb::RpcClient> rpc_;
  std::mutex mutex_;
  std::unordered_map<std::uint64_t, std::function<void(const Notification&)>> callbacks_;
  std::unordered_map<std::uint64_t, std::function<void(const DensityNotification&)>>
      densityCallbacks_;
};

/// Adapter-side coalescer: buffers single readings and ships them as oneway
/// "ingestBatch" frames, cutting per-reading framing + syscall cost for
/// high-rate adapters. A batch goes on the wire when `maxBatch` readings are
/// buffered, when `maxDelay` (wall clock — this is wire pacing, not model
/// time) has elapsed since the first buffered reading, on flush(), and on
/// destruction. Sends happen under the buffer lock, so readings from any
/// number of producer threads leave in buffered order. ingest() fits
/// adapters::LocationAdapter::Sink directly.
class BatchingIngestClient {
 public:
  struct Options {
    std::size_t maxBatch = 64;
    util::Duration maxDelay = util::msec(5);
  };

  explicit BatchingIngestClient(std::shared_ptr<orb::RpcClient> rpc)
      : BatchingIngestClient(std::move(rpc), Options()) {}
  BatchingIngestClient(std::shared_ptr<orb::RpcClient> rpc, Options options);
  ~BatchingIngestClient();

  BatchingIngestClient(const BatchingIngestClient&) = delete;
  BatchingIngestClient& operator=(const BatchingIngestClient&) = delete;

  /// Buffers one reading; sends a batch when the size threshold is reached.
  void ingest(const db::SensorReading& reading);

  /// Sends whatever is buffered now.
  void flush();

  [[nodiscard]] std::uint64_t batchesSent() const noexcept {
    return batchesSent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t readingsSent() const noexcept {
    return readingsSent_.load(std::memory_order_relaxed);
  }
  /// Flushes that failed on a dead connection. Oneway semantics drop the
  /// batch (callers keep running), but the drop is counted and logged at
  /// warn — it used to vanish silently, which made "did the destructor lose
  /// my readings?" unanswerable in tests.
  [[nodiscard]] std::uint64_t flushFailures() const noexcept {
    return flushFailures_.load(std::memory_order_relaxed);
  }
  /// Readings lost to failed flushes (the sum of the dropped batch sizes).
  [[nodiscard]] std::uint64_t droppedReadings() const noexcept {
    return droppedReadings_.load(std::memory_order_relaxed);
  }

 private:
  /// Encodes and sends buffer_ (mutex_ held), clearing it.
  void sendLocked();
  void flusherLoop();

  std::shared_ptr<orb::RpcClient> rpc_;
  Options options_;

  std::mutex mutex_;
  std::condition_variable wake_;
  std::vector<db::SensorReading> buffer_;
  std::chrono::steady_clock::time_point deadline_{};
  bool stopping_ = false;
  std::atomic<std::uint64_t> batchesSent_{0};
  std::atomic<std::uint64_t> readingsSent_{0};
  std::atomic<std::uint64_t> flushFailures_{0};
  std::atomic<std::uint64_t> droppedReadings_{0};
  std::thread flusher_;
};

}  // namespace mw::core

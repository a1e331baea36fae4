#include "core/remote.hpp"

#include <chrono>
#include <string>
#include <utility>

#include "core/codec.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace mw::core {

using util::ByteReader;
using util::Bytes;
using util::ByteWriter;

namespace {

Bytes encodeNotification(const Notification& n) {
  ByteWriter w;
  w.u64(n.id.value());
  w.str(n.object.str());
  encodeRect(w, n.region);
  w.f64(n.probability);
  w.u8(static_cast<std::uint8_t>(n.cls));
  w.i64(n.when.time_since_epoch().count());
  return w.take();
}

Notification decodeNotification(const Bytes& payload) {
  ByteReader r(payload);
  Notification n;
  n.id = util::SubscriptionId{r.u64()};
  n.object = util::MobileObjectId{r.str()};
  n.region = decodeRect(r);
  n.probability = r.f64();
  n.cls = static_cast<fusion::ProbabilityClass>(r.u8());
  n.when = util::TimePoint{util::Duration{r.i64()}};
  return n;
}

Bytes encodeDensityNotification(const DensityNotification& n) {
  ByteWriter w;
  w.u64(n.id.value());
  encodeRect(w, n.region);
  w.u64(n.count);
  w.u64(n.limit);
  w.u8(static_cast<std::uint8_t>(n.edge));
  w.str(n.object.str());
  w.i64(n.when.time_since_epoch().count());
  return w.take();
}

DensityNotification decodeDensityNotification(const Bytes& payload) {
  ByteReader r(payload);
  DensityNotification n;
  n.id = util::SubscriptionId{r.u64()};
  n.region = decodeRect(r);
  n.count = static_cast<std::size_t>(r.u64());
  n.limit = static_cast<std::size_t>(r.u64());
  n.edge = static_cast<cq::CountEdge>(r.u8());
  n.object = util::MobileObjectId{r.str()};
  n.when = util::TimePoint{util::Duration{r.i64()}};
  return n;
}

Bytes encodeReadingBatch(std::span<const db::SensorReading> readings) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(readings.size()));
  for (const auto& reading : readings) encodeReading(w, reading);
  return w.take();
}

std::vector<db::SensorReading> decodeReadingBatch(const Bytes& payload) {
  ByteReader r(payload);
  std::vector<db::SensorReading> readings;
  const std::uint32_t count = r.u32();
  readings.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) readings.push_back(decodeReading(r));
  return readings;
}

/// Lane rule for "ingest": hash(object), skipping the three string fields
/// that precede mobileObjectId on the wire (codec.cpp layout). Same object
/// => same lane => the object's readings keep their relative order across
/// however many connections feed the server — the in-process per-object
/// shard invariant, enforced at the transport layer.
std::size_t readingObjectLane(const Bytes& payload, std::uintptr_t /*connection*/) {
  ByteReader r(payload);
  r.str();  // sensorId
  r.str();  // globPrefix
  r.str();  // sensorType
  return std::hash<std::string>{}(r.str());
}

}  // namespace

void exposeLocationService(orb::RpcServer& server, LocationService& service) {
  // No gate: the LocationService is thread-safe (see remote.hpp). Ordering
  // is preserved where it matters by lane routing, not by serialization.
  server.registerMethod(
      "ingest",
      [&service](const Bytes& args) -> Bytes {
        ByteReader r(args);
        db::SensorReading reading = decodeReading(r);
        service.ingest(reading);
        return {};
      },
      readingObjectLane);

  // Batches ride the connection lane (the dispatcher default): one adapter's
  // batches stay FIFO relative to each other, and the service's own sharded
  // ingestBatch preserves per-object order inside each batch.
  server.registerMethod("ingestBatch", [&service](const Bytes& args) -> Bytes {
    std::vector<db::SensorReading> readings = decodeReadingBatch(args);
    service.ingestBatch(readings);
    return {};
  });

  // The replay half of a handoff: stores without firing triggers or passing
  // the ingest tap (see LocationService::importBatch). Connection lane —
  // a handoff's import must not overtake its earlier imports.
  server.registerMethod("importBatch", [&service](const Bytes& args) -> Bytes {
    std::vector<db::SensorReading> readings = decodeReadingBatch(args);
    service.importBatch(readings);
    return {};
  });

  server.registerMethod(
      "locate",
      [&service](const Bytes& args) -> Bytes {
        ByteReader r(args);
        util::MobileObjectId object{r.str()};
        ByteWriter w;
        auto est = service.locateObject(object);
        w.boolean(est.has_value());
        if (est) encodeEstimate(w, *est);
        return w.take();
      },
      orb::RpcServer::roundRobinLanes());

  server.registerMethod(
      "locateSymbolic",
      [&service](const Bytes& args) -> Bytes {
        ByteReader r(args);
        util::MobileObjectId object{r.str()};
        auto symbolic = service.locateSymbolic(object);
        ByteWriter w;
        w.str(symbolic ? symbolic->str() : "");
        return w.take();
      },
      orb::RpcServer::roundRobinLanes());

  server.registerMethod(
      "probabilityInRegion",
      [&service](const Bytes& args) -> Bytes {
        ByteReader r(args);
        util::MobileObjectId object{r.str()};
        geo::Rect region = decodeRect(r);
        ByteWriter w;
        w.f64(service.probabilityInRegion(object, region));
        return w.take();
      },
      orb::RpcServer::roundRobinLanes());

  // The scatter-gather variant: the probability plus an evidence flag, so a
  // router can tell the owning shard's fused answer from the bare prior a
  // shard with no readings for the object would report.
  server.registerMethod(
      "probabilityInRegionEx",
      [&service](const Bytes& args) -> Bytes {
        ByteReader r(args);
        util::MobileObjectId object{r.str()};
        geo::Rect region = decodeRect(r);
        auto state = service.fusedStateFor(object);
        ByteWriter w;
        w.f64(service.engine().probabilityInRegion(region, *state));
        w.boolean(!state->active.empty());
        return w.take();
      },
      orb::RpcServer::roundRobinLanes());

  server.registerMethod(
      "objectsInRegion",
      [&service](const Bytes& args) -> Bytes {
        ByteReader r(args);
        geo::Rect region = decodeRect(r);
        double minProbability = r.f64();
        auto members = service.objectsInRegion(region, minProbability);
        ByteWriter w;
        w.u32(static_cast<std::uint32_t>(members.size()));
        for (const auto& [object, probability] : members) {
          w.str(object.str());
          w.f64(probability);
        }
        return w.take();
      },
      orb::RpcServer::roundRobinLanes());

  // The replication/handoff export: one object's full history ring, in
  // insertion order. Routed by hash(object) — the SAME lane rule as "ingest"
  // (the object id is the first wire field here, the fourth there) — so an
  // export enqueued behind pending ingests for the object observes them all:
  // the property handoff relies on to not lose in-flight readings.
  server.registerMethod(
      "exportReadings",
      [&service](const Bytes& args) -> Bytes {
        ByteReader r(args);
        util::MobileObjectId object{r.str()};
        return encodeReadingBatch(service.database().exportObjectLog(object));
      },
      [](const Bytes& payload, std::uintptr_t /*connection*/) {
        ByteReader r(payload);
        return std::hash<std::string>{}(r.str());
      });

  // Liveness probe: answers as long as the serving path is alive. Routers
  // use it to re-admit a shard that was marked down.
  server.registerMethod(
      "ping", [](const Bytes&) -> Bytes { return {}; }, orb::RpcServer::roundRobinLanes());

  // subscribe/unsubscribe keep the connection lane: a client that
  // unsubscribes right after subscribing must see the two execute in order.
  server.registerMethod("subscribe", [&service, &server](const Bytes& args) -> Bytes {
    ByteReader r(args);
    Subscription sub;
    sub.region = decodeRect(r);
    if (r.boolean()) sub.subject = util::MobileObjectId{r.str()};
    sub.threshold = r.f64();
    // Bridge notifications onto the ORB as events; the subscription id is
    // embedded in the topic so the client can dispatch.
    sub.callback = [&server](const Notification& n) {
      server.publish("notify." + std::to_string(n.id.value()), encodeNotification(n));
    };
    util::SubscriptionId id = service.subscribe(std::move(sub));
    ByteWriter w;
    w.u64(id.value());
    return w.take();
  });

  server.registerMethod("subscribeDensity", [&service, &server](const Bytes& args) -> Bytes {
    ByteReader r(args);
    DensitySubscription sub;
    sub.region = decodeRect(r);
    sub.minProbability = r.f64();
    sub.limit = static_cast<std::size_t>(r.u64());
    sub.callback = [&server](const DensityNotification& n) {
      server.publish("density." + std::to_string(n.id.value()), encodeDensityNotification(n));
    };
    LocationService::DensityHandle handle = service.subscribeDensity(std::move(sub));
    ByteWriter w;
    w.u64(handle.id.value());
    w.u64(handle.initialCount);
    return w.take();
  });

  server.registerMethod("unsubscribe", [&service](const Bytes& args) -> Bytes {
    ByteReader r(args);
    util::SubscriptionId id{r.u64()};
    ByteWriter w;
    w.boolean(service.unsubscribe(id));
    return w.take();
  });
}

RemoteLocationClient::RemoteLocationClient(std::shared_ptr<orb::RpcClient> rpc)
    : rpc_(std::move(rpc)) {
  mw::util::require(static_cast<bool>(rpc_), "RemoteLocationClient: null rpc client");
  rpc_->onEvent([this](const std::string& topic, const Bytes& payload) {
    constexpr std::string_view kPrefix = "notify.";
    constexpr std::string_view kDensityPrefix = "density.";
    if (topic.rfind(kDensityPrefix, 0) == 0) {
      std::uint64_t id = std::stoull(topic.substr(kDensityPrefix.size()));
      std::function<void(const DensityNotification&)> callback;
      {
        std::lock_guard lock(mutex_);
        auto it = densityCallbacks_.find(id);
        if (it != densityCallbacks_.end()) callback = it->second;
      }
      if (callback) callback(decodeDensityNotification(payload));
      return;
    }
    if (topic.rfind(kPrefix, 0) != 0) return;
    std::uint64_t id = std::stoull(topic.substr(kPrefix.size()));
    std::function<void(const Notification&)> callback;
    {
      std::lock_guard lock(mutex_);
      auto it = callbacks_.find(id);
      if (it != callbacks_.end()) callback = it->second;
    }
    if (callback) callback(decodeNotification(payload));
  });
}

RemoteLocationClient::~RemoteLocationClient() {
  // The rpc client may outlive this stub (shared connection pools), so the
  // stub must pull its handler out; onEvent blocks until any in-flight
  // delivery on the reader thread has drained.
  rpc_->onEvent(nullptr);
}

void RemoteLocationClient::ingest(const db::SensorReading& reading) {
  ByteWriter w;
  encodeReading(w, reading);
  rpc_->call("ingest", w.take());
}

void RemoteLocationClient::ingestAsync(const db::SensorReading& reading) {
  ByteWriter w;
  encodeReading(w, reading);
  rpc_->notify("ingest", w.take());
}

void RemoteLocationClient::ingestBatch(std::span<const db::SensorReading> readings) {
  if (readings.empty()) return;
  finish(startIngestBatch(readings));
}

orb::RpcClient::Call RemoteLocationClient::startIngestBatch(
    std::span<const db::SensorReading> readings) {
  return rpc_->start("ingestBatch", encodeReadingBatch(readings));
}

util::Bytes RemoteLocationClient::finish(const orb::RpcClient::Call& call) {
  return rpc_->wait(call, std::chrono::steady_clock::now() + rpc_->callTimeout());
}

std::vector<db::SensorReading> RemoteLocationClient::exportReadings(
    const util::MobileObjectId& object) {
  ByteWriter w;
  w.str(object.str());
  return decodeReadingBatch(rpc_->call("exportReadings", w.take()));
}

void RemoteLocationClient::importBatch(std::span<const db::SensorReading> readings) {
  if (readings.empty()) return;
  rpc_->call("importBatch", encodeReadingBatch(readings));
}

void RemoteLocationClient::ingestBatchAsync(std::span<const db::SensorReading> readings) {
  if (readings.empty()) return;
  rpc_->notify("ingestBatch", encodeReadingBatch(readings));
}

std::optional<fusion::LocationEstimate> RemoteLocationClient::locate(
    const util::MobileObjectId& object) {
  ByteWriter w;
  w.str(object.str());
  Bytes reply = rpc_->call("locate", w.take());
  ByteReader r(reply);
  if (!r.boolean()) return std::nullopt;
  return decodeEstimate(r);
}

std::string RemoteLocationClient::locateSymbolic(const util::MobileObjectId& object) {
  ByteWriter w;
  w.str(object.str());
  Bytes reply = rpc_->call("locateSymbolic", w.take());
  ByteReader r(reply);
  return r.str();
}

double RemoteLocationClient::probabilityInRegion(const util::MobileObjectId& object,
                                                 const geo::Rect& region) {
  ByteWriter w;
  w.str(object.str());
  encodeRect(w, region);
  Bytes reply = rpc_->call("probabilityInRegion", w.take());
  ByteReader r(reply);
  return r.f64();
}

RemoteLocationClient::RegionProbability RemoteLocationClient::probabilityInRegionEx(
    const util::MobileObjectId& object, const geo::Rect& region) {
  return decodeProbabilityInRegionEx(finish(startProbabilityInRegionEx(object, region)));
}

orb::RpcClient::Call RemoteLocationClient::startProbabilityInRegionEx(
    const util::MobileObjectId& object, const geo::Rect& region) {
  ByteWriter w;
  w.str(object.str());
  encodeRect(w, region);
  return rpc_->start("probabilityInRegionEx", w.take());
}

RemoteLocationClient::RegionProbability RemoteLocationClient::decodeProbabilityInRegionEx(
    const Bytes& reply) {
  ByteReader r(reply);
  RegionProbability result;
  result.probability = r.f64();
  result.hasEvidence = r.boolean();
  return result;
}

RemoteLocationClient::Members RemoteLocationClient::objectsInRegion(const geo::Rect& region,
                                                                    double minProbability) {
  return decodeObjectsInRegion(finish(startObjectsInRegion(region, minProbability)));
}

orb::RpcClient::Call RemoteLocationClient::startObjectsInRegion(const geo::Rect& region,
                                                                double minProbability) {
  ByteWriter w;
  encodeRect(w, region);
  w.f64(minProbability);
  return rpc_->start("objectsInRegion", w.take());
}

RemoteLocationClient::Members RemoteLocationClient::decodeObjectsInRegion(const Bytes& reply) {
  ByteReader r(reply);
  Members members;
  const std::uint32_t count = r.u32();
  members.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    util::MobileObjectId object{r.str()};
    double probability = r.f64();
    members.emplace_back(std::move(object), probability);
  }
  return members;
}

void RemoteLocationClient::ping() { finish(startPing()); }

orb::RpcClient::Call RemoteLocationClient::startPing() { return rpc_->start("ping", {}); }

void RemoteLocationClient::setCallTimeout(util::Duration timeout) {
  rpc_->setCallTimeout(timeout);
}

util::SubscriptionId RemoteLocationClient::subscribe(
    const geo::Rect& region, std::optional<util::MobileObjectId> subject, double threshold,
    std::function<void(const Notification&)> callback) {
  ByteWriter w;
  encodeRect(w, region);
  w.boolean(subject.has_value());
  if (subject) w.str(subject->str());
  w.f64(threshold);
  Bytes reply = rpc_->call("subscribe", w.take());
  ByteReader r(reply);
  util::SubscriptionId id{r.u64()};
  {
    std::lock_guard lock(mutex_);
    callbacks_[id.value()] = std::move(callback);
  }
  return id;
}

RemoteLocationClient::DensityHandle RemoteLocationClient::subscribeDensity(
    const geo::Rect& region, double minProbability, std::size_t limit,
    std::function<void(const DensityNotification&)> callback) {
  ByteWriter w;
  encodeRect(w, region);
  w.f64(minProbability);
  w.u64(limit);
  Bytes reply = rpc_->call("subscribeDensity", w.take());
  ByteReader r(reply);
  DensityHandle handle;
  handle.id = util::SubscriptionId{r.u64()};
  handle.initialCount = static_cast<std::size_t>(r.u64());
  {
    std::lock_guard lock(mutex_);
    densityCallbacks_[handle.id.value()] = std::move(callback);
  }
  return handle;
}

bool RemoteLocationClient::unsubscribe(util::SubscriptionId id) {
  {
    std::lock_guard lock(mutex_);
    callbacks_.erase(id.value());
    densityCallbacks_.erase(id.value());
  }
  ByteWriter w;
  w.u64(id.value());
  Bytes reply = rpc_->call("unsubscribe", w.take());
  ByteReader r(reply);
  return r.boolean();
}

// --- BatchingIngestClient ---------------------------------------------------------

BatchingIngestClient::BatchingIngestClient(std::shared_ptr<orb::RpcClient> rpc,
                                           Options options)
    : rpc_(std::move(rpc)), options_(options) {
  mw::util::require(static_cast<bool>(rpc_), "BatchingIngestClient: null rpc client");
  mw::util::require(options_.maxBatch >= 1, "BatchingIngestClient: maxBatch must be >= 1");
  buffer_.reserve(options_.maxBatch);
  flusher_ = std::thread([this] { flusherLoop(); });
}

BatchingIngestClient::~BatchingIngestClient() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  flusher_.join();
  // Flush on destruction: whatever is still buffered goes out now.
  std::lock_guard lock(mutex_);
  sendLocked();
}

void BatchingIngestClient::ingest(const db::SensorReading& reading) {
  std::lock_guard lock(mutex_);
  buffer_.push_back(reading);
  if (buffer_.size() >= options_.maxBatch) {
    sendLocked();
    return;
  }
  if (buffer_.size() == 1) {
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::milliseconds(options_.maxDelay.count());
    wake_.notify_all();  // re-arm the flusher's timer
  }
}

void BatchingIngestClient::flush() {
  std::lock_guard lock(mutex_);
  sendLocked();
}

void BatchingIngestClient::sendLocked() {
  if (buffer_.empty()) return;
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(buffer_.size()));
  for (const auto& reading : buffer_) encodeReading(w, reading);
  // Sending under the lock serializes batches in buffered order; a size
  // flush on a producer thread cannot overtake a deadline flush in flight.
  // Counters move before the send: once notify returns the peer may already
  // have processed the batch, and an observer who saw that effect must also
  // see the count (rolled back on the failure path below).
  batchesSent_.fetch_add(1, std::memory_order_relaxed);
  readingsSent_.fetch_add(buffer_.size(), std::memory_order_relaxed);
  try {
    rpc_->notify("ingestBatch", w.take());
  } catch (const util::TransportError&) {
    batchesSent_.fetch_sub(1, std::memory_order_relaxed);
    readingsSent_.fetch_sub(buffer_.size(), std::memory_order_relaxed);
    // Oneway semantics on a dead connection: the batch is dropped, like
    // readings pushed at a restarting service. Callers keep running, but
    // the loss is counted and logged so tests and operators can tell a
    // clean drain from a drop (this used to vanish silently, including in
    // the destructor's final flush).
    flushFailures_.fetch_add(1, std::memory_order_relaxed);
    droppedReadings_.fetch_add(buffer_.size(), std::memory_order_relaxed);
    util::logWarn("BatchingIngestClient",
                  "flush failed on dead connection; dropped ", buffer_.size(), " reading(s)");
  }
  buffer_.clear();
}

void BatchingIngestClient::flusherLoop() {
  std::unique_lock lock(mutex_);
  for (;;) {
    if (stopping_) return;
    if (buffer_.empty()) {
      wake_.wait(lock, [&] { return stopping_ || !buffer_.empty(); });
      continue;
    }
    if (wake_.wait_until(lock, deadline_,
                         [&] { return stopping_ || buffer_.empty(); })) {
      continue;  // stopping, or a size/manual flush beat the deadline
    }
    sendLocked();  // deadline reached with readings still buffered
  }
}

}  // namespace mw::core

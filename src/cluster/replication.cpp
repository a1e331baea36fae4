#include "cluster/replication.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"
#include "util/logging.hpp"

namespace mw::cluster {

// --- ReplicationLink ----------------------------------------------------------

ReplicationLink::ReplicationLink(std::string backupName,
                                 std::shared_ptr<core::RemoteLocationClient> client)
    : backupName_(std::move(backupName)), client_(std::move(client)) {
  mw::util::require(client_ != nullptr, "ReplicationLink: null client");
}

void ReplicationLink::markDead(const char* what) {
  dead_.store(true, std::memory_order_release);
  live_.store(false, std::memory_order_release);
  failures_.fetch_add(1, std::memory_order_relaxed);
  util::logWarn("ReplicationLink", " backup ", backupName_, " failed during ", what,
                "; continuing unreplicated");
}

bool ReplicationLink::syncFrom(db::SpatialDatabase& db) {
  // The caller holds the service's ingest pause: the store is a consistent
  // cut and nothing is mirrored concurrently, so replaying every object's
  // log leaves the backup byte-level equal to the primary.
  for (const auto& object : db.knownMobileObjects()) {
    const std::vector<db::SensorReading> log = db.exportObjectLog(object);
    if (log.empty()) continue;
    try {
      std::lock_guard lock(sendMutex_);
      client_->ingestBatch(log);
    } catch (const util::MwError&) {
      markDead("initial sync");
      return false;
    }
    syncedReadings_.fetch_add(log.size(), std::memory_order_relaxed);
  }
  live_.store(true, std::memory_order_release);
  return true;
}

void ReplicationLink::mirror(std::span<const db::SensorReading> batch) {
  if (batch.empty() || !live()) return;
  try {
    std::lock_guard lock(sendMutex_);
    client_->ingestBatch(batch);
    mirroredReadings_.fetch_add(batch.size(), std::memory_order_relaxed);
  } catch (const util::MwError&) {
    // The batch still applies locally — availability over durability; the
    // primary now runs unreplicated until a new backup announces.
    markDead("mirror");
  }
}

// --- HandoffSession -----------------------------------------------------------

HandoffSession::HandoffSession(std::string gainerToken, std::vector<util::MobileObjectId> objects,
                               std::vector<RingArc> arcs,
                               std::shared_ptr<core::RemoteLocationClient> client)
    : gainerToken_(std::move(gainerToken)),
      arcs_(std::move(arcs)),
      objects_(std::make_move_iterator(objects.begin()), std::make_move_iterator(objects.end())),
      client_(std::move(client)) {
  mw::util::require(client_ != nullptr, "HandoffSession: null client");
}

bool HandoffSession::covers(const util::MobileObjectId& object) const {
  std::shared_lock lock(coverMutex_);
  if (objects_.contains(object)) return true;
  if (arcs_.empty() || removed_.contains(object)) return false;
  return arcsContain(arcs_, objectRingKey(object));
}

void HandoffSession::removeObjects(std::span<const util::MobileObjectId> objects) {
  std::unique_lock lock(coverMutex_);
  for (const auto& object : objects) {
    objects_.erase(object);
    if (!arcs_.empty()) removed_.insert(object);
  }
}

bool HandoffSession::empty() const {
  std::shared_lock lock(coverMutex_);
  return objects_.empty() && arcs_.empty();
}

std::vector<db::SensorReading> HandoffSession::filter(std::vector<db::SensorReading> batch) {
  std::vector<db::SensorReading> mine;
  std::vector<db::SensorReading> rest;
  rest.reserve(batch.size());
  for (auto& reading : batch) {
    (covers(reading.mobileObjectId) ? mine : rest).push_back(std::move(reading));
  }
  if (mine.empty()) return rest;
  std::lock_guard lock(mutex_);
  if (!forwarding_.load(std::memory_order_relaxed)) {
    bufferedReadings_.fetch_add(mine.size(), std::memory_order_relaxed);
    buffer_.insert(buffer_.end(), std::make_move_iterator(mine.begin()),
                   std::make_move_iterator(mine.end()));
    return rest;
  }
  try {
    client_->ingestBatch(mine);
    forwardedReadings_.fetch_add(mine.size(), std::memory_order_relaxed);
  } catch (const util::MwError&) {
    failures_.fetch_add(mine.size(), std::memory_order_relaxed);
    util::logWarn("HandoffSession", " forward to ", gainerToken_, " failed; ", mine.size(),
                  " reading(s) lost to the gainer");
  }
  return rest;
}

bool HandoffSession::flush() {
  std::lock_guard lock(mutex_);
  if (!buffer_.empty()) {
    try {
      client_->ingestBatch(buffer_);
    } catch (const util::MwError&) {
      failures_.fetch_add(1, std::memory_order_relaxed);
      util::logWarn("HandoffSession", " flush to ", gainerToken_,
                    " failed; keeping buffer for retry");
      return false;
    }
    forwardedReadings_.fetch_add(buffer_.size(), std::memory_order_relaxed);
    buffer_.clear();
  }
  // Same lock as the buffering branch of filter(): no reading can observe
  // "buffering" after the drain — the order at the gainer is exactly
  // buffer FIFO then forward FIFO.
  forwarding_.store(true, std::memory_order_release);
  return true;
}

// --- the migrate.* protocol ----------------------------------------------------

namespace {

void writeObjects(util::ByteWriter& w, std::span<const util::MobileObjectId> objects) {
  w.u32(static_cast<std::uint32_t>(objects.size()));
  for (const auto& object : objects) w.str(object.str());
}

std::vector<util::MobileObjectId> readObjects(util::ByteReader& r) {
  std::vector<util::MobileObjectId> objects;
  // Counts come off the wire: reserve no more than the payload could hold.
  const std::uint32_t count = r.u32();
  objects.reserve(std::min<std::size_t>(count, r.remaining()));
  for (std::uint32_t i = 0; i < count; ++i) objects.emplace_back(util::MobileObjectId{r.str()});
  return objects;
}

util::Bytes writeSession(std::uint64_t session) {
  util::ByteWriter w;
  w.u64(session);
  return w.take();
}

util::Bytes writeOk(bool ok) {
  util::ByteWriter w;
  w.boolean(ok);
  return w.take();
}

bool readOk(const util::Bytes& reply) {
  util::ByteReader r(reply);
  return r.boolean();
}

}  // namespace

void serveMigrate(orb::RpcServer& server, MigrateHandlers handlers) {
  auto on = std::make_shared<MigrateHandlers>(std::move(handlers));
  server.registerMethod("migrate.begin", [on](const util::Bytes& args) {
    util::ByteReader r(args);
    MigrateRequest request;
    request.gainerToken = r.str();
    request.gainer.host = r.str();
    request.gainer.port = r.u16();
    request.objects = readObjects(r);
    const std::uint32_t rectCount = r.u32();
    request.rects.reserve(
        std::min<std::size_t>(rectCount, r.remaining() / (4 * sizeof(double))));
    for (std::uint32_t i = 0; i < rectCount; ++i) {
      const double lx = r.f64();
      const double ly = r.f64();
      const double hx = r.f64();
      const double hy = r.f64();
      request.rects.push_back(geo::Rect::fromCorners({lx, ly}, {hx, hy}));
    }
    const std::uint32_t arcCount = r.u32();
    request.arcs.reserve(
        std::min<std::size_t>(arcCount, r.remaining() / (2 * sizeof(std::uint64_t))));
    for (std::uint32_t i = 0; i < arcCount; ++i) {
      RingArc arc;
      arc.lo = r.u64();
      arc.hi = r.u64();
      request.arcs.push_back(arc);
    }
    const MigrateBegun begun = on->begin(request);
    util::ByteWriter w;
    w.u64(begun.session);
    writeObjects(w, begun.affected);
    return w.take();
  });
  server.registerMethod("migrate.adopt", [on](const util::Bytes& args) {
    util::ByteReader r(args);
    on->adopt(readObjects(r));
    return util::Bytes{};
  });
  server.registerMethod("migrate.flush", [on](const util::Bytes& args) {
    util::ByteReader r(args);
    return writeOk(on->flush(r.u64()));
  });
  server.registerMethod("migrate.end", [on](const util::Bytes& args) {
    util::ByteReader r(args);
    return writeOk(on->end(r.u64()));
  });
}

MigrateBegun callMigrateBegin(orb::RpcClient& rpc, const MigrateRequest& request) {
  util::ByteWriter w;
  w.str(request.gainerToken);
  w.str(request.gainer.host);
  w.u16(request.gainer.port);
  writeObjects(w, request.objects);
  w.u32(static_cast<std::uint32_t>(request.rects.size()));
  for (const auto& rect : request.rects) {
    w.f64(rect.lo().x);
    w.f64(rect.lo().y);
    w.f64(rect.hi().x);
    w.f64(rect.hi().y);
  }
  w.u32(static_cast<std::uint32_t>(request.arcs.size()));
  for (const RingArc& arc : request.arcs) {
    w.u64(arc.lo);
    w.u64(arc.hi);
  }
  const util::Bytes reply = rpc.call("migrate.begin", w.take());
  util::ByteReader r(reply);
  MigrateBegun begun;
  begun.session = r.u64();
  begun.affected = readObjects(r);
  return begun;
}

void callMigrateAdopt(orb::RpcClient& rpc, std::span<const util::MobileObjectId> objects) {
  util::ByteWriter w;
  writeObjects(w, objects);
  (void)rpc.call("migrate.adopt", w.take());
}

bool callMigrateFlush(orb::RpcClient& rpc, std::uint64_t session) {
  return readOk(rpc.call("migrate.flush", writeSession(session)));
}

bool callMigrateEnd(orb::RpcClient& rpc, std::uint64_t session) {
  return readOk(rpc.call("migrate.end", writeSession(session)));
}

}  // namespace mw::cluster

// Shard replication and migration — the two data-movement protocols of the
// cluster.
//
// ReplicationLink is the primary's handle to its warm-standby backup. The
// primary's ingest tap calls mirror() BEFORE the local apply, inside the
// ingest RPC handler, so the caller's ack means "applied on primary AND
// backup" — synchronous replication, which is what makes kill-one-shard
// lose no acknowledged reading. The initial sync (syncFrom) runs under the
// service's pauseIngest() window: with ingest quiesced the export is a
// consistent cut, every earlier reading is in it and every later reading
// flows through the live mirror — no sequence numbers needed.
//
// HandoffSession is the LOSING shard's side of one migration, for every
// partitioning: a ring join or leave (coverage = the moved arcs) and a
// territory migration (coverage = an explicit object set). Its filter() sits
// in the same ingest tap and consumes readings of covered objects: buffered
// while the gainer replays the exported logs, then (after flush())
// forwarded synchronously. Per-object order at the gainer is export, then
// buffered FIFO, then forwarded FIFO over one connection — exact, because
// the buffer drain and the mode switch happen under one session lock, and
// the session is installed under pauseIngest() so no reading is ever
// half-applied on the losing side. The migrate.* methods below drive it.
//
// Failure policy (both): a dead peer marks the link/session failed, counts
// and warns, and the local service keeps serving — availability over
// durability, the same contract as the router's dropped-ingest accounting.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "cluster/shard_map.hpp"
#include "core/remote.hpp"
#include "geometry/rect.hpp"
#include "orb/rpc.hpp"
#include "spatialdb/database.hpp"
#include "util/bytes.hpp"

namespace mw::cluster {

/// Primary-side synchronous mirror to one backup.
class ReplicationLink {
 public:
  /// `client` must be connected to the backup's LocationService endpoint.
  ReplicationLink(std::string backupName, std::shared_ptr<core::RemoteLocationClient> client);

  [[nodiscard]] const std::string& backupName() const noexcept { return backupName_; }
  /// Initial sync completed; mirror() forwards.
  [[nodiscard]] bool live() const noexcept { return live_.load(std::memory_order_acquire); }
  /// The backup stopped answering; the link is abandoned (the owner tears
  /// it down and may rebuild one when the backup re-announces).
  [[nodiscard]] bool dead() const noexcept { return dead_.load(std::memory_order_acquire); }

  /// Replays every object's stored log to the backup, then goes live. MUST
  /// run under the service's pauseIngest() window (see file header); the
  /// live_ flip is only safe because no ingest is in flight across it.
  /// Returns false (and marks the link dead) when the backup fails mid-sync.
  bool syncFrom(db::SpatialDatabase& db);

  /// Mirrors one batch to the backup (no-op unless live). Called from the
  /// ingest tap before the local apply; blocking here is what delays the
  /// ack until the backup has the readings.
  void mirror(std::span<const db::SensorReading> batch);

  [[nodiscard]] std::uint64_t mirroredReadings() const noexcept {
    return mirroredReadings_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t syncedReadings() const noexcept {
    return syncedReadings_.load(std::memory_order_relaxed);
  }
  /// Mirror/sync calls that failed (the batch was applied locally anyway).
  [[nodiscard]] std::uint64_t failures() const noexcept {
    return failures_.load(std::memory_order_relaxed);
  }

 private:
  void markDead(const char* what);

  const std::string backupName_;
  const std::shared_ptr<core::RemoteLocationClient> client_;
  /// Serializes wire sends so the backup applies batches in mirror order.
  std::mutex sendMutex_;
  std::atomic<bool> live_{false};
  std::atomic<bool> dead_{false};
  std::atomic<std::uint64_t> mirroredReadings_{0};
  std::atomic<std::uint64_t> syncedReadings_{0};
  std::atomic<std::uint64_t> failures_{0};
};

/// Losing side of one migration. Coverage is an explicit OBJECT SET plus
/// optional ring ARCS. The set is what a territory migration moves (exactly
/// the objects whose logs are exported); arcs are what a ring join or leave
/// moves — any object hashing into them, including one first seen after the
/// session began, which a set fixed at begin time would strand here.
class HandoffSession {
 public:
  /// `client` must be connected to the gaining shard's service endpoint.
  /// Both coverages may be empty — the session then consumes nothing but
  /// still anchors the protocol.
  HandoffSession(std::string gainerToken, std::vector<util::MobileObjectId> objects,
                 std::vector<RingArc> arcs, std::shared_ptr<core::RemoteLocationClient> client);

  /// Does this session cover the object (set membership, or arc containment
  /// minus any removed objects)?
  [[nodiscard]] bool covers(const util::MobileObjectId& object) const;

  /// Excludes objects from this session's coverage from now on — a later
  /// migration taking an object away from the gaining side must stop this
  /// session from eating the object's readings. Call only while ingest is
  /// paused (no filter() in flight).
  void removeObjects(std::span<const util::MobileObjectId> objects);

  /// Covers nothing any more (no objects, no arcs): the owner retires it.
  [[nodiscard]] bool empty() const;

  /// Ring arcs in the coverage: then covers() also takes objects outside
  /// objects(), including ones first seen after begin.
  [[nodiscard]] bool hasArcs() const noexcept { return !arcs_.empty(); }

  /// The explicit object set (a copy): for a session without arcs, exactly
  /// what it covers.
  [[nodiscard]] std::vector<util::MobileObjectId> objects() const;

  /// Tap fragment: removes and consumes the readings this session covers
  /// (buffered before flush(), forwarded after), returns the rest.
  [[nodiscard]] std::vector<db::SensorReading> filter(std::vector<db::SensorReading> batch);

  /// Drains the buffer to the gainer and switches to live forwarding —
  /// atomically, under the session lock, so no reading can slip between
  /// the drained buffer and the forward stream. Returns false (session
  /// failed) when the gainer connection died; buffered readings are kept
  /// for a retry.
  bool flush();

  [[nodiscard]] bool forwarding() const noexcept {
    return forwarding_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t bufferedReadings() const noexcept {
    return bufferedReadings_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t forwardedReadings() const noexcept {
    return forwardedReadings_.load(std::memory_order_relaxed);
  }
  /// Forward attempts that failed; those readings are lost to the gainer
  /// (counted, logged — the router's retry against the new owner is the
  /// recovery path).
  [[nodiscard]] std::uint64_t failures() const noexcept {
    return failures_.load(std::memory_order_relaxed);
  }

 private:
  const std::string gainerToken_;
  const std::vector<RingArc> arcs_;
  /// Guarded by coverMutex_: reads are per-reading on the ingest path
  /// (shared), removeObjects is rare and runs under an ingest pause
  /// (exclusive). `removed_` only subtracts from arc coverage.
  mutable std::shared_mutex coverMutex_;
  std::unordered_set<util::MobileObjectId> objects_;
  std::unordered_set<util::MobileObjectId> removed_;
  const std::shared_ptr<core::RemoteLocationClient> client_;
  /// Guards buffer_ + the buffering->forwarding switch, and serializes
  /// forwards so the gainer sees them in consume order.
  std::mutex mutex_;
  std::vector<db::SensorReading> buffer_;
  std::atomic<bool> forwarding_{false};
  std::atomic<std::uint64_t> bufferedReadings_{0};
  std::atomic<std::uint64_t> forwardedReadings_{0};
  std::atomic<std::uint64_t> failures_{0};
};

// --- the migrate.* protocol -------------------------------------------------
//
// One RPC family moves objects between shards for every partitioning. The
// losing shard serves all four methods; the caller is the gainer of a ring
// join, or the router for a territory migration (the gainer also serves
// adopt):
//   migrate.begin(request) -> (session id, affected objects)
//       installs a session under pauseIngest; from here the loser's tap
//       buffers the covered objects' readings
//   migrate.adopt(objects) -> ()
//       gaining side: prunes its own stale sessions of these objects, so an
//       object migrating back does not bounce to the shard it once left
//   migrate.flush(id) -> ok     buffer drain + switch to forwarding
//   migrate.end(id) -> ok       drops the moved objects; false when the
//                               session is unknown or not yet flushed
// Sessions are keyed by a fresh id — one shard pair can run many migrations
// and a peer-token key would alias them.

/// What migrate.begin moves: the explicit objects, plus every resident whose
/// evidence box centers in one of `rects`, plus every object (resident now
/// or first seen later) whose ring key falls in one of `arcs`.
struct MigrateRequest {
  std::string gainerToken;
  core::Endpoint gainer;  ///< where the session forwards
  std::vector<util::MobileObjectId> objects;
  std::vector<geo::Rect> rects;
  std::vector<RingArc> arcs;
};

struct MigrateBegun {
  std::uint64_t session = 0;
  std::vector<util::MobileObjectId> affected;  ///< residents whose logs move
};

/// The serving side: what a shard does for each method.
struct MigrateHandlers {
  std::function<MigrateBegun(const MigrateRequest&)> begin;
  std::function<void(const std::vector<util::MobileObjectId>&)> adopt;
  std::function<bool(std::uint64_t)> flush;
  std::function<bool(std::uint64_t)> end;
};

/// Registers migrate.begin/adopt/flush/end on `server`.
void serveMigrate(orb::RpcServer& server, MigrateHandlers handlers);

/// The calling side, one round trip each. Throws util::TransportError or
/// util::TimeoutError when the peer is gone.
[[nodiscard]] MigrateBegun callMigrateBegin(orb::RpcClient& rpc, const MigrateRequest& request);
void callMigrateAdopt(orb::RpcClient& rpc, std::span<const util::MobileObjectId> objects);
[[nodiscard]] bool callMigrateFlush(orb::RpcClient& rpc, std::uint64_t session);
[[nodiscard]] bool callMigrateEnd(orb::RpcClient& rpc, std::uint64_t session);

}  // namespace mw::cluster

// Striped lock-free reading store — the sensor-readings side of the spatial
// database (Table 2), split out of the database-wide reader/writer lock.
//
// Layout: a fixed array of stripes, each owning the per-object logs whose
// MobileObjectId hashes into it. Every object has one `ObjectLog` with
//
//   - a per-object writer mutex (serializes the multiple producers that may
//     report the same object — adapters for different sensor technologies),
//   - a *published* immutable snapshot: the per-sensor latest readings, the
//     object's readings epoch and its next TTL-expiry boundary. Writers
//     build the next snapshot aside and swap the published pointer under a
//     per-object reader/writer slot lock; readers pin the current snapshot
//     under the shared side of that lock — a refcount bump, nanoseconds —
//     and then work on immutable state with no lock held, no retry, and a
//     consistent epoch-stamped view. (A raw std::atomic<shared_ptr> would
//     make the pin wait-free, but libstdc++'s _Sp_atomic lock-bit protocol
//     carries no TSan annotations, and a seqlock's racy reads TSan would
//     rightly flag; the slot lock keeps the publication protocol provable
//     under -DMW_SANITIZE=thread.)
//
// Each stripe also keeps a packed *evidence column*: one slot per ObjectLog
// holding the object's evidence box (the union of its stored reading rects)
// and a pointer to its id (the key of the stripe's map node, stable because
// logs are never erased). The column is the box's only home. storeSnap, the
// one publication helper, rewrites a slot only when the box changes, and then
// holds the stripe's column lock across the snapshot swap, so the column and
// the published snapshots always agree. Region discovery (objectsIntersecting)
// and evidenceBoxOf read the column under its shared lock: a scan of ~40
// contiguous bytes per resident object, with no per-object lock and no
// refcount.
//
// Concurrent appends on different objects therefore never touch the same
// per-object lock: they meet only on their stripe's map mutex (shared mode,
// and only to look the log up), on the stripe's column lock when their box
// moves, and on disjoint cache lines otherwise. Readers (fusion, region
// discovery) never hold a lock while a snapshot is in use, so they cannot
// stall writers for longer than the pointer pin or one stripe's column scan.
//
// The sensor-metadata table lives here too, published copy-on-write as one
// immutable map: the ingest hot path pins calibration/TTL with the same
// brief slot-lock pattern instead of taking the database's catalog lock,
// which is what keeps a long catalog operation from ever stalling ingest.
// (De)registration — rare — swaps the published table under a writer mutex.
//
// Epoch discipline (unchanged from the locked implementation): the reported
// readings epoch is metaEpoch + per-object epoch; the per-object epoch bumps
// on append, drop, forced expiry, purge and lazy TTL expiry, and metaEpoch
// bumps on sensor (de)registration (noteSensorTableChanged). Every change
// but an append or a lazy TTL bump also moves the store-wide evidence
// revision.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "geometry/rect.hpp"
#include "spatialdb/sensor.hpp"
#include "util/clock.hpp"
#include "util/ids.hpp"

namespace mw::db {

class ReadingStore {
 public:
  /// One stored observation, universe frame, plus its derived motion flag.
  struct StoredReading {
    SensorReading reading;
    bool moving = false;  ///< sensor's region moved since its prior report
  };

  /// Activity of one sensor since its registration (health monitoring).
  struct SensorActivity {
    std::size_t readingCount = 0;
    std::optional<util::TimePoint> lastReading;
  };

  explicit ReadingStore(const util::Clock& clock, std::size_t stripes = 64);

  // --- sensor-metadata table (published copy-on-write) -----------------------

  /// Registers or re-registers a sensor. Existing activity counters survive
  /// re-registration (recalibration), matching the locked table's behaviour.
  void publishSensor(SensorMeta meta);
  /// Removes a sensor and its activity row; returns false when unknown.
  bool retireSensor(const util::SensorId& id);
  [[nodiscard]] std::optional<SensorMeta> sensorMeta(const util::SensorId& id) const;
  [[nodiscard]] std::vector<util::SensorId> sensorIds() const;  ///< sorted
  [[nodiscard]] std::size_t sensorCount() const;
  [[nodiscard]] std::optional<SensorActivity> activity(const util::SensorId& id) const;

  /// Bumps the meta epoch (added into every object's reported epoch) and the
  /// evidence revision, and reschedules every object's TTL-expiry boundary
  /// under the current metadata table. SpatialDatabase calls it after every
  /// register and deregister, so the two cannot drift apart.
  void noteSensorTableChanged();

  // --- appends (the ingest hot path) ----------------------------------------

  /// Appends one universe-frame reading: derives the `moving` flag from the
  /// sensor's previous report, publishes a new snapshot with a bumped epoch,
  /// appends to the history ring and updates the sensor's activity counters.
  /// Throws NotFoundError for unregistered sensors.
  void append(const SensorReading& universeReading);

  // --- snapshot reads (never block writers) ---------------------------------

  /// Fresh (non-expired) readings about one object, one per sensor.
  [[nodiscard]] std::vector<StoredReading> freshReadings(const util::MobileObjectId& id) const;

  /// metaEpoch + per-object epoch, with the lazy TTL bump: the first call
  /// past a stored reading's TTL boundary takes the object's writer lock,
  /// publishes a bumped snapshot exactly once and reschedules the boundary.
  [[nodiscard]] std::uint64_t epochOf(const util::MobileObjectId& id) const;

  /// The next instant at which the object's fusion inputs change without a
  /// write: its next TTL boundary, or the next clock tick while a fresh
  /// reading comes from a sensor whose tdf degrades with age. max() when
  /// neither is pending. The boundary is the published snapshot's, so it may
  /// lie in the past until epochOf publishes the lazy TTL bump.
  [[nodiscard]] util::TimePoint nextEvidenceChange(const util::MobileObjectId& id) const;

  /// Objects with at least one stored (possibly expired-but-unpurged)
  /// reading, sorted.
  [[nodiscard]] std::vector<util::MobileObjectId> knownObjects() const;

  /// Objects whose evidence box intersects `universeRect` — one scan of each
  /// stripe's packed evidence column under its shared lock (the box is the
  /// union of the stored reading rects, recomputed on append/expiry, so it
  /// is a conservative superset while readings age out lazily). Unsorted.
  [[nodiscard]] std::vector<util::MobileObjectId> objectsIntersecting(
      const geo::Rect& universeRect) const;

  /// One object's evidence box (union of its stored reading rects), read
  /// from its column slot; nullopt when the object has no stored readings.
  /// The same conservative box objectsIntersecting scans — what a spatial
  /// router needs to find the territory owner of an object's evidence.
  [[nodiscard]] std::optional<geo::Rect> evidenceBoxOf(const util::MobileObjectId& id) const;

  /// Recent readings within `window` before now, oldest first (the history
  /// ring is guarded by the object's writer mutex; history queries are off
  /// the hot path and may briefly wait behind an in-flight append).
  [[nodiscard]] std::vector<SensorReading> history(const util::MobileObjectId& id,
                                                   util::Duration window) const;

  void setHistoryCapacity(std::size_t perObject);
  [[nodiscard]] std::size_t historyCapacity() const noexcept {
    return historyCapacity_.load(std::memory_order_relaxed);
  }

  /// The object's full history ring in insertion order — the replication /
  /// handoff export source. Unlike history() there is no window and no
  /// re-sort: replaying the returned sequence through append() reproduces
  /// the log (bounded by the ring capacity, like any restart).
  [[nodiscard]] std::vector<SensorReading> exportLog(const util::MobileObjectId& id) const;

  /// Erases everything stored about one object (log, snapshot, history) —
  /// the losing side of an arc handoff. Returns false when unknown.
  bool dropObject(const util::MobileObjectId& id);

  // --- maintenance -----------------------------------------------------------

  /// Drops expired (or orphaned: sensor deregistered) readings eagerly.
  void purgeExpired();

  /// Force-expires all readings `sensor` made about `object` (§6.3 logout).
  /// Returns true when a reading was removed.
  bool expireReadings(const util::MobileObjectId& object, const util::SensorId& sensor);

  // --- evidence revision -----------------------------------------------------

  /// Moves whenever stored evidence changes other than by an append: a drop,
  /// a forced expiry, a purge that removed something, or a sensor-table
  /// change. Appends and lazy TTL bumps leave it alone; a reader that tracks
  /// appends itself and schedules TTL boundaries (nextEvidenceChange) needs
  /// to look at nothing else to stay exact.
  [[nodiscard]] std::uint64_t evidenceRevision() const noexcept {
    return evidenceRevision_.load(std::memory_order_acquire);
  }

  // --- contention / retry stats ----------------------------------------------

  /// Appends that found the target object's writer mutex already held (two
  /// producers reporting the same object at once).
  [[nodiscard]] std::uint64_t writerContentions() const noexcept {
    return writerContentions_.load(std::memory_order_relaxed);
  }
  /// epochOf calls that raced another thread's lazy TTL bump and had to
  /// re-read the published snapshot under the writer lock.
  [[nodiscard]] std::uint64_t snapshotRetries() const noexcept {
    return snapshotRetries_.load(std::memory_order_relaxed);
  }

 private:
  /// Immutable once published; replaced wholesale on every mutation.
  /// The evidence box is not part of it: it lives in the stripe's column.
  struct Snapshot {
    std::vector<std::pair<util::SensorId, StoredReading>> readings;  // one per sensor
    std::uint64_t epoch = 0;
    util::TimePoint nextExpiry = util::TimePoint::max();
  };
  using SnapshotPtr = std::shared_ptr<const Snapshot>;

  struct ObjectLog {
    std::mutex writeMutex;  ///< serializes producers for this object
    /// Publication slot: the slot lock guards ONLY the pointer swap/pin;
    /// snapshot contents are immutable once published.
    mutable std::shared_mutex snapMutex;
    SnapshotPtr snap = std::make_shared<const Snapshot>();
    std::deque<SensorReading> historyRing;  ///< guarded by writeMutex
    /// Index of the object's slot in its stripe's evidence column.
    std::size_t slot = 0;
  };

  /// One evidence-column slot: the object's box (empty when it has no stored
  /// readings) and its id, which is the key of its stripe's map node.
  struct EvidenceSlot {
    geo::Rect box;
    const util::MobileObjectId* id = nullptr;
  };

  struct Stripe {
    mutable std::shared_mutex mapMutex;
    std::unordered_map<util::MobileObjectId, std::unique_ptr<ObjectLog>> logs;
    /// Guards `column`; taken after mapMutex and before any snapMutex.
    mutable std::shared_mutex columnMutex;
    std::vector<EvidenceSlot> column;  ///< one slot per log, never shrinks
  };

  /// Mutable per-sensor activity cell, shared by every published table
  /// version that contains the sensor (contents are atomics, so updating
  /// through the immutable table is race-free).
  struct ActivityCell {
    std::atomic<std::uint64_t> readingCount{0};
    /// detectionTime of the last ingested reading in ms ticks; kNoReading
    /// until the first one.
    std::atomic<util::Duration::rep> lastReadingMs{kNoReading};
    static constexpr util::Duration::rep kNoReading =
        std::numeric_limits<util::Duration::rep>::min();
  };
  struct SensorEntry {
    SensorMeta meta;
    std::shared_ptr<ActivityCell> cell;
  };
  using MetaTable = std::unordered_map<util::SensorId, SensorEntry>;
  using MetaTablePtr = std::shared_ptr<const MetaTable>;

  /// Pins the published snapshot (shared slot lock, refcount bump only).
  [[nodiscard]] static SnapshotPtr loadSnap(const ObjectLog& log);
  /// Publishes `next` as the successor of `prev`, the snapshot the caller
  /// (holding the object's writer mutex) built it from. When the evidence
  /// box changes, the column slot is rewritten under the stripe's column
  /// lock, held across the pointer swap; otherwise only the slot lock is
  /// taken (unique, pointer swap only).
  static void storeSnap(Stripe& stripe, ObjectLog& log, const Snapshot& prev, SnapshotPtr next);
  /// Pins the published sensor-metadata table.
  [[nodiscard]] MetaTablePtr loadMetas() const;

  [[nodiscard]] Stripe& stripeFor(const util::MobileObjectId& id) const;
  /// The object's log in its stripe, or nullptr when it was never written.
  [[nodiscard]] static ObjectLog* findLog(Stripe& stripe, const util::MobileObjectId& id);
  [[nodiscard]] ObjectLog* findLog(const util::MobileObjectId& id) const {
    return findLog(stripeFor(id), id);
  }
  /// The object's log in its stripe, created (with an empty column slot) on
  /// first use.
  [[nodiscard]] static ObjectLog& obtainLog(Stripe& stripe, const util::MobileObjectId& id);
  /// Locks the object's writer mutex, counting contention.
  [[nodiscard]] std::unique_lock<std::mutex> lockWriter(ObjectLog& log) const;
  [[nodiscard]] static geo::Rect unionBox(
      const std::vector<std::pair<util::SensorId, StoredReading>>& readings);
  /// Earliest future TTL boundary over `readings` under `metas` (max() when
  /// none is pending) — already-expired readings never expire "again".
  void bumpEvidenceRevision() noexcept {
    evidenceRevision_.fetch_add(1, std::memory_order_acq_rel);
  }
  [[nodiscard]] static util::TimePoint nextExpiryOf(
      const std::vector<std::pair<util::SensorId, StoredReading>>& readings,
      const MetaTable& metas, util::TimePoint now);

  const util::Clock& clock_;
  // Stripes are stable for the store's lifetime; const methods publish
  // snapshots through them (the lazy TTL bump), hence the unique_ptr
  // indirection rather than a mutable member.
  std::vector<std::unique_ptr<Stripe>> stripes_;

  std::mutex metaWriteMutex_;  ///< serializes (de)registration
  /// Publication slot for the copy-on-write sensor table (same pattern as
  /// ObjectLog::snapMutex: guards the pointer only, contents immutable).
  mutable std::shared_mutex metaSlotMutex_;
  MetaTablePtr metas_ = std::make_shared<const MetaTable>();
  std::atomic<std::uint64_t> metaEpoch_{0};
  std::atomic<std::uint64_t> evidenceRevision_{0};
  std::atomic<std::size_t> historyCapacity_{256};

  mutable std::atomic<std::uint64_t> writerContentions_{0};
  mutable std::atomic<std::uint64_t> snapshotRetries_{0};
};

}  // namespace mw::db

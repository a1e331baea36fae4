// The spatial database (§5) — MiddleWhere's PostGIS/PostgreSQL substitute.
//
// Stores (a) the model of the physical space as Table-1 rows indexed by an
// R-tree, (b) sensor readings (Table 2) with per-sensor calibration
// metadata, and (c) location triggers: "Location triggers are events that
// are generated when a certain spatial condition is satisfied. ...
// MiddleWhere interprets these conditions into appropriate database triggers
// and creates these triggers in the database" (§5.3).
//
// All cross-space reasoning happens in the universe frame (the root of the
// FrameTree); rows and readings are stored in their local frames and
// converted on ingest/query.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cq/trigger_network.hpp"
#include "geometry/rect.hpp"
#include "geometry/rtree.hpp"
#include "glob/frame.hpp"
#include "spatialdb/reading_store.hpp"
#include "spatialdb/sensor.hpp"
#include "spatialdb/types.hpp"
#include "util/clock.hpp"
#include "util/ids.hpp"

namespace mw::db {

/// Event delivered when a database trigger fires.
struct TriggerEvent {
  util::TriggerId id;
  SensorReading reading;  ///< the reading that satisfied the condition (universe frame)
  geo::Rect region;       ///< the trigger's region (universe frame)
};

/// Condition + callback for a database trigger. The DB-level condition is
/// purely geometric (reading MBR intersects region); probabilistic
/// thresholding is layered on top by the Location Service (§4.3).
struct TriggerSpec {
  geo::Rect region;  ///< universe frame
  std::optional<util::MobileObjectId> subject;  ///< nullopt = any mobile object
  std::function<void(const TriggerEvent&)> callback;
};

/// Thread-safety: the database is split into three independently
/// synchronized parts, so a long catalog operation can never stall sensor
/// ingest:
///
///   1. the static catalog (spatial-object table + its R-tree) behind one
///      reader/writer lock — mutators exclusive, const queries shared;
///   2. the trigger table behind its own reader/writer lock (trigger
///      matching is on the ingest hot path, so it must not serialize with
///      catalog writers);
///   3. the sensor readings + sensor metadata in a striped `ReadingStore`
///      (see reading_store.hpp): concurrent insertReading calls on
///      different objects never contend, and readers pin epoch-published
///      immutable snapshots under a per-object slot lock held only for the
///      pointer copy.
///
/// The FrameTree accessors return unguarded references (frames are set up
/// before concurrent operation), and trigger callbacks run OUTSIDE every
/// lock — they may reenter the database, and a callback may still fire once
/// after dropTrigger() returns.
class SpatialDatabase {
 public:
  /// `universe` is the MBR of the whole modeled world in root-frame
  /// coordinates — the paper's area(U), "the floor-area of the entire
  /// building". The FrameTree must already have its root registered.
  SpatialDatabase(const util::Clock& clock, geo::Rect universe, glob::FrameTree frames);

  /// Convenience: single-frame database whose root frame is `rootFrame`.
  SpatialDatabase(const util::Clock& clock, geo::Rect universe, const std::string& rootFrame);

  [[nodiscard]] const geo::Rect& universe() const noexcept { return universe_; }
  [[nodiscard]] glob::FrameTree& frames() noexcept { return frames_; }
  [[nodiscard]] const glob::FrameTree& frames() const noexcept { return frames_; }

  /// Resolves the coordinate frame for a GLOB prefix: the prefix itself when
  /// registered, otherwise its nearest registered ancestor ("SC/roomA"
  /// coordinates are expressed in "SC" when roomA has no frame of its own).
  /// Falls back to the root frame.
  [[nodiscard]] std::string frameFor(const std::string& globPrefix) const;

  // --- spatial-object table (Table 1) ---------------------------------------

  /// Inserts a row; throws ContractError on invalid rows or duplicate
  /// (globPrefix, id) keys, NotFoundError if the row's frame is unknown.
  void addObject(SpatialObjectRow row);
  bool removeObject(const std::string& globPrefix, const util::SpatialObjectId& id);
  [[nodiscard]] std::optional<SpatialObjectRow> object(const std::string& globPrefix,
                                                       const util::SpatialObjectId& id) const;
  /// Looks an object up by its full GLOB string ("CS/Floor3/3105").
  [[nodiscard]] std::optional<SpatialObjectRow> objectByGlob(const std::string& fullGlob) const;

  [[nodiscard]] std::vector<SpatialObjectRow> objectsOfType(ObjectType type) const;
  /// All rows whose universe-frame MBR intersects `universeRect`.
  [[nodiscard]] std::vector<SpatialObjectRow> objectsIntersecting(
      const geo::Rect& universeRect) const;
  /// All rows whose exact geometry contains the universe-frame point.
  [[nodiscard]] std::vector<SpatialObjectRow> objectsContaining(geo::Point2 universePoint) const;
  /// Filter scan — the SQL-query stand-in ("Where is the nearest region that
  /// has power outlets and high Bluetooth signal?" style predicates).
  [[nodiscard]] std::vector<SpatialObjectRow> query(
      const std::function<bool(const SpatialObjectRow&)>& predicate) const;
  /// Nearest object satisfying `predicate` by universe MBR distance.
  [[nodiscard]] std::optional<SpatialObjectRow> nearest(
      geo::Point2 universePoint,
      const std::function<bool(const SpatialObjectRow&)>& predicate) const;

  [[nodiscard]] std::size_t objectCount() const;

  /// A row's MBR converted into universe coordinates.
  [[nodiscard]] geo::Rect universeMbr(const SpatialObjectRow& row) const;
  /// A row's polygon converted into universe coordinates (Polygon rows only).
  [[nodiscard]] geo::Polygon universePolygon(const SpatialObjectRow& row) const;

  // --- sensor tables (Table 2 + sensor metadata, §5.2) -----------------------

  void registerSensor(SensorMeta meta);
  /// Removes a sensor's calibration row. Its stored readings become invisible
  /// to readingsFor/fusion immediately (readings are interpreted through the
  /// metadata table), every object's readings epoch moves, and the evidence
  /// revision is bumped. Returns false for unknown sensors.
  bool deregisterSensor(const util::SensorId& id);
  [[nodiscard]] std::optional<SensorMeta> sensorMeta(const util::SensorId& id) const;
  [[nodiscard]] std::size_t sensorCount() const;
  /// All registered sensor ids, sorted (deterministic snapshots).
  [[nodiscard]] std::vector<util::SensorId> sensorIds() const;

  /// Operational health of one sensor: how much it has reported and how
  /// long ago. A sensor silent for many TTLs is likely unplugged — the
  /// deployment-monitoring hook for "deploy the middleware widely" (§11).
  struct SensorHealth {
    util::SensorId sensorId;
    std::string sensorType;
    std::size_t readingCount = 0;  ///< readings ingested since registration
    /// Age of the most recent reading; nullopt if it never reported.
    std::optional<util::Duration> lastReadingAge;
    /// lastReadingAge > silenceFactor * TTL (or never reported at all).
    bool silent = true;
  };
  /// Health of every sensor, sorted by id. `silenceFactor` scales each
  /// sensor's own TTL into its silence threshold.
  [[nodiscard]] std::vector<SensorHealth> sensorHealth(double silenceFactor = 3.0) const;

  /// Ingests a reading: converts it into the universe frame, derives its
  /// `moving` attribute from the sensor's previous report, stores it as the
  /// sensor's latest observation of that mobile object, and fires matching
  /// triggers synchronously. Throws NotFoundError for unregistered sensors.
  /// Lock-free with respect to the catalog: appends go to the reading
  /// store's stripes, so concurrent inserts on different objects never
  /// contend and catalog writers never stall ingest. Returns the stored
  /// universe-frame reading — the delta the Location Service feeds into its
  /// continuous-query network without re-deriving the frame conversion.
  SensorReading insertReading(SensorReading reading);

  /// insertReading minus the trigger pass: the replay path for handoff and
  /// replication imports. An imported reading already fired its triggers on
  /// the shard that first ingested it — firing again here would duplicate
  /// notifications the moment a shard with live subscriptions receives a
  /// migrated object's log.
  void importReading(SensorReading reading);

  /// Fresh (non-expired) readings about one mobile object, one per sensor,
  /// already converted into the universe frame, plus their derived motion
  /// flags (used by conflict-resolution rule 1, §4.1.2).
  using StoredReading = ReadingStore::StoredReading;
  [[nodiscard]] std::vector<StoredReading> readingsFor(const util::MobileObjectId& id) const;

  /// The object's *readings epoch*: a monotonically increasing counter that
  /// changes whenever the fusion-relevant state of the object's readings can
  /// have changed — on insertReading, on forced or TTL expiry, and on sensor
  /// (re)registration (calibration changes alter every confidence). TTL
  /// expiry is detected lazily: the first readingsEpoch() call after a
  /// stored reading outlives its TTL observes a bumped value. The Location
  /// Service keys its fusion cache on (object, epoch).
  [[nodiscard]] std::uint64_t readingsEpoch(const util::MobileObjectId& id) const;

  /// The next instant at which the object's fusion inputs change without a
  /// write: its next TTL boundary, or the next clock tick while one of its
  /// fresh readings comes from a sensor whose tdf degrades with age. max()
  /// when neither is pending. Read readingsEpoch first: the boundary comes
  /// from the published snapshot, which the lazy TTL bump reschedules.
  [[nodiscard]] util::TimePoint nextEvidenceChange(const util::MobileObjectId& id) const;

  /// The *evidence revision*: a counter that moves whenever stored mobile
  /// evidence changes other than by insertReading/importReading — on
  /// dropMobileObject, expireReadings, a purgeExpired that removed
  /// something, and sensor (de)registration. Appends and lazy TTL expiry do
  /// not move it. The Location Service's density rules track appends and TTL
  /// boundaries per object and resync from a poll when this moves.
  [[nodiscard]] std::uint64_t evidenceRevision() const;

  [[nodiscard]] std::vector<util::MobileObjectId> knownMobileObjects() const;

  /// Mobile objects with at least one stored reading whose MBR intersects
  /// `universeRect` — one scan of the store's packed per-object evidence
  /// columns (unsorted), the candidate-discovery primitive for region
  /// population queries. The box is the union of the object's stored
  /// reading rects and is only recomputed on insert/expiry, so it is a
  /// conservative superset while readings age out lazily: discovery can
  /// over-approximate but never misses an object with fresh evidence in the
  /// region.
  [[nodiscard]] std::vector<util::MobileObjectId> mobileObjectsIntersecting(
      const geo::Rect& universeRect) const;

  /// One object's published evidence box (see mobileObjectsIntersecting);
  /// nullopt when the object has no stored readings.
  [[nodiscard]] std::optional<geo::Rect> evidenceBoxOf(const util::MobileObjectId& id) const;

  /// Recent readings about one mobile object across all sensors, oldest
  /// first, restricted to `window` before now. The history ring is capped at
  /// historyCapacity() entries per object (Table 2 keeps temporal data; the
  /// paper's trigger machinery needs only the latest, but trajectory queries
  /// and movement-pattern learning consume the tail).
  [[nodiscard]] std::vector<SensorReading> history(const util::MobileObjectId& id,
                                                   util::Duration window) const;
  void setHistoryCapacity(std::size_t perObject);
  [[nodiscard]] std::size_t historyCapacity() const noexcept {
    return store_->historyCapacity();
  }

  /// The object's full history ring in insertion order, un-windowed — the
  /// replication/handoff export source: replaying it through insertReading
  /// reproduces the object's state (bounded by the ring capacity).
  [[nodiscard]] std::vector<SensorReading> exportObjectLog(
      const util::MobileObjectId& id) const;

  /// Removes everything stored about one mobile object (readings, history),
  /// bumping the evidence revision when it had readings — the losing side of
  /// a migration purges moved objects so stale estimates cannot leak into
  /// scatter-gather merges. Returns false when the object was unknown.
  bool dropMobileObject(const util::MobileObjectId& id);

  /// Drops expired readings eagerly (they are also filtered lazily on read).
  void purgeExpired();

  /// Force-expires all readings a given sensor made about a mobile object —
  /// §6.3: on manual logout "the adapter also forces all location
  /// information relating to that user and obtained from the same device to
  /// expire immediately."
  void expireReadings(const util::MobileObjectId& object, const util::SensorId& sensor);

  // --- reading-store stats ----------------------------------------------------

  /// Inserts that contended with another writer on the same object.
  [[nodiscard]] std::uint64_t readingWriterContentions() const noexcept {
    return store_->writerContentions();
  }
  /// readingsEpoch calls that raced another thread's lazy TTL bump.
  [[nodiscard]] std::uint64_t readingSnapshotRetries() const noexcept {
    return store_->snapshotRetries();
  }

  // --- triggers (§5.3) --------------------------------------------------------

  util::TriggerId createTrigger(TriggerSpec spec);
  bool dropTrigger(util::TriggerId id);
  [[nodiscard]] std::size_t triggerCount() const;

 private:
  [[nodiscard]] static std::string objectKey(const std::string& prefix,
                                             const util::SpatialObjectId& id);
  SensorReading insertReadingImpl(SensorReading reading, bool fireTriggersAfter);
  void fireTriggers(const SensorReading& universeReading);
  [[nodiscard]] bool rowContains(const SpatialObjectRow& row, geo::Point2 universePoint) const;
  [[nodiscard]] std::optional<SpatialObjectRow> objectLocked(
      const std::string& globPrefix, const util::SpatialObjectId& id) const;

  const util::Clock& clock_;
  geo::Rect universe_;
  glob::FrameTree frames_;

  /// Catalog lock: the spatial-object table and its R-tree only (behind
  /// unique_ptr so the database stays movable for snapshot restore).
  /// Mutators take it exclusively; const queries take it shared.
  mutable std::unique_ptr<std::shared_mutex> mutex_;

  // Object storage: stable slots + tombstones so R-tree handles stay valid.
  std::vector<std::optional<SpatialObjectRow>> objects_;
  std::unordered_map<std::string, std::size_t> objectIndex_;  // key -> slot
  geo::RTree<std::uint64_t> objectTree_;
  std::size_t liveObjects_ = 0;

  /// Sensor readings, sensor metadata, per-object epochs, evidence boxes and
  /// history rings — everything the ingest hot path touches (see
  /// reading_store.hpp). Also hosts the evidence revision, so the database
  /// stays movable.
  std::unique_ptr<ReadingStore> store_;

  /// Trigger lock: the trigger table and its discrimination network.
  /// Separate from the catalog lock because trigger matching runs on every
  /// insertReading. Matching goes through the continuous-query network
  /// (alpha nodes shared by region rect, subject discrimination by hash),
  /// so the per-reading cost tracks the AFFECTED triggers, not the table
  /// size; the spec map only resolves matched ids to their callbacks.
  mutable std::unique_ptr<std::shared_mutex> triggersMutex_;
  util::IdSequencer<util::TriggerId> triggerIds_;
  std::unordered_map<util::TriggerId, TriggerSpec> triggers_;
  cq::TriggerNetwork triggerNet_;
};

}  // namespace mw::db

#include "spatialdb/reading_store.hpp"

#include <algorithm>
#include <functional>
#include <string>
#include <utility>

#include "geometry/point.hpp"
#include "util/error.hpp"

namespace mw::db {

using mw::util::NotFoundError;
using mw::util::require;

namespace {
/// First instant at which a reading of age 0 at `detectionTime` outlives
/// `ttl` (expiredAt tests age > ttl, so the boundary is one tick past).
util::TimePoint expiryInstant(const SensorReading& reading, const SensorMeta& meta) {
  return reading.detectionTime + meta.quality.ttl + util::Duration{1};
}
}  // namespace

ReadingStore::ReadingStore(const util::Clock& clock, std::size_t stripes) : clock_(clock) {
  require(stripes >= 1, "ReadingStore: stripe count must be >= 1");
  stripes_.reserve(stripes);
  for (std::size_t i = 0; i < stripes; ++i) stripes_.push_back(std::make_unique<Stripe>());
}

// --- sensor-metadata table ----------------------------------------------------

void ReadingStore::publishSensor(SensorMeta meta) {
  std::lock_guard lock(metaWriteMutex_);
  auto next = std::make_shared<MetaTable>(*loadMetas());
  auto it = next->find(meta.sensorId);
  if (it != next->end()) {
    it->second.meta = std::move(meta);  // recalibration keeps the activity row
  } else {
    util::SensorId id = meta.sensorId;
    next->emplace(std::move(id),
                  SensorEntry{std::move(meta), std::make_shared<ActivityCell>()});
  }
  MetaTablePtr pub = std::move(next);
  {
    std::unique_lock slot(metaSlotMutex_);
    metas_.swap(pub);
  }  // the previous table's refcount drops after unlock
}

bool ReadingStore::retireSensor(const util::SensorId& id) {
  std::lock_guard lock(metaWriteMutex_);
  MetaTablePtr cur = loadMetas();
  if (!cur->contains(id)) return false;
  auto next = std::make_shared<MetaTable>(*cur);
  next->erase(id);
  MetaTablePtr pub = std::move(next);
  {
    std::unique_lock slot(metaSlotMutex_);
    metas_.swap(pub);
  }
  return true;
}

std::optional<SensorMeta> ReadingStore::sensorMeta(const util::SensorId& id) const {
  MetaTablePtr metas = loadMetas();
  auto it = metas->find(id);
  if (it == metas->end()) return std::nullopt;
  return it->second.meta;
}

std::vector<util::SensorId> ReadingStore::sensorIds() const {
  MetaTablePtr metas = loadMetas();
  std::vector<util::SensorId> out;
  out.reserve(metas->size());
  for (const auto& [id, _] : *metas) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t ReadingStore::sensorCount() const {
  return loadMetas()->size();
}

std::optional<ReadingStore::SensorActivity> ReadingStore::activity(
    const util::SensorId& id) const {
  MetaTablePtr metas = loadMetas();
  auto it = metas->find(id);
  if (it == metas->end()) return std::nullopt;
  SensorActivity out;
  out.readingCount =
      static_cast<std::size_t>(it->second.cell->readingCount.load(std::memory_order_relaxed));
  const util::Duration::rep last = it->second.cell->lastReadingMs.load(std::memory_order_relaxed);
  if (last != ActivityCell::kNoReading) {
    out.lastReading = util::TimePoint{util::Duration{last}};
  }
  return out;
}

void ReadingStore::noteSensorTableChanged() {
  metaEpoch_.fetch_add(1, std::memory_order_acq_rel);
  // Calibration/TTL changes reschedule every object's pending expiry under
  // the new table; epochs need no per-object bump because metaEpoch is added
  // into every reported value.
  MetaTablePtr metas = loadMetas();
  const util::TimePoint now = clock_.now();
  for (const auto& stripe : stripes_) {
    std::vector<ObjectLog*> logs;
    {
      std::shared_lock lock(stripe->mapMutex);
      logs.reserve(stripe->logs.size());
      for (const auto& [_, log] : stripe->logs) logs.push_back(log.get());
    }
    for (ObjectLog* log : logs) {
      std::lock_guard lock(log->writeMutex);
      SnapshotPtr cur = loadSnap(*log);
      const util::TimePoint boundary = nextExpiryOf(cur->readings, *metas, now);
      if (boundary == cur->nextExpiry) continue;
      auto next = std::make_shared<Snapshot>(*cur);
      next->nextExpiry = boundary;
      storeSnap(*stripe, *log, *cur, std::move(next));
    }
  }
  // Last, so a reader that sees the new revision also sees the new
  // boundaries (nextEvidenceChange).
  bumpEvidenceRevision();
}

// --- internals ----------------------------------------------------------------

ReadingStore::SnapshotPtr ReadingStore::loadSnap(const ObjectLog& log) {
  std::shared_lock lock(log.snapMutex);
  return log.snap;
}

void ReadingStore::storeSnap(Stripe& stripe, ObjectLog& log, const Snapshot& prev,
                             SnapshotPtr next) {
  // The box is a function of the readings, so the writer (which holds the
  // object's writer mutex, the slot's only writer) knows the slot still
  // holds unionBox(prev) without reading the column.
  const geo::Rect box = unionBox(next->readings);
  if (box == unionBox(prev.readings)) {
    std::unique_lock lock(log.snapMutex);
    log.snap.swap(next);
  } else {
    std::unique_lock column(stripe.columnMutex);
    std::unique_lock lock(log.snapMutex);
    log.snap.swap(next);
    stripe.column[log.slot].box = box;
  }
  // `next` now holds the previous snapshot; its refcount drops (and the
  // snapshot possibly frees) outside both locks.
}

ReadingStore::MetaTablePtr ReadingStore::loadMetas() const {
  std::shared_lock lock(metaSlotMutex_);
  return metas_;
}

ReadingStore::Stripe& ReadingStore::stripeFor(const util::MobileObjectId& id) const {
  const std::size_t h = std::hash<std::string>{}(id.str());
  return *stripes_[h % stripes_.size()];
}

ReadingStore::ObjectLog* ReadingStore::findLog(Stripe& stripe, const util::MobileObjectId& id) {
  std::shared_lock lock(stripe.mapMutex);
  auto it = stripe.logs.find(id);
  return it == stripe.logs.end() ? nullptr : it->second.get();
}

ReadingStore::ObjectLog& ReadingStore::obtainLog(Stripe& stripe, const util::MobileObjectId& id) {
  if (ObjectLog* log = findLog(stripe, id)) return *log;
  std::unique_lock lock(stripe.mapMutex);
  auto [it, inserted] = stripe.logs.try_emplace(id);
  if (inserted) {
    it->second = std::make_unique<ObjectLog>();
    // The map node's key is stable (logs are never erased), so the slot
    // can point at it instead of copying the id.
    std::unique_lock column(stripe.columnMutex);
    it->second->slot = stripe.column.size();
    stripe.column.push_back(EvidenceSlot{geo::Rect{}, &it->first});
  }
  return *it->second;
}

std::unique_lock<std::mutex> ReadingStore::lockWriter(ObjectLog& log) const {
  std::unique_lock lock(log.writeMutex, std::try_to_lock);
  if (!lock.owns_lock()) {
    writerContentions_.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
  }
  return lock;
}

geo::Rect ReadingStore::unionBox(
    const std::vector<std::pair<util::SensorId, StoredReading>>& readings) {
  geo::Rect box;
  for (const auto& [_, stored] : readings) box = box.unionWith(stored.reading.rect());
  // Degenerate evidence (a single exact-point reading) still needs a
  // non-empty box for intersection tests, mirroring the object table.
  if (!box.empty() && box.area() == 0) box = box.inflated(1e-6);
  return box;
}

util::TimePoint ReadingStore::nextExpiryOf(
    const std::vector<std::pair<util::SensorId, StoredReading>>& readings,
    const MetaTable& metas, util::TimePoint now) {
  util::TimePoint next = util::TimePoint::max();
  for (const auto& [sensorId, stored] : readings) {
    auto it = metas.find(sensorId);
    if (it == metas.end()) continue;
    const util::TimePoint boundary = expiryInstant(stored.reading, it->second.meta);
    if (boundary > now) next = std::min(next, boundary);
  }
  return next;
}

// --- appends ------------------------------------------------------------------

void ReadingStore::append(const SensorReading& universeReading) {
  MetaTablePtr metas = loadMetas();
  auto metaIt = metas->find(universeReading.sensorId);
  if (metaIt == metas->end()) {
    throw NotFoundError("SpatialDatabase::insertReading: unregistered sensor '" +
                        universeReading.sensorId.str() + "'");
  }
  const SensorMeta& meta = metaIt->second.meta;

  Stripe& stripe = stripeFor(universeReading.mobileObjectId);
  ObjectLog& log = obtainLog(stripe, universeReading.mobileObjectId);
  std::unique_lock lock = lockWriter(log);
  SnapshotPtr old = loadSnap(log);

  auto next = std::make_shared<Snapshot>();
  next->readings.reserve(old->readings.size() + 1);
  bool moving = false;
  // Freshest report first: conflict resolution ranks candidate regions by
  // probability, and when time-decay leaves two readings tied the earlier
  // input wins — the published behaviour is that the most recent evidence
  // breaks such ties.
  next->readings.emplace_back(universeReading.sensorId, StoredReading{universeReading, false});
  for (const auto& entry : old->readings) {
    if (entry.first == universeReading.sensorId) {
      // Rule-1 input (§4.1.2 case 3): the region moved if its center shifted
      // by more than a hair since the sensor's previous report.
      moving = geo::distance(entry.second.reading.rect().center(),
                             universeReading.rect().center()) > 1e-6;
      continue;  // replaced by the fresh report above
    }
    next->readings.push_back(entry);
  }
  next->readings.front().second.moving = moving;
  next->epoch = old->epoch + 1;
  next->nextExpiry = std::min(old->nextExpiry, expiryInstant(universeReading, meta));

  log.historyRing.push_back(universeReading);
  const std::size_t capacity = historyCapacity_.load(std::memory_order_relaxed);
  while (log.historyRing.size() > capacity) log.historyRing.pop_front();

  ActivityCell& cell = *metaIt->second.cell;
  cell.readingCount.fetch_add(1, std::memory_order_relaxed);
  cell.lastReadingMs.store(universeReading.detectionTime.time_since_epoch().count(),
                           std::memory_order_relaxed);

  storeSnap(stripe, log, *old, std::move(next));
}

// --- snapshot reads -----------------------------------------------------------

std::vector<ReadingStore::StoredReading> ReadingStore::freshReadings(
    const util::MobileObjectId& id) const {
  std::vector<StoredReading> out;
  const ObjectLog* log = findLog(id);
  if (log == nullptr) return out;
  MetaTablePtr metas = loadMetas();
  SnapshotPtr snap = loadSnap(*log);
  const util::TimePoint now = clock_.now();
  out.reserve(snap->readings.size());
  for (const auto& [sensorId, stored] : snap->readings) {
    auto metaIt = metas->find(sensorId);
    if (metaIt == metas->end()) continue;  // deregistered: invisible immediately
    if (metaIt->second.meta.quality.expiredAt(now - stored.reading.detectionTime)) continue;
    out.push_back(stored);
  }
  return out;
}

std::uint64_t ReadingStore::epochOf(const util::MobileObjectId& id) const {
  const std::uint64_t metaEpoch = metaEpoch_.load(std::memory_order_acquire);
  Stripe& stripe = stripeFor(id);
  ObjectLog* log = findLog(stripe, id);
  if (log == nullptr) return metaEpoch;
  SnapshotPtr snap = loadSnap(*log);
  const util::TimePoint now = clock_.now();
  if (now < snap->nextExpiry) return metaEpoch + snap->epoch;

  // A TTL boundary has been crossed: publish the bump under the object's
  // writer lock so cached fusion states keyed on the old value are
  // invalidated exactly once.
  std::lock_guard lock(log->writeMutex);
  SnapshotPtr cur = loadSnap(*log);
  if (now < cur->nextExpiry) {
    // Another thread advanced the snapshot while we waited for the lock.
    snapshotRetries_.fetch_add(1, std::memory_order_relaxed);
    return metaEpoch + cur->epoch;
  }
  MetaTablePtr metas = loadMetas();
  auto next = std::make_shared<Snapshot>(*cur);
  next->epoch = cur->epoch + 1;
  next->nextExpiry = nextExpiryOf(next->readings, *metas, now);
  const std::uint64_t result = metaEpoch + next->epoch;
  storeSnap(stripe, *log, *cur, std::move(next));
  return result;
}

util::TimePoint ReadingStore::nextEvidenceChange(const util::MobileObjectId& id) const {
  const ObjectLog* log = findLog(id);
  if (log == nullptr) return util::TimePoint::max();
  SnapshotPtr snap = loadSnap(*log);
  MetaTablePtr metas = loadMetas();
  const util::TimePoint now = clock_.now();
  for (const auto& [sensorId, stored] : snap->readings) {
    auto metaIt = metas->find(sensorId);
    if (metaIt == metas->end()) continue;
    const quality::QualityProfile& quality = metaIt->second.meta.quality;
    if (quality.expiredAt(now - stored.reading.detectionTime)) continue;
    if (dynamic_cast<const quality::NoDegradation*>(quality.tdf.get()) == nullptr) {
      return now + util::Duration{1};  // its confidence moves with every tick
    }
  }
  return snap->nextExpiry;
}

std::vector<util::MobileObjectId> ReadingStore::knownObjects() const {
  std::vector<util::MobileObjectId> out;
  for (const auto& stripe : stripes_) {
    std::shared_lock lock(stripe->mapMutex);
    for (const auto& [id, log] : stripe->logs) {
      if (!loadSnap(*log)->readings.empty()) out.push_back(id);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<util::MobileObjectId> ReadingStore::objectsIntersecting(
    const geo::Rect& universeRect) const {
  std::vector<util::MobileObjectId> out;
  for (const auto& stripe : stripes_) {
    std::shared_lock lock(stripe->columnMutex);
    for (const EvidenceSlot& slot : stripe->column) {
      // intersects() is false for an empty box (no stored readings).
      if (slot.box.intersects(universeRect)) out.push_back(*slot.id);
    }
  }
  return out;
}

std::optional<geo::Rect> ReadingStore::evidenceBoxOf(const util::MobileObjectId& id) const {
  Stripe& stripe = stripeFor(id);
  const ObjectLog* log = findLog(stripe, id);
  if (log == nullptr) return std::nullopt;
  std::shared_lock lock(stripe.columnMutex);
  const geo::Rect& box = stripe.column[log->slot].box;
  if (box.empty()) return std::nullopt;
  return box;
}

std::vector<SensorReading> ReadingStore::history(const util::MobileObjectId& id,
                                                 util::Duration window) const {
  const util::TimePoint cutoff = clock_.now() - window;
  std::vector<SensorReading> out;
  ObjectLog* log = findLog(id);
  if (log == nullptr) return out;
  {
    std::lock_guard lock(log->writeMutex);
    for (const auto& reading : log->historyRing) {
      if (reading.detectionTime >= cutoff) out.push_back(reading);
    }
  }
  std::sort(out.begin(), out.end(), [](const SensorReading& a, const SensorReading& b) {
    return a.detectionTime < b.detectionTime;
  });
  return out;
}

std::vector<SensorReading> ReadingStore::exportLog(const util::MobileObjectId& id) const {
  std::vector<SensorReading> out;
  ObjectLog* log = findLog(id);
  if (log == nullptr) return out;
  std::lock_guard lock(log->writeMutex);
  out.assign(log->historyRing.begin(), log->historyRing.end());
  return out;
}

bool ReadingStore::dropObject(const util::MobileObjectId& id) {
  // Publishes an empty snapshot instead of erasing the map entry: readers
  // hold ObjectLog pointers past the stripe lock (logs are stable for the
  // store's lifetime), so erasure would dangle them. An emptied log is
  // invisible to every read path — knownObjects filters empty snapshots,
  // the emptied column slot never intersects, freshReadings returns
  // nothing — which is all "dropped" means.
  Stripe& stripe = stripeFor(id);
  ObjectLog* log = findLog(stripe, id);
  if (log == nullptr) return false;
  std::lock_guard lock(log->writeMutex);
  SnapshotPtr cur = loadSnap(*log);
  const bool had = !cur->readings.empty() || !log->historyRing.empty();
  log->historyRing.clear();
  if (!cur->readings.empty()) {
    auto next = std::make_shared<Snapshot>();
    next->epoch = cur->epoch + 1;
    storeSnap(stripe, *log, *cur, std::move(next));
    bumpEvidenceRevision();
  }
  return had;
}

void ReadingStore::setHistoryCapacity(std::size_t perObject) {
  require(perObject >= 1, "SpatialDatabase::setHistoryCapacity: capacity must be >= 1");
  historyCapacity_.store(perObject, std::memory_order_relaxed);
  for (const auto& stripe : stripes_) {
    std::vector<ObjectLog*> logs;
    {
      std::shared_lock lock(stripe->mapMutex);
      logs.reserve(stripe->logs.size());
      for (const auto& [_, log] : stripe->logs) logs.push_back(log.get());
    }
    for (ObjectLog* log : logs) {
      std::lock_guard lock(log->writeMutex);
      while (log->historyRing.size() > perObject) log->historyRing.pop_front();
    }
  }
}

// --- maintenance --------------------------------------------------------------

void ReadingStore::purgeExpired() {
  MetaTablePtr metas = loadMetas();
  const util::TimePoint now = clock_.now();
  bool removed = false;
  for (const auto& stripe : stripes_) {
    std::vector<ObjectLog*> logs;
    {
      std::shared_lock lock(stripe->mapMutex);
      logs.reserve(stripe->logs.size());
      for (const auto& [_, log] : stripe->logs) logs.push_back(log.get());
    }
    for (ObjectLog* log : logs) {
      std::lock_guard lock(log->writeMutex);
      SnapshotPtr cur = loadSnap(*log);
      if (cur->readings.empty()) continue;
      auto next = std::make_shared<Snapshot>();
      next->readings.reserve(cur->readings.size());
      for (const auto& entry : cur->readings) {
        auto metaIt = metas->find(entry.first);
        if (metaIt == metas->end()) continue;  // orphaned by deregistration
        if (metaIt->second.meta.quality.expiredAt(now - entry.second.reading.detectionTime)) {
          continue;
        }
        next->readings.push_back(entry);
      }
      if (next->readings.size() == cur->readings.size()) continue;
      next->epoch = cur->epoch + 1;
      next->nextExpiry = nextExpiryOf(next->readings, *metas, now);
      storeSnap(*stripe, *log, *cur, std::move(next));
      removed = true;
    }
  }
  if (removed) bumpEvidenceRevision();
}

bool ReadingStore::expireReadings(const util::MobileObjectId& object,
                                  const util::SensorId& sensor) {
  Stripe& stripe = stripeFor(object);
  ObjectLog* log = findLog(stripe, object);
  if (log == nullptr) return false;
  std::lock_guard lock(log->writeMutex);
  SnapshotPtr cur = loadSnap(*log);
  auto it = std::find_if(cur->readings.begin(), cur->readings.end(),
                         [&](const auto& entry) { return entry.first == sensor; });
  if (it == cur->readings.end()) return false;
  auto next = std::make_shared<Snapshot>();
  next->readings.reserve(cur->readings.size() - 1);
  for (const auto& entry : cur->readings) {
    if (entry.first != sensor) next->readings.push_back(entry);
  }
  next->epoch = cur->epoch + 1;
  MetaTablePtr metas = loadMetas();
  next->nextExpiry = nextExpiryOf(next->readings, *metas, clock_.now());
  storeSnap(stripe, *log, *cur, std::move(next));
  bumpEvidenceRevision();
  return true;
}

}  // namespace mw::db

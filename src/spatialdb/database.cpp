#include "spatialdb/database.hpp"

#include <algorithm>
#include <limits>
#include <mutex>

#include "geometry/segment.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace mw::db {

using mw::util::ContractError;
using mw::util::NotFoundError;
using mw::util::require;

namespace {
glob::FrameTree singleFrameTree(const std::string& rootFrame) {
  glob::FrameTree tree;
  tree.addRoot(rootFrame);
  return tree;
}
}  // namespace

SpatialDatabase::SpatialDatabase(const util::Clock& clock, geo::Rect universe,
                                 glob::FrameTree frames)
    : clock_(clock),
      universe_(universe),
      frames_(std::move(frames)),
      mutex_(std::make_unique<std::shared_mutex>()),
      store_(std::make_unique<ReadingStore>(clock)),
      triggersMutex_(std::make_unique<std::shared_mutex>()) {
  require(!universe_.empty() && universe_.area() > 0,
          "SpatialDatabase: universe must have positive area");
  (void)frames_.rootName();  // throws if no root was registered
}

SpatialDatabase::SpatialDatabase(const util::Clock& clock, geo::Rect universe,
                                 const std::string& rootFrame)
    : SpatialDatabase(clock, universe, singleFrameTree(rootFrame)) {}

// --- spatial-object table -----------------------------------------------------

std::string SpatialDatabase::objectKey(const std::string& prefix,
                                       const util::SpatialObjectId& id) {
  return prefix + "/" + id.str();
}

std::string SpatialDatabase::frameFor(const std::string& globPrefix) const {
  std::string candidate = globPrefix;
  while (!candidate.empty()) {
    if (frames_.has(candidate)) return candidate;
    auto slash = candidate.rfind('/');
    if (slash == std::string::npos) break;
    candidate.resize(slash);
  }
  return frames_.rootName();
}

void SpatialDatabase::addObject(SpatialObjectRow row) {
  row.validate();
  const std::string frameName = frameFor(row.globPrefix);
  std::string key = objectKey(row.globPrefix, row.id);
  geo::Rect box = frames_.convertRect(frameName, frames_.rootName(), row.mbr());
  // Degenerate geometries (points, axis-aligned lines) still need a non-empty
  // box for the index.
  if (box.area() == 0) box = box.inflated(1e-6);

  std::unique_lock lock(*mutex_);
  require(!objectIndex_.contains(key), "SpatialDatabase::addObject: duplicate key " + key);
  std::size_t slot = objects_.size();
  objects_.push_back(std::move(row));
  objectIndex_.emplace(std::move(key), slot);
  objectTree_.insert(box, static_cast<std::uint64_t>(slot));
  ++liveObjects_;
}

bool SpatialDatabase::removeObject(const std::string& globPrefix,
                                   const util::SpatialObjectId& id) {
  std::unique_lock lock(*mutex_);
  auto it = objectIndex_.find(objectKey(globPrefix, id));
  if (it == objectIndex_.end()) return false;
  std::size_t slot = it->second;
  const SpatialObjectRow& row = *objects_[slot];
  geo::Rect box = frames_.convertRect(frameFor(row.globPrefix), frames_.rootName(), row.mbr());
  if (box.area() == 0) box = box.inflated(1e-6);
  objectTree_.remove(box, static_cast<std::uint64_t>(slot));
  objects_[slot].reset();
  objectIndex_.erase(it);
  --liveObjects_;
  return true;
}

std::optional<SpatialObjectRow> SpatialDatabase::objectLocked(
    const std::string& globPrefix, const util::SpatialObjectId& id) const {
  auto it = objectIndex_.find(objectKey(globPrefix, id));
  if (it == objectIndex_.end()) return std::nullopt;
  return objects_[it->second];
}

std::optional<SpatialObjectRow> SpatialDatabase::object(const std::string& globPrefix,
                                                        const util::SpatialObjectId& id) const {
  std::shared_lock lock(*mutex_);
  return objectLocked(globPrefix, id);
}

std::optional<SpatialObjectRow> SpatialDatabase::objectByGlob(const std::string& fullGlob) const {
  std::shared_lock lock(*mutex_);
  auto slash = fullGlob.rfind('/');
  if (slash == std::string::npos) {
    return objectLocked("", util::SpatialObjectId{fullGlob});
  }
  return objectLocked(fullGlob.substr(0, slash),
                      util::SpatialObjectId{fullGlob.substr(slash + 1)});
}

std::vector<SpatialObjectRow> SpatialDatabase::objectsOfType(ObjectType type) const {
  std::shared_lock lock(*mutex_);
  std::vector<SpatialObjectRow> out;
  for (const auto& row : objects_) {
    if (row && row->objectType == type) out.push_back(*row);
  }
  return out;
}

std::vector<SpatialObjectRow> SpatialDatabase::objectsIntersecting(
    const geo::Rect& universeRect) const {
  std::shared_lock lock(*mutex_);
  std::vector<SpatialObjectRow> out;
  objectTree_.search(universeRect, [&](const std::uint64_t& slot) {
    const auto& row = objects_[static_cast<std::size_t>(slot)];
    if (row) out.push_back(*row);
  });
  return out;
}

bool SpatialDatabase::rowContains(const SpatialObjectRow& row, geo::Point2 universePoint) const {
  geo::Point2 local = frames_.convert(frames_.rootName(), frameFor(row.globPrefix), universePoint);
  switch (row.geometryType) {
    case GeometryType::Polygon:
      return row.polygon().contains(local);
    case GeometryType::Line:
      return geo::distanceToSegment(local, row.segment()) < 1e-6;
    case GeometryType::Point:
      return geo::distance(local, row.point()) < 1e-6;
  }
  return false;
}

std::vector<SpatialObjectRow> SpatialDatabase::objectsContaining(geo::Point2 universePoint) const {
  std::shared_lock lock(*mutex_);
  std::vector<SpatialObjectRow> out;
  objectTree_.containing(universePoint, [&](const std::uint64_t& slot) {
    const auto& row = objects_[static_cast<std::size_t>(slot)];
    if (row && rowContains(*row, universePoint)) out.push_back(*row);
  });
  return out;
}

std::vector<SpatialObjectRow> SpatialDatabase::query(
    const std::function<bool(const SpatialObjectRow&)>& predicate) const {
  std::shared_lock lock(*mutex_);
  std::vector<SpatialObjectRow> out;
  for (const auto& row : objects_) {
    if (row && predicate(*row)) out.push_back(*row);
  }
  return out;
}

std::optional<SpatialObjectRow> SpatialDatabase::nearest(
    geo::Point2 universePoint,
    const std::function<bool(const SpatialObjectRow&)>& predicate) const {
  std::shared_lock lock(*mutex_);
  std::optional<SpatialObjectRow> best;
  double bestDist = std::numeric_limits<double>::infinity();
  for (const auto& row : objects_) {
    if (!row || !predicate(*row)) continue;
    double d = universeMbr(*row).distanceTo(universePoint);
    if (d < bestDist) {
      bestDist = d;
      best = *row;
    }
  }
  return best;
}

std::size_t SpatialDatabase::objectCount() const {
  std::shared_lock lock(*mutex_);
  return liveObjects_;
}

geo::Rect SpatialDatabase::universeMbr(const SpatialObjectRow& row) const {
  return frames_.convertRect(frameFor(row.globPrefix), frames_.rootName(), row.mbr());
}

geo::Polygon SpatialDatabase::universePolygon(const SpatialObjectRow& row) const {
  return frames_.convertPolygon(frameFor(row.globPrefix), frames_.rootName(), row.polygon());
}

// --- sensor tables --------------------------------------------------------------

void SpatialDatabase::registerSensor(SensorMeta meta) {
  require(!meta.sensorId.empty(), "SpatialDatabase::registerSensor: empty sensor id");
  meta.errorSpec.validate();
  store_->publishSensor(std::move(meta));
  // Calibration/TTL changes alter every cached confidence: the meta epoch
  // moves every object's readings epoch and the expiry schedules are
  // recomputed under the new TTLs.
  store_->noteSensorTableChanged();
}

bool SpatialDatabase::deregisterSensor(const util::SensorId& id) {
  // Stored readings from the sensor stay in place but are skipped on every
  // read path (their metadata lookup fails), so each object's fusion inputs
  // change. Re-registration later bumps the epochs again.
  if (!store_->retireSensor(id)) return false;
  store_->noteSensorTableChanged();
  return true;
}

std::vector<util::SensorId> SpatialDatabase::sensorIds() const { return store_->sensorIds(); }

std::size_t SpatialDatabase::sensorCount() const { return store_->sensorCount(); }

std::optional<SensorMeta> SpatialDatabase::sensorMeta(const util::SensorId& id) const {
  return store_->sensorMeta(id);
}

std::vector<SpatialDatabase::SensorHealth> SpatialDatabase::sensorHealth(
    double silenceFactor) const {
  require(silenceFactor > 0, "SpatialDatabase::sensorHealth: factor must be positive");
  const util::TimePoint now = clock_.now();
  std::vector<SensorHealth> out;
  for (const auto& id : store_->sensorIds()) {
    const auto meta = store_->sensorMeta(id);
    const auto activity = store_->activity(id);
    if (!meta || !activity) continue;  // deregistered between the two loads
    SensorHealth h;
    h.sensorId = id;
    h.sensorType = meta->sensorType;
    if (activity->lastReading) {
      h.readingCount = activity->readingCount;
      h.lastReadingAge = now - *activity->lastReading;
      auto threshold = util::Duration{static_cast<std::int64_t>(
          static_cast<double>(meta->quality.ttl.count()) * silenceFactor)};
      h.silent = *h.lastReadingAge > threshold;
    } else {
      h.readingCount = 0;
      h.silent = true;
    }
    out.push_back(std::move(h));
  }
  return out;
}

SensorReading SpatialDatabase::insertReading(SensorReading reading) {
  return insertReadingImpl(std::move(reading), /*fireTriggersAfter=*/true);
}

void SpatialDatabase::importReading(SensorReading reading) {
  insertReadingImpl(std::move(reading), /*fireTriggersAfter=*/false);
}

SensorReading SpatialDatabase::insertReadingImpl(SensorReading reading, bool fireTriggersAfter) {
  require(!reading.mobileObjectId.empty(), "SpatialDatabase::insertReading: empty mobile object");

  // Convert into the universe frame (§4.1.2 step 1: common format). The
  // FrameTree is set up before concurrent operation, so no lock is needed.
  const std::string frameName = frameFor(reading.globPrefix);
  const std::string& root = frames_.rootName();
  if (frameName != root) {
    reading.location = frames_.convert(frameName, root, reading.location);
    if (reading.symbolicRegion) {
      reading.symbolicRegion = frames_.convertRect(frameName, root, *reading.symbolicRegion);
    }
    reading.globPrefix = root;
  }

  // The append touches only the object's own stripe — never the catalog
  // lock — so concurrent inserts on different objects scale across cores.
  store_->append(reading);

  // Triggers fire outside every lock so their callbacks may reenter the
  // database (and so concurrent shards never serialize on user code).
  // Imports (handoff/replication replays of readings that already fired
  // wherever they were first ingested) skip this.
  if (fireTriggersAfter) fireTriggers(reading);
  return reading;
}

std::vector<SpatialDatabase::StoredReading> SpatialDatabase::readingsFor(
    const util::MobileObjectId& id) const {
  return store_->freshReadings(id);
}

std::uint64_t SpatialDatabase::readingsEpoch(const util::MobileObjectId& id) const {
  return store_->epochOf(id);
}

util::TimePoint SpatialDatabase::nextEvidenceChange(const util::MobileObjectId& id) const {
  return store_->nextEvidenceChange(id);
}

std::uint64_t SpatialDatabase::evidenceRevision() const { return store_->evidenceRevision(); }

std::vector<util::MobileObjectId> SpatialDatabase::mobileObjectsIntersecting(
    const geo::Rect& universeRect) const {
  return store_->objectsIntersecting(universeRect);
}

std::optional<geo::Rect> SpatialDatabase::evidenceBoxOf(const util::MobileObjectId& id) const {
  return store_->evidenceBoxOf(id);
}

std::vector<util::MobileObjectId> SpatialDatabase::knownMobileObjects() const {
  return store_->knownObjects();
}

std::vector<SensorReading> SpatialDatabase::history(const util::MobileObjectId& id,
                                                    util::Duration window) const {
  return store_->history(id, window);
}

void SpatialDatabase::setHistoryCapacity(std::size_t perObject) {
  store_->setHistoryCapacity(perObject);
}

void SpatialDatabase::purgeExpired() { store_->purgeExpired(); }

std::vector<SensorReading> SpatialDatabase::exportObjectLog(
    const util::MobileObjectId& id) const {
  return store_->exportLog(id);
}

bool SpatialDatabase::dropMobileObject(const util::MobileObjectId& id) {
  return store_->dropObject(id);
}

void SpatialDatabase::expireReadings(const util::MobileObjectId& object,
                                     const util::SensorId& sensor) {
  store_->expireReadings(object, sensor);
}

// --- triggers --------------------------------------------------------------------

util::TriggerId SpatialDatabase::createTrigger(TriggerSpec spec) {
  require(!spec.region.empty(), "SpatialDatabase::createTrigger: empty region");
  require(static_cast<bool>(spec.callback), "SpatialDatabase::createTrigger: null callback");
  std::unique_lock lock(*triggersMutex_);
  util::TriggerId id = triggerIds_.next();
  std::optional<std::string> subject;
  if (spec.subject) subject = spec.subject->str();
  triggerNet_.installProduction(id.value(), spec.region, subject);
  triggers_.emplace(id, std::move(spec));
  return id;
}

bool SpatialDatabase::dropTrigger(util::TriggerId id) {
  std::unique_lock lock(*triggersMutex_);
  auto it = triggers_.find(id);
  if (it == triggers_.end()) return false;
  triggerNet_.removeProduction(id.value());
  triggers_.erase(it);
  return true;
}

std::size_t SpatialDatabase::triggerCount() const {
  std::shared_lock lock(*triggersMutex_);
  return triggers_.size();
}

void SpatialDatabase::fireTriggers(const SensorReading& universeReading) {
  geo::Rect box = universeReading.rect();
  // Match under the shared trigger lock, invoke outside it: callbacks are
  // user code and must be free to call back into the database. The network
  // discriminates by shared region node AND subject, so the matched set is
  // exactly the affected triggers — never a linear pass over the table.
  std::vector<std::pair<std::function<void(const TriggerEvent&)>, TriggerEvent>> toFire;
  {
    std::shared_lock lock(*triggersMutex_);
    std::vector<cq::ProductionId> matched;
    triggerNet_.matchAlpha(box, universeReading.mobileObjectId.str(), matched);
    toFire.reserve(matched.size());
    for (cq::ProductionId raw : matched) {
      util::TriggerId id{raw};
      const TriggerSpec& spec = triggers_.at(id);
      toFire.emplace_back(spec.callback, TriggerEvent{id, universeReading, spec.region});
    }
  }
  for (auto& [callback, event] : toFire) callback(event);
}

}  // namespace mw::db

#include "core/location_service.hpp"

#include "reasoning/spatial_rules.hpp"

#include <algorithm>
#include <cstring>

#include "util/error.hpp"
#include "util/logging.hpp"

namespace mw::core {

using mw::util::MobileObjectId;
using mw::util::require;
using mw::util::SubscriptionId;

LocationService::LocationService(const util::Clock& clock, db::SpatialDatabase& database)
    : clock_(clock), db_(database), engine_(database.universe()) {}

// --- ingestion --------------------------------------------------------------------

void LocationService::ingest(const db::SensorReading& reading) {
  applyReadings(std::span(&reading, 1));
}

void LocationService::ingestBatch(std::span<const db::SensorReading> readings) {
  if (readings.empty()) return;
  ingestedBatches_.fetch_add(1, std::memory_order_relaxed);
  applyReadings(readings);
}

void LocationService::applyReadings(std::span<const db::SensorReading> readings) {
  std::shared_lock gate(ingestGate_);
  std::vector<db::SensorReading> kept;
  if (auto tap = currentTap()) {
    kept = (*tap)(readings);
    readings = kept;
  }
  for (const auto& reading : readings) ingestOne(reading);
  // Counted once applied: the counter is a drain marker.
  ingestedReadings_.fetch_add(readings.size(), std::memory_order_relaxed);
}

void LocationService::setIngestTap(IngestTap tap) {
  auto next = tap ? std::make_shared<const IngestTap>(std::move(tap)) : nullptr;
  std::lock_guard lock(tapMutex_);
  tap_ = std::move(next);
}

std::shared_ptr<const LocationService::IngestTap> LocationService::currentTap() const {
  std::lock_guard lock(tapMutex_);
  return tap_;
}

void LocationService::ingestOne(const db::SensorReading& reading) {
  const db::SensorReading stored = db_.insertReading(reading);
  const MobileObjectId& object = stored.mobileObjectId;
  // The continuous-query network discriminates the update to the AFFECTED
  // subscriptions: alpha hits (region ∩ reading box, subject matches) plus
  // every rule currently tracking this object as inside (exit candidates —
  // a reading that no longer intersects a region must still drive that
  // region's falling edge). Cost is O(matched), never O(subscriptions).
  // Density rules among them are the ones this reading may notify; which
  // ones it re-counts follows from the object's whole evidence box.
  std::vector<cq::ProductionId> toEvaluate;
  std::vector<MobileObjectId> due;
  bool anyPlain = false;
  bool counted = false;
  bool resync = false;
  {
    std::lock_guard lock(subsMutex_);
    subNet_.match(stored.rect(), object.str(), toEvaluate);
    anyPlain = std::any_of(toEvaluate.begin(), toEvaluate.end(),
                           [this](cq::ProductionId id) { return !subNet_.isCounting(id); });
    if (subNet_.countingCount() > 0) {
      const std::uint64_t revision = db_.evidenceRevision();
      resync = revision != countingRevision_;
      countingRevision_ = revision;
      const util::TimePoint now = clock_.now();
      while (!countingDue_.empty() && countingDue_.begin()->first <= now) {
        due.push_back(countingDue_.begin()->second);
        countingTracked_.erase(due.back());
        countingDue_.erase(countingDue_.begin());
      }
      const std::optional<geo::Rect> box = db_.evidenceBoxOf(object);
      subNet_.matchCounting(box.value_or(geo::Rect{}), object.str(), countingScratch_);
      counted = !countingScratch_.empty();
      if (!counted) trackLocked(object, std::nullopt);
    }
  }
  // Evidence that changed without a reading is re-counted before this
  // reading's counts are read: out-of-band changes by one poll per rule,
  // TTL boundaries (and degrading tdfs) by the objects that came due.
  if (resync) resyncCounting();
  recount(std::move(due));
  if (!anyPlain && !counted) return;

  // One fusion serves every subscription and counting rule this reading
  // touched (the insert bumped the epoch, so this recomputes exactly once).
  std::vector<PendingNotification> notifications;
  std::vector<PendingDensityNotification> densityNotifications;
  for (;;) {
    const CountingEvidence evidence = readCountingEvidence(object, /*fuse=*/true);
    std::lock_guard lock(subsMutex_);
    // Stale: the epoch moved since the read; re-read with the lock released.
    if (counted && applyCountingLocked(evidence) != Recount::Applied) continue;
    // match() returns sorted ids, so evaluation (and notification) order is
    // deterministic for a given reading.
    for (cq::ProductionId subId : toEvaluate) {
      auto dit = densitySubs_.find(SubscriptionId{subId});
      if (dit == densitySubs_.end()) {
        evaluateSubscriptionLocked(SubscriptionId{subId}, object, *evidence.fused, notifications);
        continue;
      }
      const cq::CountUpdate update = subNet_.reportCount(subId);
      if (!update.changed && update.edge == cq::CountEdge::None) continue;
      DensityNotification n;
      n.id = SubscriptionId{subId};
      n.region = dit->second.spec.region;
      n.count = update.count;
      n.limit = dit->second.spec.limit;
      n.edge = update.edge;
      n.object = object;
      n.when = clock_.now();
      densityNotifications.push_back(
          PendingDensityNotification{dit->second.spec.callback, std::move(n)});
    }
    break;
  }
  // Callbacks run with no locks held, so they may (un)subscribe or query.
  for (auto& pending : notifications) pending.callback(pending.notification);
  for (auto& pending : densityNotifications) pending.callback(pending.notification);
}

LocationService::CountingEvidence LocationService::readCountingEvidence(
    const MobileObjectId& object, bool fuse) const {
  // Epoch FIRST: the box and the fused state read after it belong to that
  // epoch as long as it has not moved when the evidence is applied (every
  // box change bumps the object's epoch).
  CountingEvidence evidence{object, db_.readingsEpoch(object), db_.evidenceBoxOf(object),
                            nullptr};
  if (fuse) evidence.fused = fusedStateFor(object);
  return evidence;
}

LocationService::Recount LocationService::applyCountingLocked(const CountingEvidence& evidence) {
  if (db_.readingsEpoch(evidence.object) != evidence.epoch) return Recount::Stale;
  const std::string& name = evidence.object.str();
  subNet_.matchCounting(evidence.box.value_or(geo::Rect{}), name, countingScratch_);
  bool touches = false;
  for (cq::ProductionId id : countingScratch_) {
    const DensitySubscription& spec = densitySubs_.at(SubscriptionId{id}).spec;
    const bool hit = evidence.box && evidence.box->intersects(spec.region);
    if (hit && !evidence.fused) return Recount::NeedsFusion;
    touches = touches || hit;
    subNet_.setInside(id, name,
                      hit && engine_.probabilityInRegion(spec.region, *evidence.fused) >=
                                 spec.minProbability);
  }
  trackLocked(evidence.object,
              touches ? std::optional(db_.nextEvidenceChange(evidence.object)) : std::nullopt);
  return Recount::Applied;
}

void LocationService::recount(std::vector<MobileObjectId> objects) {
  std::sort(objects.begin(), objects.end());
  objects.erase(std::unique(objects.begin(), objects.end()), objects.end());
  for (const MobileObjectId& object : objects) {
    bool fuse = false;
    for (;;) {
      const CountingEvidence evidence = readCountingEvidence(object, fuse);
      std::lock_guard lock(subsMutex_);
      const Recount result = applyCountingLocked(evidence);
      if (result == Recount::Applied) break;
      fuse = fuse || result == Recount::NeedsFusion;
    }
  }
}

void LocationService::resyncCounting() {
  std::vector<geo::Rect> regions;
  std::vector<MobileObjectId> objects;
  {
    std::lock_guard lock(subsMutex_);
    for (const auto& [id, state] : densitySubs_) regions.push_back(state.spec.region);
    for (const auto& [object, entry] : countingTracked_) objects.push_back(object);
  }
  for (const geo::Rect& region : regions) {
    std::vector<MobileObjectId> found = db_.mobileObjectsIntersecting(region);
    objects.insert(objects.end(), std::make_move_iterator(found.begin()),
                   std::make_move_iterator(found.end()));
  }
  recount(std::move(objects));
}

void LocationService::trackLocked(const MobileObjectId& object,
                                  std::optional<util::TimePoint> due) {
  auto it = countingTracked_.find(object);
  if (it == countingTracked_.end()) {
    if (due) countingTracked_.emplace(object, countingDue_.emplace(*due, object));
    return;
  }
  countingDue_.erase(it->second);
  if (due) {
    it->second = countingDue_.emplace(*due, object);
  } else {
    countingTracked_.erase(it);
  }
}

void LocationService::importBatch(std::span<const db::SensorReading> readings) {
  if (readings.empty()) return;
  // Imports share the ingest gate (a pauseIngest() window excludes them like
  // any ingest) but bypass the tap and the subscription machinery: these
  // readings were already acked, tapped and trigger-evaluated by the shard
  // that first ingested them. Replaying them through the tap would let a
  // handoff session consume its own import; evaluating subscriptions would
  // duplicate notifications.
  std::shared_lock gate(ingestGate_);
  for (const auto& reading : readings) db_.importReading(reading);
  importedReadings_.fetch_add(readings.size(), std::memory_order_relaxed);
  {
    std::lock_guard lock(subsMutex_);
    if (subNet_.countingCount() == 0) return;
  }
  // An imported object may now count toward a density rule here: re-count
  // it silently (no reading was observed here, so nothing notifies).
  std::vector<MobileObjectId> objects;
  objects.reserve(readings.size());
  for (const auto& reading : readings) objects.push_back(reading.mobileObjectId);
  recount(std::move(objects));
}

// --- fusion cache -------------------------------------------------------------------

std::shared_ptr<const fusion::FusedState> LocationService::fusedStateFor(
    const MobileObjectId& object) const {
  // Epoch FIRST, then readings: an insert racing between the two bumps the
  // epoch we key on, so the entry is conservatively treated as stale by the
  // next query — the cache can miss needlessly but never serves stale state.
  const std::uint64_t epoch = db_.readingsEpoch(object);
  const util::TimePoint now = clock_.now();
  const util::Duration tolerance = cacheToleranceNow();
  {
    std::shared_lock lock(cacheMutex_);
    auto it = fusionCache_.find(object);
    if (it != fusionCache_.end() && it->second->freshAt(epoch, now, tolerance)) {
      cacheHits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  cacheMisses_.fetch_add(1, std::memory_order_relaxed);
  auto state = std::make_shared<fusion::FusedState>(engine_.fuse(fusionInputsFor(object)));
  state->epoch = epoch;
  state->computedAt = now;
  {
    std::unique_lock lock(cacheMutex_);
    if (!fusionCache_.contains(object) && fusionCache_.size() >= cacheCapacity_) {
      fusionCache_.erase(fusionCache_.begin());  // arbitrary eviction at capacity
    }
    fusionCache_[object] = state;
  }
  return state;
}

void LocationService::setFusionCacheTolerance(util::Duration tolerance) {
  require(tolerance >= util::Duration::zero(),
          "LocationService::setFusionCacheTolerance: negative tolerance");
  cacheTolerance_.store(tolerance.count(), std::memory_order_relaxed);
}

void LocationService::setFusionCacheCapacity(std::size_t entries) {
  require(entries >= 1, "LocationService::setFusionCacheCapacity: capacity must be >= 1");
  std::unique_lock lock(cacheMutex_);
  cacheCapacity_ = entries;
  while (fusionCache_.size() > cacheCapacity_) fusionCache_.erase(fusionCache_.begin());
}

void LocationService::invalidateFusionCache() {
  {
    std::unique_lock lock(cacheMutex_);
    fusionCache_.clear();
  }
  // Region populations carry probabilities derived from the dropped states
  // (same engine configuration), so the L2 level flushes with the L1, and
  // the density counts resync on the next ingest.
  invalidateRegionCache();
  std::lock_guard lock(subsMutex_);
  countingRevision_ = kUnsynced;
}

std::uint64_t LocationService::fusionCacheHits() const noexcept {
  return cacheHits_.load(std::memory_order_relaxed);
}

std::uint64_t LocationService::fusionCacheMisses() const noexcept {
  return cacheMisses_.load(std::memory_order_relaxed);
}

void LocationService::resetFusionCacheCounters() noexcept {
  cacheHits_.store(0, std::memory_order_relaxed);
  cacheMisses_.store(0, std::memory_order_relaxed);
}

// --- region population cache --------------------------------------------------------

std::size_t LocationService::RegionKeyHash::operator()(const RegionKey& k) const noexcept {
  auto mix = [](std::size_t seed, double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    return seed ^ (std::hash<std::uint64_t>{}(bits) + 0x9e3779b97f4a7c15ULL + (seed << 6) +
                   (seed >> 2));
  };
  std::size_t h = 0;
  h = mix(h, k.region.lo().x);
  h = mix(h, k.region.lo().y);
  h = mix(h, k.region.hi().x);
  h = mix(h, k.region.hi().y);
  return mix(h, k.minProbability);
}

void LocationService::setRegionCacheCapacity(std::size_t entries) {
  require(entries >= 1, "LocationService::setRegionCacheCapacity: capacity must be >= 1");
  std::unique_lock lock(regionCacheMutex_);
  regionCacheCapacity_ = entries;
  while (regionCache_.size() > regionCacheCapacity_) regionCache_.erase(regionCache_.begin());
}

void LocationService::invalidateRegionCache() {
  std::unique_lock lock(regionCacheMutex_);
  regionCache_.clear();
}

std::uint64_t LocationService::regionCacheHits() const noexcept {
  return regionCacheHits_.load(std::memory_order_relaxed);
}

std::uint64_t LocationService::regionCacheMisses() const noexcept {
  return regionCacheMisses_.load(std::memory_order_relaxed);
}

std::uint64_t LocationService::regionCacheRevalidations() const noexcept {
  return regionCacheRevalidations_.load(std::memory_order_relaxed);
}

void LocationService::resetRegionCacheCounters() noexcept {
  regionCacheHits_.store(0, std::memory_order_relaxed);
  regionCacheMisses_.store(0, std::memory_order_relaxed);
  regionCacheRevalidations_.store(0, std::memory_order_relaxed);
}

// --- fusion plumbing ----------------------------------------------------------------

fusion::FusionInputs LocationService::fusionInputsFor(const MobileObjectId& object) const {
  fusion::FusionInputs inputs;
  const util::TimePoint now = clock_.now();
  const double areaU = db_.universe().area();
  for (const auto& stored : db_.readingsFor(object)) {
    auto meta = db_.sensorMeta(stored.reading.sensorId);
    if (!meta) continue;
    geo::Rect rect = stored.reading.rect();
    auto clipped = db_.universe().intersection(rect);
    if (!clipped || clipped->area() <= 0) continue;
    util::Duration age = now - stored.reading.detectionTime;
    auto confidence = meta->confidenceFor(clipped->area(), areaU, age);
    if (!confidence) continue;  // expired or degraded to uselessness
    inputs.push_back(fusion::FusionInput{stored.reading.sensorId, *clipped, confidence->p,
                                         confidence->q, stored.moving});
  }
  return inputs;
}

// --- pull queries --------------------------------------------------------------------

std::optional<fusion::LocationEstimate> LocationService::locateObject(
    const MobileObjectId& object) const {
  return fusedStateFor(object)->estimate;
}

// --- symbolic regions (§4.5) ----------------------------------------------------

void LocationService::ensureRegionsIndexed() const {
  {
    std::shared_lock lock(regionsMutex_);
    if (regionsIndexed_) return;
  }
  std::unique_lock lock(regionsMutex_);
  if (regionsIndexed_) return;  // another thread rebuilt while we waited
  regions_.clear();
  // Enclosing spaces name locations (rooms/corridors/floors/buildings) plus
  // any row flagged as an application-defined region.
  for (const auto& row : db_.query([](const db::SpatialObjectRow& r) {
         switch (r.objectType) {
           case db::ObjectType::Room:
           case db::ObjectType::Corridor:
           case db::ObjectType::Floor:
           case db::ObjectType::Building:
             return true;
           default:
             return r.properties.contains("region");
         }
       })) {
    regions_.add(row.fullGlob(), db_.universeMbr(row), row.properties);
  }
  regionsIndexed_ = true;
}

void LocationService::reindexRegions() {
  {
    std::unique_lock lock(regionsMutex_);
    regionsIndexed_ = false;
  }
  // The reachability closure was derived from the old region set; drop it so
  // the next query rebuilds (and then resumes incremental maintenance).
  std::lock_guard lock(reachabilityMutex_);
  reachability_.reset();
}

const RegionLattice& LocationService::regionLattice() const {
  ensureRegionsIndexed();
  return regions_;
}

std::optional<geo::Rect> LocationService::smallestNamedRegionRectAt(geo::Point2 p) const {
  ensureRegionsIndexed();
  auto idx = regions_.smallestAt(p);
  if (!idx) return std::nullopt;
  return regions_.node(*idx).rect;
}

std::optional<glob::Glob> LocationService::locateSymbolic(const MobileObjectId& object) const {
  auto est = locateObject(object);
  if (!est) return std::nullopt;
  ensureRegionsIndexed();
  auto idx = regions_.smallestAt(est->region.center());
  if (!idx) return std::nullopt;
  glob::Glob symbolic = glob::Glob::parse(regions_.node(*idx).glob);
  auto privacyIt = privacy_.find(object);
  if (privacyIt != privacy_.end()) {
    symbolic = symbolic.truncated(privacyIt->second);
  }
  return symbolic;
}

std::vector<std::string> LocationService::symbolicChainFor(const MobileObjectId& object) const {
  std::vector<std::string> out;
  auto est = locateObject(object);
  if (!est) return out;
  ensureRegionsIndexed();
  for (std::size_t idx : regions_.chainAt(est->region.center())) {
    out.push_back(regions_.node(idx).glob);
  }
  return out;
}

std::optional<geo::Rect> LocationService::resolveRegion(const std::string& fullGlob) const {
  ensureRegionsIndexed();
  auto idx = regions_.find(fullGlob);
  if (!idx) return std::nullopt;
  return regions_.node(*idx).rect;
}

std::optional<glob::Glob> LocationService::symbolicAt(geo::Point2 universePoint) const {
  ensureRegionsIndexed();
  auto idx = regions_.smallestAt(universePoint);
  if (!idx) return std::nullopt;
  return glob::Glob::parse(regions_.node(*idx).glob);
}

// --- application regions and static objects (§4 tasks 4-5) -----------------------

void LocationService::defineRegion(const std::string& fullGlob, const geo::Rect& universeRect,
                                   std::unordered_map<std::string, std::string> properties) {
  require(!universeRect.empty() && universeRect.area() > 0,
          "LocationService::defineRegion: empty region");
  glob::Glob parsed = glob::Glob::parse(fullGlob);  // validates the name
  require(parsed.isSymbolic(), "LocationService::defineRegion: name must be symbolic");
  properties["region"] = "app";

  db::SpatialObjectRow row;
  row.id = util::SpatialObjectId{parsed.name()};
  row.globPrefix = parsed.prefix();
  row.objectType = db::ObjectType::Other;
  row.geometryType = db::GeometryType::Polygon;
  row.properties = std::move(properties);
  // defineRegion speaks universe coordinates; re-express them in the frame
  // the row's prefix resolves to (nearest registered ancestor).
  const std::string frame = db_.frameFor(row.globPrefix);
  geo::Rect r = universeRect;
  row.points = {r.lo(), {r.hi().x, r.lo().y}, r.hi(), {r.lo().x, r.hi().y}};
  if (frame != db_.frames().rootName()) {
    for (auto& p : row.points) {
      p = db_.frames().convert(db_.frames().rootName(), frame, p);
    }
  }
  db_.addObject(row);
  reindexRegions();
}

void LocationService::addStaticObject(db::SpatialObjectRow row,
                                      std::optional<geo::Rect> usage) {
  util::SpatialObjectId id = row.id;
  db_.addObject(std::move(row));
  if (usage) setUsageRegion(id, *usage);
  reindexRegions();
}

void LocationService::setUsageRegion(const util::SpatialObjectId& object,
                                     const geo::Rect& universeRect) {
  require(!universeRect.empty() && universeRect.area() > 0,
          "LocationService::setUsageRegion: empty region");
  usageRegions_[object] = universeRect;
}

std::optional<geo::Rect> LocationService::usageRegion(
    const util::SpatialObjectId& object) const {
  auto it = usageRegions_.find(object);
  if (it == usageRegions_.end()) return std::nullopt;
  return it->second;
}

double LocationService::usageProbability(const util::MobileObjectId& person,
                                         const util::SpatialObjectId& object) const {
  auto usage = usageRegion(object);
  if (!usage) return 0.0;
  auto est = locateObject(person);
  if (!est) return 0.0;
  return reasoning::usageProbability(*est, *usage);
}

double LocationService::probabilityInRegion(const MobileObjectId& object,
                                            const geo::Rect& region) const {
  regionQueries_.fetch_add(1, std::memory_order_relaxed);
  return engine_.probabilityInRegion(region, *fusedStateFor(object));
}

std::vector<std::pair<MobileObjectId, double>> LocationService::objectsInRegion(
    const geo::Rect& region, double minProbability) const {
  regionQueries_.fetch_add(1, std::memory_order_relaxed);
  const RegionKey key{region, minProbability};
  const util::TimePoint now = clock_.now();
  const util::Duration tolerance = cacheToleranceNow();

  // Pinned, not copied: revalidation reads the entry outside the lock, and
  // a concurrent poll replaces the map slot rather than mutating the entry.
  std::shared_ptr<const RegionCacheEntry> cached;
  {
    std::shared_lock lock(regionCacheMutex_);
    auto it = regionCache_.find(key);
    if (it != regionCache_.end()) cached = it->second;
  }

  // Candidate discovery runs on every poll (one scan of the reading store's
  // packed evidence columns), so objects that appeared or left since the
  // entry was built are found here; members that stayed revalidate by epoch.
  std::vector<MobileObjectId> candidates = db_.mobileObjectsIntersecting(region);

  // Revalidate the population: fresh members are reused outright; stale or
  // new members re-fuse through the per-object cache, so a poll following an
  // ingest that already fused the moved object shares that fusion pass.
  std::unordered_map<MobileObjectId, RegionMember> members;
  members.reserve(candidates.size());
  std::uint64_t refused = 0;
  for (auto& object : candidates) {
    if (cached) {
      auto it = cached->members.find(object);
      if (it != cached->members.end() &&
          it->second.state->freshAt(db_.readingsEpoch(object), now, tolerance)) {
        members.emplace(std::move(object), it->second);
        continue;
      }
    }
    RegionMember member;
    member.state = fusedStateFor(object);
    member.probability = engine_.probabilityInRegion(region, *member.state);
    ++refused;
    members.emplace(std::move(object), std::move(member));
  }

  if (cached) {
    regionCacheHits_.fetch_add(1, std::memory_order_relaxed);
    regionCacheRevalidations_.fetch_add(refused, std::memory_order_relaxed);
    // Same members, every one fresh: the cached entry still answers.
    if (refused == 0 && members.size() == cached->members.size()) return cached->result;
  } else {
    regionCacheMisses_.fetch_add(1, std::memory_order_relaxed);
  }

  auto entry = std::make_shared<RegionCacheEntry>();
  for (const auto& [object, member] : members) {
    if (member.probability >= minProbability) {
      entry->result.emplace_back(object, member.probability);
    }
  }
  // Descending probability; ties broken by id so the answer is stable
  // across the unordered member map's iteration order.
  std::sort(entry->result.begin(), entry->result.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  entry->members = std::move(members);

  std::vector<std::pair<MobileObjectId, double>> out = entry->result;
  {
    std::unique_lock lock(regionCacheMutex_);
    if (!regionCache_.contains(key) && regionCache_.size() >= regionCacheCapacity_) {
      regionCache_.erase(regionCache_.begin());  // arbitrary eviction at capacity
    }
    regionCache_[key] = std::move(entry);
  }
  return out;
}

std::vector<std::pair<MobileObjectId, double>> LocationService::objectsInRegion(
    const std::string& regionGlob, double minProbability) const {
  auto rect = resolveRegion(regionGlob);
  if (!rect) {
    throw mw::util::NotFoundError("LocationService::objectsInRegion: unknown region '" +
                                  regionGlob + "'");
  }
  return objectsInRegion(*rect, minProbability);
}

std::vector<fusion::RegionProbability> LocationService::distributionFor(
    const MobileObjectId& object) const {
  return engine_.distribution(*fusedStateFor(object));
}

std::vector<LocationService::TrajectoryPoint> LocationService::trajectory(
    const MobileObjectId& object, util::Duration window) const {
  std::vector<TrajectoryPoint> out;
  for (const auto& reading : db_.history(object, window)) {
    out.push_back(TrajectoryPoint{reading.detectionTime, reading.rect().center()});
  }
  return out;
}

// --- subscriptions -------------------------------------------------------------------

SubscriptionId LocationService::subscribe(Subscription subscription) {
  require(static_cast<bool>(subscription.callback), "LocationService::subscribe: null callback");
  require(!subscription.region.empty(), "LocationService::subscribe: empty region");
  // Geometric prefilter (§5.3) as a standing rule in the continuous-query
  // network: the alpha layer shares one node per distinct region rect, so
  // ten thousand subscriptions on the same room cost one R-tree entry; the
  // probabilistic condition is evaluated against the fused estimate (§4.3)
  // only for the rules an update actually affects.
  std::optional<std::string> subject;
  if (subscription.subject) subject = subscription.subject->str();
  std::lock_guard lock(subsMutex_);
  const SubscriptionId id = subIds_.next();
  subNet_.installProduction(id.value(), subscription.region, subject);
  subs_.emplace(id, SubState{std::move(subscription)});
  return id;
}

LocationService::DensityHandle LocationService::subscribeDensity(
    DensitySubscription subscription) {
  require(static_cast<bool>(subscription.callback),
          "LocationService::subscribeDensity: null callback");
  require(!subscription.region.empty(), "LocationService::subscribeDensity: empty region");
  const geo::Rect region = subscription.region;
  // Seeded under the lock, so no update interleaves with the seed and the
  // first notification reports a change, not the whole standing crowd. The
  // seed evaluates every object the region discovers, like a poll.
  std::lock_guard lock(subsMutex_);
  // With no counting rule installed nothing is counted yet: the seed below
  // is the whole counting state, current as of this revision.
  if (subNet_.countingCount() == 0) countingRevision_ = db_.evidenceRevision();
  const SubscriptionId id = subIds_.next();
  subNet_.installProduction(id.value(), region, std::nullopt);
  subNet_.makeCounting(id.value(), subscription.limit);
  densitySubs_.emplace(id, DensitySubState{std::move(subscription)});
  for (const MobileObjectId& object : db_.mobileObjectsIntersecting(region)) {
    while (applyCountingLocked(readCountingEvidence(object, true)) != Recount::Applied) {
    }
  }
  return DensityHandle{id, subNet_.reportCount(id.value()).count};
}

bool LocationService::unsubscribe(SubscriptionId id) {
  std::lock_guard lock(subsMutex_);
  auto it = subs_.find(id);
  if (it != subs_.end()) {
    subNet_.removeProduction(id.value());
    subs_.erase(it);
    return true;
  }
  auto dit = densitySubs_.find(id);
  if (dit != densitySubs_.end()) {
    subNet_.removeProduction(id.value());
    densitySubs_.erase(dit);
    if (subNet_.countingCount() == 0) {
      countingTracked_.clear();
      countingDue_.clear();
    }
    return true;
  }
  return false;
}

std::size_t LocationService::subscriptionCount() const {
  std::lock_guard lock(subsMutex_);
  return subs_.size() + densitySubs_.size();
}

LocationService::StandingRuleStats LocationService::standingRuleStats() const {
  std::lock_guard lock(subsMutex_);
  return StandingRuleStats{subNet_.productionCount(), subNet_.alphaNodeCount(),
                           subNet_.insideCount()};
}

void LocationService::evaluateSubscriptionLocked(SubscriptionId id, const MobileObjectId& object,
                                                 const fusion::FusedState& fused,
                                                 std::vector<PendingNotification>& out) {
  auto it = subs_.find(id);
  if (it == subs_.end()) return;  // unsubscribed in the meantime
  SubState& state = it->second;

  double probability = engine_.probabilityInRegion(state.spec.region, fused);
  // Classification thresholds are computed over the pre-conflict inputs, as
  // the original per-subscription evaluation did.
  std::vector<double> ps;
  ps.reserve(fused.inputs.size());
  for (const auto& in : fused.inputs) ps.push_back(in.p);
  fusion::ProbabilityClass cls =
      fusion::classify(probability, fusion::computeThresholds(std::move(ps)));

  bool qualifies = probability >= state.spec.threshold;
  if (state.spec.minClass && cls < *state.spec.minClass) qualifies = false;

  // Edge memory lives in the network's beta layer: inside pairs are also
  // reverse-indexed by object, which is what lets the next update for this
  // object find its exit candidates without scanning the table.
  const bool wasInside = subNet_.isInside(id.value(), object.str());
  const bool notify = qualifies && (!state.spec.onlyOnEntry || !wasInside);
  if (qualifies != wasInside) subNet_.setInside(id.value(), object.str(), qualifies);
  if (!notify) return;

  Notification n;
  n.id = id;
  n.object = object;
  n.region = state.spec.region;
  n.probability = probability;
  n.cls = cls;
  n.when = clock_.now();
  out.push_back(PendingNotification{state.spec.callback, std::move(n)});
}

// --- region-to-region relations (§4.6.1) ----------------------------------------------

namespace {
geo::Rect namedRegionRect(const RegionLattice& regions, const std::string& glob) {
  auto idx = regions.find(glob);
  if (!idx) throw mw::util::NotFoundError("LocationService: unknown region '" + glob + "'");
  return regions.node(*idx).rect;
}
}  // namespace

reasoning::Rcc8 LocationService::regionRelation(const std::string& globA,
                                                const std::string& globB) const {
  ensureRegionsIndexed();
  return reasoning::rcc8(namedRegionRect(regions_, globA), namedRegionRect(regions_, globB));
}

std::vector<reasoning::Passage> LocationService::doorPassages() const {
  std::vector<reasoning::Passage> passages;
  for (const auto& row : db_.query([](const db::SpatialObjectRow& r) {
         return r.objectType == db::ObjectType::Door &&
                r.geometryType == db::GeometryType::Line;
       })) {
    // Door endpoints into the universe frame.
    const std::string frame = db_.frameFor(row.globPrefix);
    geo::Segment seg = row.segment();
    seg.a = db_.frames().convert(frame, db_.frames().rootName(), seg.a);
    seg.b = db_.frames().convert(frame, db_.frames().rootName(), seg.b);
    auto kindIt = row.properties.find("passage");
    reasoning::PassageKind kind = (kindIt != row.properties.end() &&
                                   kindIt->second == "restricted")
                                      ? reasoning::PassageKind::Restricted
                                      : reasoning::PassageKind::Free;
    passages.push_back(reasoning::Passage{row.id.str(), seg, kind});
  }
  return passages;
}

reasoning::EcKind LocationService::passageRelation(const std::string& globA,
                                                   const std::string& globB) const {
  ensureRegionsIndexed();
  return reasoning::classifyEc(namedRegionRect(regions_, globA),
                               namedRegionRect(regions_, globB), doorPassages());
}

reasoning::Datalog& LocationService::reachabilityEngineLocked() const {
  if (!reachability_) {
    // Assert EC-refinement facts over the named regions and install the
    // reachability rules — the paper's XSB Prolog layer, now a PERSISTENT
    // engine: the first query saturates the closure, later ones are hash
    // lookups, and fact/rule changes are maintained incrementally
    // (semi-naive inserts, DRed retractions) instead of from scratch.
    std::vector<reasoning::NamedRegion> named;
    for (std::size_t i = 0; i < regions_.size(); ++i) {
      const auto& node = regions_.node(i);
      named.push_back({node.glob, node.rect});
    }
    reachability_ = std::make_unique<reasoning::Datalog>();
    reasoning::assertSpatialFacts(*reachability_, named, doorPassages());
    reasoning::installReachabilityRules(*reachability_);
  }
  return *reachability_;
}

bool LocationService::regionsReachable(const std::string& globA, const std::string& globB,
                                       bool allowRestricted) const {
  ensureRegionsIndexed();
  if (globA == globB) return true;
  const char* predicate = allowRestricted ? "accessible" : "reachable";
  std::lock_guard lock(reachabilityMutex_);
  return reachabilityEngineLocked().holds(
      {predicate, {reasoning::Term::atom(globA), reasoning::Term::atom(globB)}});
}

// --- movement-pattern priors --------------------------------------------------------

void LocationService::setMovementPrior(std::shared_ptr<const fusion::SpatialPrior> prior) {
  engine_.setPrior(std::move(prior));
  invalidateFusionCache();  // cached states were fused under the old prior
}

std::shared_ptr<fusion::RegionDwellPrior> LocationService::makeDwellPrior(
    double smoothingSeconds) const {
  std::vector<fusion::RegionDwellPrior::Cell> cells;
  for (const auto& row : db_.query([](const db::SpatialObjectRow& r) {
         return r.objectType == db::ObjectType::Room ||
                r.objectType == db::ObjectType::Corridor;
       })) {
    cells.push_back({row.fullGlob(), db_.universeMbr(row)});
  }
  return std::make_shared<fusion::RegionDwellPrior>(db_.universe(), std::move(cells),
                                                    smoothingSeconds);
}

// --- privacy ---------------------------------------------------------------------------

void LocationService::setPrivacyGranularity(const MobileObjectId& object, std::size_t maxDepth) {
  require(maxDepth >= 1, "LocationService::setPrivacyGranularity: depth must be >= 1");
  privacy_[object] = maxDepth;
}

std::optional<std::size_t> LocationService::privacyGranularity(
    const MobileObjectId& object) const {
  auto it = privacy_.find(object);
  if (it == privacy_.end()) return std::nullopt;
  return it->second;
}

// --- spatial relationships ----------------------------------------------------------------

double LocationService::proximity(const MobileObjectId& a, const MobileObjectId& b,
                                  double threshold) const {
  auto ea = locateObject(a);
  auto eb = locateObject(b);
  if (!ea || !eb) return 0.0;
  return reasoning::proximityProbability(*ea, *eb, threshold);
}

double LocationService::coLocation(const MobileObjectId& a, const MobileObjectId& b) const {
  auto ea = locateObject(a);
  auto eb = locateObject(b);
  if (!ea || !eb) return 0.0;
  auto region = smallestNamedRegionRectAt(ea->region.center());
  if (!region) return 0.0;
  return reasoning::coLocationProbability(*ea, *eb, *region);
}

double LocationService::coLocationAt(const MobileObjectId& a, const MobileObjectId& b,
                                     std::size_t granularity) const {
  auto ea = locateObject(a);
  auto eb = locateObject(b);
  if (!ea || !eb) return 0.0;
  ensureRegionsIndexed();
  auto idx = regions_.atGranularity(ea->region.center(), granularity);
  if (!idx) return 0.0;
  return reasoning::coLocationProbability(*ea, *eb, regions_.node(*idx).rect);
}

std::optional<reasoning::DistanceBounds> LocationService::distanceBetween(
    const MobileObjectId& a, const MobileObjectId& b) const {
  auto ea = locateObject(a);
  auto eb = locateObject(b);
  if (!ea || !eb) return std::nullopt;
  return reasoning::objectDistance(*ea, *eb);
}

std::optional<double> LocationService::pathDistanceBetween(const MobileObjectId& a,
                                                           const MobileObjectId& b) const {
  auto ea = locateObject(a);
  auto eb = locateObject(b);
  if (!ea || !eb) return std::nullopt;
  return reasoning::objectPathDistance(*ea, *eb, graph_);
}

std::optional<db::SpatialObjectRow> LocationService::nearestObjectOfType(
    const MobileObjectId& object, db::ObjectType type) const {
  auto est = locateObject(object);
  if (!est) return std::nullopt;
  return db_.nearest(est->region.center(),
                     [type](const db::SpatialObjectRow& row) { return row.objectType == type; });
}

}  // namespace mw::core

// The Location Service (§4) — "the source of location information for all
// location-sensitive applications".
//
// Responsibilities (§4): (1) fuse data from multiple sensors and resolve
// conflicts, (2) answer object-based and region-based queries, (3) accept
// subscriptions for location-based conditions and notify applications when
// they become true, (4) support creating spatial regions with properties,
// (5) support static objects, (6) deduce higher-level spatial relationships.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/region_lattice.hpp"
#include "cq/trigger_network.hpp"
#include "fusion/engine.hpp"
#include "glob/glob.hpp"
#include "reasoning/connectivity.hpp"
#include "reasoning/datalog.hpp"
#include "reasoning/rcc8.hpp"
#include "reasoning/relations.hpp"
#include "spatialdb/database.hpp"
#include "util/clock.hpp"
#include "util/ids.hpp"

namespace mw::core {

/// Notification delivered when a subscription's condition becomes true.
struct Notification {
  util::SubscriptionId id;
  util::MobileObjectId object;
  geo::Rect region;        ///< the subscribed region (universe frame)
  double probability = 0;  ///< fused P(object in region)
  fusion::ProbabilityClass cls = fusion::ProbabilityClass::Low;
  util::TimePoint when;
};

/// A region-based condition (§4.3): notify when `object` (or anyone, when
/// unset) is inside `region` with probability above `threshold` — or, per
/// §4.4, at or above a probability class.
struct Subscription {
  geo::Rect region;  ///< universe frame
  std::optional<util::MobileObjectId> subject;
  double threshold = 0.0;
  std::optional<fusion::ProbabilityClass> minClass;
  /// When true, notify only on the rising edge (region entry) instead of on
  /// every qualifying update.
  bool onlyOnEntry = false;
  std::function<void(const Notification&)> callback;
};

/// Notification delivered when a density subscription's region population
/// changes. `edge` flags crossings of the configured limit: Rose is the
/// overcrowding alarm, Fell the all-clear.
struct DensityNotification {
  util::SubscriptionId id;
  geo::Rect region;  ///< the subscribed region (universe frame)
  std::size_t count = 0;
  std::size_t limit = 0;
  cq::CountEdge edge = cq::CountEdge::None;
  /// The object whose update re-evaluated the rule — what a crowd monitor
  /// timestamps to measure ingest-to-alarm latency.
  util::MobileObjectId object;
  util::TimePoint when;
};

/// An aggregate standing rule (crowd monitoring): maintain the population
/// count of `region` — objects whose evidence box intersects it with fused
/// P(inside) >= minProbability, exactly objectsInRegion's membership test —
/// and notify when a reading that touches the rule finds the count changed
/// (see LocationService::subscribeDensity).
struct DensitySubscription {
  geo::Rect region;  ///< universe frame
  double minProbability = 0.5;
  std::size_t limit = 1;  ///< alarm threshold: edge fires when count crosses it
  std::function<void(const DensityNotification&)> callback;
};

/// Thread-safety: ingest/ingestBatch and all pull queries may run
/// concurrently (reader/writer locks on the database, the fusion cache and
/// the subscription table). Setup-phase mutators — defineRegion,
/// addStaticObject, setMovementPrior, setPrivacyGranularity, connectivity(),
/// reindexRegions — must not race with queries; configure before going
/// concurrent. Subscription callbacks are invoked with no service lock held,
/// so they may call back into the service.
class LocationService {
 public:
  /// The service reads/writes the shared spatial database and fuses with the
  /// universe the database models.
  LocationService(const util::Clock& clock, db::SpatialDatabase& database);

  [[nodiscard]] db::SpatialDatabase& database() noexcept { return db_; }
  [[nodiscard]] const fusion::FusionEngine& engine() const noexcept { return engine_; }

  // --- ingestion -------------------------------------------------------------

  /// Adapters push readings here; the service stores them in the database
  /// and evaluates subscriptions whose region the reading touches.
  void ingest(const db::SensorReading& reading);

  /// Batch ingest: one tap call, then the readings applied in order on the
  /// calling thread, so the result (estimates, notifications and their
  /// order, `moving` flags) is exactly that of ingest() on each in turn.
  /// Parallelism comes from concurrent callers (ORB dispatcher lanes,
  /// adapters), which the striped reading store serves without a shared lock.
  void ingestBatch(std::span<const db::SensorReading> readings);

  /// Replay path for handoff/replication imports: stores the readings
  /// (universe conversion, evidence boxes, epochs) but bypasses the ingest
  /// tap AND the notification machinery — an imported reading already fired
  /// its notifications on the shard that first ingested it. Density counts
  /// are state, not events: the imported objects are re-evaluated against
  /// the counting rules silently, so a migrated object counts here before
  /// the next reading that touches the rule reports it. Shares the ingest
  /// gate, so a pauseIngest() window excludes imports too.
  void importBatch(std::span<const db::SensorReading> readings);

  /// Pre-apply interceptor for every ingest()/ingestBatch() call: the tap
  /// sees the readings BEFORE they touch the database and returns the subset
  /// to apply locally (readings it dropped were consumed — mirrored to a
  /// replica, redirected to another shard, buffered for a handoff). Because
  /// it runs inside the ingest call, whatever the tap does is finished
  /// before the caller's ack — this is what makes replication synchronous.
  /// nullptr removes it. Safe to swap while ingest is in flight: calls
  /// already past the tap complete under the old behavior.
  using IngestTap =
      std::function<std::vector<db::SensorReading>(std::span<const db::SensorReading>)>;
  void setIngestTap(IngestTap tap);

  /// Exclusive ingest window: blocks new ingest()/ingestBatch() calls and
  /// waits out the ones already applying before returning. Replication's
  /// initial sync and handoff arc capture run inside it — with the guard
  /// held, the database holds exactly the readings of completed (acked)
  /// calls, so an export is a consistent cut: nothing half-applied, and
  /// every later reading flows through whatever tap the holder installs.
  /// Keep it brief; ingest acks stall for the duration. Caution: a
  /// subscription callback that re-enters ingest on an ingest thread would
  /// deadlock against a waiting pause.
  [[nodiscard]] std::unique_lock<std::shared_mutex> pauseIngest() {
    return std::unique_lock(ingestGate_);
  }

  /// Reading-store contention stats, surfaced here next to the cache
  /// counters so ops dashboards read one object. Inserts that found their
  /// object's writer lock held (nonzero values mean concurrent ingest*()
  /// callers raced on one object).
  [[nodiscard]] std::uint64_t ingestWriterContentions() const noexcept {
    return db_.readingWriterContentions();
  }
  /// Epoch reads that raced a lazy TTL expiry and re-read the snapshot.
  [[nodiscard]] std::uint64_t ingestSnapshotRetries() const noexcept {
    return db_.readingSnapshotRetries();
  }

  /// Readings accepted through ingest() and ingestBatch() combined — the
  /// drain marker remote benches and batching clients poll to know when
  /// oneway traffic has actually been processed.
  [[nodiscard]] std::uint64_t ingestedReadings() const noexcept {
    return ingestedReadings_.load(std::memory_order_relaxed);
  }
  /// ingestBatch() calls accepted (wire batches land here one call each).
  [[nodiscard]] std::uint64_t ingestedBatches() const noexcept {
    return ingestedBatches_.load(std::memory_order_relaxed);
  }
  /// Readings stored through importBatch() (handoff/replication replays;
  /// not part of ingestedReadings — imports are not new observations).
  [[nodiscard]] std::uint64_t importedReadings() const noexcept {
    return importedReadings_.load(std::memory_order_relaxed);
  }
  /// Region-based pull queries served (probabilityInRegion + objectsInRegion)
  /// — the queries/s side of a shard's territory-load report.
  [[nodiscard]] std::uint64_t regionQueries() const noexcept {
    return regionQueries_.load(std::memory_order_relaxed);
  }

  // --- fusion cache ------------------------------------------------------------

  /// Repeated queries and subscription evaluations for an object reuse one
  /// fused state (inputs + lattice + estimate) until the object's readings
  /// epoch moves (new reading, expiry, sensor re-registration) or `now`
  /// drifts past the staleness tolerance (default 0: a cached entry is only
  /// reused at the exact instant it was computed — always exact, and still
  /// effective because queries between ingests share the same clock tick).
  void setFusionCacheTolerance(util::Duration tolerance);
  /// Bounds the number of cached per-object states (default 4096); the
  /// cheapest entries to lose are evicted arbitrarily beyond it.
  void setFusionCacheCapacity(std::size_t entries);
  /// Drops both cache levels (per-object states and region populations):
  /// everything cached was computed under the current engine configuration,
  /// so a prior change must flush both.
  void invalidateFusionCache();
  [[nodiscard]] std::uint64_t fusionCacheHits() const noexcept;
  [[nodiscard]] std::uint64_t fusionCacheMisses() const noexcept;
  void resetFusionCacheCounters() noexcept;

  // --- region population cache -------------------------------------------------

  /// The second cache level: objectsInRegion memoizes, per (region, query
  /// params) key, the population it answered with — a vector of (object,
  /// epoch, tick, probability) members. A later poll revalidates members
  /// against their current readings epochs and re-fuses ONLY the stale ones
  /// (through the per-object cache above), so repolling an N-person region
  /// costs O(changed objects) fusions instead of O(N). Candidate discovery
  /// runs once per poll as one linear scan of the reading store's packed
  /// per-object evidence boxes, so objects that appear or leave are found
  /// without a rebuild, and the cached population survives population
  /// growth and spatial-object changes. Sensor (de)registration moves every
  /// member's readings epoch, so its members re-fuse; a prior change flushes
  /// the cache through invalidateFusionCache. Staleness tolerance is shared
  /// with the fusion cache (setFusionCacheTolerance).
  /// Bounds the number of cached region populations (default 256).
  void setRegionCacheCapacity(std::size_t entries);
  void invalidateRegionCache();
  /// A poll answered from a cached population (possibly after re-fusing some
  /// stale members).
  [[nodiscard]] std::uint64_t regionCacheHits() const noexcept;
  /// A poll that rebuilt its population from scratch (first poll for the
  /// key, capacity eviction, or an explicit invalidation).
  [[nodiscard]] std::uint64_t regionCacheMisses() const noexcept;
  /// Members re-fused during cache hits (members whose epoch moved, plus
  /// candidates new to the population) — the partial-revalidation count;
  /// hits with 0 revalidations reused every member unchanged.
  [[nodiscard]] std::uint64_t regionCacheRevalidations() const noexcept;
  void resetRegionCacheCounters() noexcept;

  // --- pull queries (§4.2) -----------------------------------------------------

  /// "Where is person X?" — fused single-value location estimate.
  [[nodiscard]] std::optional<fusion::LocationEstimate> locateObject(
      const util::MobileObjectId& object) const;

  /// The same, as a symbolic GLOB (§4.5): the most specific named region
  /// containing the estimate, truncated to the object's privacy granularity.
  [[nodiscard]] std::optional<glob::Glob> locateSymbolic(
      const util::MobileObjectId& object) const;

  /// Region-based query: P(object in region).
  [[nodiscard]] double probabilityInRegion(const util::MobileObjectId& object,
                                           const geo::Rect& region) const;

  /// "Who are the people in room 3105?" — every mobile object with sensor
  /// evidence intersecting the region whose fused probability of being
  /// inside reaches `minProbability`, sorted by descending probability.
  /// Candidates are discovered by evidence box: an object whose
  /// entire evidence lies elsewhere is not reported, even when its diffuse
  /// misidentification mass would technically clear a tiny threshold.
  /// Served from the region population cache (see the cache section below).
  [[nodiscard]] std::vector<std::pair<util::MobileObjectId, double>> objectsInRegion(
      const geo::Rect& region, double minProbability) const;

  /// The same, keyed by a named region ("SC/Floor3/3105" or an app-defined
  /// GLOB): resolves the name through the symbolic-region lattice and polls
  /// its universe-frame MBR. Throws NotFoundError for unknown names.
  [[nodiscard]] std::vector<std::pair<util::MobileObjectId, double>> objectsInRegion(
      const std::string& regionGlob, double minProbability) const;

  /// The fused spatial probability distribution for an object.
  [[nodiscard]] std::vector<fusion::RegionProbability> distributionFor(
      const util::MobileObjectId& object) const;

  /// The object's recent trajectory: time-ordered (when, where) samples from
  /// the reading history within `window` (coordinate sensors only; symbolic
  /// readings contribute their region centers).
  struct TrajectoryPoint {
    util::TimePoint when;
    geo::Point2 where;
  };
  [[nodiscard]] std::vector<TrajectoryPoint> trajectory(const util::MobileObjectId& object,
                                                        util::Duration window) const;

  // --- push: subscriptions (§4.3) -----------------------------------------------

  util::SubscriptionId subscribe(Subscription subscription);

  /// Installs an aggregate standing rule as a counting node in the
  /// continuous-query network. The count is a sum of per-object inside
  /// edges: a reading re-evaluates only its own object against the counting
  /// rules its evidence box touches or that count it, so an update costs
  /// O(rules the object touches), not O(region population). Evidence that
  /// changes without a reading is re-evaluated before the next count is
  /// read: objects whose box touches a counting rule are filed under their
  /// next TTL boundary (every clock tick under a degrading tdf), imports
  /// re-evaluate what they imported, and any other change (drop, forced
  /// expiry, purge, sensor (de)registration, prior change) makes the next
  /// ingest resync every counting rule from one poll. A rule notifies when a
  /// reading's rect hits its region or it counted the reading's object, and
  /// the count differs from the last one reported (or crosses the limit);
  /// the count then equals objectsInRegion(region, minProbability).size().
  /// Returns the id plus the population at subscribe time (seeded under the
  /// subscription lock — no callback, and no update can interleave).
  struct DensityHandle {
    util::SubscriptionId id;
    std::size_t initialCount = 0;
  };
  DensityHandle subscribeDensity(DensitySubscription subscription);

  /// Removes a plain or density subscription.
  bool unsubscribe(util::SubscriptionId id);
  /// Plain + density subscriptions currently installed.
  [[nodiscard]] std::size_t subscriptionCount() const;

  /// Continuous-query network shape: standing rules installed, distinct
  /// alpha (region) nodes they share, and (rule, object) pairs currently
  /// tracked as inside. productions/alphaNodes is the sharing factor; the
  /// per-update evaluation cost tracks the match set, not `productions`.
  struct StandingRuleStats {
    std::size_t productions = 0;
    std::size_t alphaNodes = 0;
    std::size_t insidePairs = 0;
  };
  [[nodiscard]] StandingRuleStats standingRuleStats() const;

  // --- movement-pattern priors (§4.1.2 / §11 future work) ---------------------------

  /// Installs a learned spatial prior used by every probability computation;
  /// nullptr restores the paper's uniform-area assumption.
  void setMovementPrior(std::shared_ptr<const fusion::SpatialPrior> prior);

  /// Builds a RegionDwellPrior whose cells are the database's rooms and
  /// corridors — the natural partition to learn dwell fractions over.
  [[nodiscard]] std::shared_ptr<fusion::RegionDwellPrior> makeDwellPrior(
      double smoothingSeconds = 1.0) const;

  // --- privacy (§4.5) -------------------------------------------------------------

  /// Limits the GLOB depth at which this object's location may be revealed
  /// ("a user's location can only be revealed upto a certain granularity").
  void setPrivacyGranularity(const util::MobileObjectId& object, std::size_t maxDepth);
  [[nodiscard]] std::optional<std::size_t> privacyGranularity(
      const util::MobileObjectId& object) const;

  // --- regions and static objects (§4 tasks 4-5, §4.5) -------------------------------

  /// Defines an application region ("East wing of the building", "work
  /// region inside a room") with properties: stored as a spatial-database
  /// row AND as a node of the symbolic-region lattice. `fullGlob` is the
  /// hierarchical name; `universeRect` its MBR in universe coordinates.
  void defineRegion(const std::string& fullGlob, const geo::Rect& universeRect,
                    std::unordered_map<std::string, std::string> properties = {});

  /// Adds a static object (display, table, ...) with an optional usage
  /// region (§4.6.2b: "if a person has to use these objects for some
  /// purpose, he has to be within the usage region of the object").
  /// The row's coordinates are in its globPrefix frame; the usage region is
  /// in universe coordinates.
  void addStaticObject(db::SpatialObjectRow row,
                       std::optional<geo::Rect> usageRegion = std::nullopt);

  void setUsageRegion(const util::SpatialObjectId& object, const geo::Rect& universeRect);
  [[nodiscard]] std::optional<geo::Rect> usageRegion(
      const util::SpatialObjectId& object) const;

  /// P(person is inside the usage region of `object`); 0 when the object
  /// has no usage region or the person is unlocatable.
  [[nodiscard]] double usageProbability(const util::MobileObjectId& person,
                                        const util::SpatialObjectId& object) const;

  /// The symbolic-region lattice (§4.5), indexed lazily from the database's
  /// Building/Floor/Room/Corridor rows plus defineRegion() entries. Call
  /// reindexRegions() after mutating the database directly.
  [[nodiscard]] const RegionLattice& regionLattice() const;
  void reindexRegions();

  /// The containment chain of named regions at the object's location,
  /// outermost first (building, floor, wing, room, ...).
  [[nodiscard]] std::vector<std::string> symbolicChainFor(
      const util::MobileObjectId& object) const;

  // --- symbolic <-> coordinate conversion (§3: "easy conversion between the
  // two forms of location data") --------------------------------------------------

  /// Symbolic -> coordinate: the universe-frame MBR of a named region.
  [[nodiscard]] std::optional<geo::Rect> resolveRegion(const std::string& fullGlob) const;

  /// Coordinate -> symbolic: the most specific named region containing the
  /// universe-frame point, as a GLOB.
  [[nodiscard]] std::optional<glob::Glob> symbolicAt(geo::Point2 universePoint) const;

  // --- spatial relationships (§4.6) ------------------------------------------------

  /// P(distance(a, b) <= threshold).
  [[nodiscard]] double proximity(const util::MobileObjectId& a, const util::MobileObjectId& b,
                                 double threshold) const;

  /// P(a and b are in the same smallest named region that contains a).
  [[nodiscard]] double coLocation(const util::MobileObjectId& a,
                                  const util::MobileObjectId& b) const;

  /// Co-location "of a specified granularity such as room, floor or
  /// building" (§4.6.3): the enclosing region of `a` at lattice depth
  /// <= granularity is used as the shared region.
  [[nodiscard]] double coLocationAt(const util::MobileObjectId& a,
                                    const util::MobileObjectId& b,
                                    std::size_t granularity) const;

  /// Center-to-center distance with uncertainty bounds; nullopt when either
  /// object is unlocatable.
  [[nodiscard]] std::optional<reasoning::DistanceBounds> distanceBetween(
      const util::MobileObjectId& a, const util::MobileObjectId& b) const;

  /// Path-distance through the building's connectivity graph.
  [[nodiscard]] std::optional<double> pathDistanceBetween(const util::MobileObjectId& a,
                                                          const util::MobileObjectId& b) const;

  /// Nearest static object of a type (e.g. the closest Display for the
  /// Follow-Me application), by distance from the object's estimate center.
  [[nodiscard]] std::optional<db::SpatialObjectRow> nearestObjectOfType(
      const util::MobileObjectId& object, db::ObjectType type) const;

  // --- region-to-region relations (§4.6.1) -------------------------------------------

  /// The RCC-8 relation between two named regions (by full GLOB). Throws
  /// NotFoundError for unknown names.
  [[nodiscard]] reasoning::Rcc8 regionRelation(const std::string& globA,
                                               const std::string& globB) const;

  /// The EC refinement (ECFP/ECRP/ECNP) between two named regions, using the
  /// database's Door rows as passages ("the relations ECFP, ECRP and ECNP
  /// are evaluated by checking if there is a door or an obstruction like a
  /// wall between the regions").
  [[nodiscard]] reasoning::EcKind passageRelation(const std::string& globA,
                                                  const std::string& globB) const;

  /// Transitive reachability via the Datalog engine (the XSB Prolog layer):
  /// can one get from region A to region B through free passages only, or —
  /// with `allowRestricted` — also through locked doors?
  [[nodiscard]] bool regionsReachable(const std::string& globA, const std::string& globB,
                                      bool allowRestricted = false) const;

  /// All door passages known to the database (for route displays).
  [[nodiscard]] std::vector<reasoning::Passage> doorPassages() const;

  /// The connectivity graph used for path distances; populated by the world
  /// builder (sim::buildWorld) or manually.
  [[nodiscard]] reasoning::ConnectivityGraph& connectivity() noexcept { return graph_; }
  [[nodiscard]] const reasoning::ConnectivityGraph& connectivity() const noexcept {
    return graph_;
  }

  // --- internals exposed for benchmarks/tests ---------------------------------------

  /// Converts an object's fresh database readings into fusion inputs with
  /// tdf-degraded confidences.
  [[nodiscard]] fusion::FusionInputs fusionInputsFor(const util::MobileObjectId& object) const;

  /// The memoized fused state for an object at its current readings epoch;
  /// recomputed on a cache miss. Every fused query routes through this.
  [[nodiscard]] std::shared_ptr<const fusion::FusedState> fusedStateFor(
      const util::MobileObjectId& object) const;

 private:
  /// Subscription specs live here; their region/subject patterns and
  /// inside/outside edge state live in the continuous-query network
  /// (subNet_), which discriminates updates to the affected rules.
  struct SubState {
    Subscription spec;
  };

  /// Density (counting) subscription specs; their membership state is the
  /// counting node's beta memory in subNet_.
  struct DensitySubState {
    DensitySubscription spec;
  };

  // --- region population cache internals ---------------------------------------

  /// Cache key: the polled region plus the query parameters that shape the
  /// answer. Hashed bitwise — keys come from repeated polls of the same
  /// rect, so exact equality is the right notion.
  struct RegionKey {
    geo::Rect region;
    double minProbability = 0;
    bool operator==(const RegionKey& o) const noexcept {
      return region == o.region && minProbability == o.minProbability;
    }
  };
  struct RegionKeyHash {
    std::size_t operator()(const RegionKey& k) const noexcept;
  };

  /// One population member: the fused state the member's probability was
  /// read from (pinning the memoized state so revalidation can reuse it even
  /// after fusion-cache eviction) plus that probability.
  struct RegionMember {
    std::shared_ptr<const fusion::FusedState> state;
    double probability = 0;
  };

  /// Immutable once cached: a poll that changes the population publishes a
  /// new entry, so hits pin the cached one instead of copying it.
  struct RegionCacheEntry {
    std::unordered_map<util::MobileObjectId, RegionMember> members;
    /// The filtered, probability-sorted answer for the key as of `members`.
    std::vector<std::pair<util::MobileObjectId, double>> result;
  };

  /// A subscription callback queued for invocation once all locks are
  /// released.
  struct PendingNotification {
    std::function<void(const Notification&)> callback;
    Notification notification;
  };

  struct PendingDensityNotification {
    std::function<void(const DensityNotification&)> callback;
    DensityNotification notification;
  };

  /// ingest()/ingestBatch() under the ingest gate: the tap, then each kept
  /// reading through ingestOne, then the drain counter.
  void applyReadings(std::span<const db::SensorReading> readings);

  /// Stores one reading and evaluates the subscriptions it touched.
  void ingestOne(const db::SensorReading& reading);

  // --- density-rule counting (subsMutex_ guards the tracking state) ---------

  /// One object's evidence as the counting rules test it: the evidence box
  /// discovery scans and (when requested) the fused state, read after
  /// `epoch`. It may be applied only while the object's readings epoch still
  /// equals `epoch`, so a stale evaluation never overwrites a newer one.
  struct CountingEvidence {
    util::MobileObjectId object;
    std::uint64_t epoch = 0;
    std::optional<geo::Rect> box;
    std::shared_ptr<const fusion::FusedState> fused;
  };
  enum class Recount { Applied, Stale, NeedsFusion };
  [[nodiscard]] CountingEvidence readCountingEvidence(const util::MobileObjectId& object,
                                                      bool fuse) const;
  /// Sets the object's inside edge on every counting rule matchCounting
  /// returns — inside iff its box intersects the region and
  /// P(inside) >= minProbability, objectsInRegion's test — and files it
  /// under its next evidence change while its box touches a rule. Stale
  /// when the epoch moved; NeedsFusion when a rule is hit and `fused` is
  /// null.
  Recount applyCountingLocked(const CountingEvidence& evidence);
  /// Re-evaluates each object (duplicates once) against the counting rules
  /// (subsMutex_ not held), retrying each until an evaluation applies.
  void recount(std::vector<util::MobileObjectId> objects);
  /// After an out-of-band evidence change: re-evaluates every tracked object
  /// and every object a counting rule's region discovers (one discovery scan
  /// per rule).
  void resyncCounting();
  /// Files a tracked object under `due`, or forgets it (nullopt).
  void trackLocked(const util::MobileObjectId& object, std::optional<util::TimePoint> due);
  /// Evaluates one subscription against a fused state (subsMutex_ held);
  /// appends the callback to `out` instead of invoking it.
  void evaluateSubscriptionLocked(util::SubscriptionId id, const util::MobileObjectId& object,
                                  const fusion::FusedState& fused,
                                  std::vector<PendingNotification>& out);
  /// The persistent reachability engine, (re)built lazily from the lattice
  /// and door passages; reachabilityMutex_ held.
  [[nodiscard]] reasoning::Datalog& reachabilityEngineLocked() const;
  [[nodiscard]] util::Duration cacheToleranceNow() const noexcept {
    return util::Duration{cacheTolerance_.load(std::memory_order_relaxed)};
  }
  /// The installed ingest tap, pinned for one call (tap swaps don't tear).
  [[nodiscard]] std::shared_ptr<const IngestTap> currentTap() const;
  /// Ensures the symbolic lattice reflects the database.
  void ensureRegionsIndexed() const;
  [[nodiscard]] std::optional<geo::Rect> smallestNamedRegionRectAt(geo::Point2 p) const;

  const util::Clock& clock_;
  db::SpatialDatabase& db_;
  fusion::FusionEngine engine_;
  reasoning::ConnectivityGraph graph_;

  mutable std::shared_mutex regionsMutex_;
  mutable RegionLattice regions_;
  mutable bool regionsIndexed_ = false;
  std::unordered_map<util::SpatialObjectId, geo::Rect> usageRegions_;

  // Fusion cache (L1): object -> fused state, stamped with (epoch, computedAt).
  mutable std::shared_mutex cacheMutex_;
  mutable std::unordered_map<util::MobileObjectId, std::shared_ptr<const fusion::FusedState>>
      fusionCache_;
  mutable std::atomic<std::uint64_t> cacheHits_{0};
  mutable std::atomic<std::uint64_t> cacheMisses_{0};
  /// Staleness tolerance in Duration ticks, shared by both cache levels;
  /// atomic so polls can read it without holding the fusion-cache lock.
  std::atomic<util::Duration::rep> cacheTolerance_{0};
  std::size_t cacheCapacity_ = 4096;

  // Region population cache (L2): (region, params) -> revalidatable population.
  mutable std::shared_mutex regionCacheMutex_;
  mutable std::unordered_map<RegionKey, std::shared_ptr<const RegionCacheEntry>, RegionKeyHash>
      regionCache_;
  mutable std::atomic<std::uint64_t> regionCacheHits_{0};
  mutable std::atomic<std::uint64_t> regionCacheMisses_{0};
  mutable std::atomic<std::uint64_t> regionCacheRevalidations_{0};
  std::size_t regionCacheCapacity_ = 256;

  // Subscription table; subsMutex_ guards subs_ AND the continuous-query
  // network (patterns + inside/outside edge memory).
  mutable std::mutex subsMutex_;
  util::IdSequencer<util::SubscriptionId> subIds_;
  std::unordered_map<util::SubscriptionId, SubState> subs_;
  std::unordered_map<util::SubscriptionId, DensitySubState> densitySubs_;
  /// Rete-style discrimination network: match(reading box, object) returns
  /// the affected subscriptions — alpha hits plus exit candidates — so an
  /// ingest never scans the subscription table.
  cq::TriggerNetwork subNet_;
  /// Objects whose evidence box touches a counting rule, one entry each,
  /// keyed on the next instant their evidence changes without a reading
  /// (db::SpatialDatabase::nextEvidenceChange); every ingest first
  /// re-evaluates the entries that came due. Bounded by the tracked objects.
  using DueQueue = std::multimap<util::TimePoint, util::MobileObjectId>;
  DueQueue countingDue_;
  std::unordered_map<util::MobileObjectId, DueQueue::iterator> countingTracked_;
  /// The database evidence revision the counts reflect; a mismatch makes
  /// the next ingest resync. kUnsynced forces one (a prior change).
  static constexpr std::uint64_t kUnsynced = ~std::uint64_t{0};
  std::uint64_t countingRevision_ = kUnsynced;
  std::vector<cq::ProductionId> countingScratch_;  ///< applyCountingLocked's match set

  std::unordered_map<util::MobileObjectId, std::size_t> privacy_;

  /// Persistent incremental Datalog for regionsReachable: built once from
  /// the lattice + doors, saturated incrementally, dropped when the region
  /// index is invalidated (reindexRegions).
  mutable std::mutex reachabilityMutex_;
  mutable std::unique_ptr<reasoning::Datalog> reachability_;

  std::atomic<std::uint64_t> ingestedReadings_{0};
  std::atomic<std::uint64_t> ingestedBatches_{0};
  std::atomic<std::uint64_t> importedReadings_{0};
  mutable std::atomic<std::uint64_t> regionQueries_{0};

  /// Ingest tap, published as a snapshot pointer (swap under mutex, readers
  /// pin the shared_ptr) — the same idiom as the reading-store snapshots.
  mutable std::mutex tapMutex_;
  std::shared_ptr<const IngestTap> tap_;
  /// Held shared across every ingest call (tap + apply); pauseIngest()
  /// takes it exclusively.
  std::shared_mutex ingestGate_;
};

}  // namespace mw::core

// The cluster router: presents the LocationService API over the shard
// processes resolved from the registry, so applications talk to "the
// location service" without knowing the partition exists.
//
// Routing: object-keyed calls (ingest, ingestBatch, locate, locateSymbolic)
// go to the object's owner — one object, one shard, one ordering domain
// (see shard_map.hpp for the end-to-end ordering argument). Region-keyed
// calls (probabilityInRegion, objectsInRegion) scatter to every live shard
// and merge. A scatter creates no threads: every shard's request goes out on
// its multiplexed connection before the router waits on any reply.
// Populations concatenate (objects are disjoint across shards) and re-sort
// with the service's own comparator; region probabilities prefer the
// evidence-bearing answer over the bare priors evidence-free shards report.
// subscribe() fans the trigger out to every member and re-emits each shard's
// notifications through the caller's single callback under one cluster-wide
// subscription id.
//
// Failure model: every call carries a deadline (util::TimeoutError) and a
// bounded retry budget with exponential backoff (health.hpp), spent in
// rounds: a round waits on all its shards against one deadline and retries
// only the failures, so stalled shards cost one budget together, not one
// each. A transport error drops the shard's connection (the next attempt
// reconnects — and replays the cluster's live subscriptions onto the fresh
// connection); a shard failing `downAfterFailures` times in a row is marked
// down and fails fast until a probe re-admits it. Scatter-gather over a
// cluster with down or failing shards still answers — partially, carrying a
// `degraded` flag — and routed calls to a down shard return "unknown"
// instead of blocking. Per-shard error counters surface in stats().
//
// Ring mode (Partitioning::Ring, the default): members are resolved from
// "location.ring.*" announcements and objects are owned by a consistent-hash
// ring. Membership may CHANGE between refreshes. When a refresh observes a
// changed member set, the router keeps both rings and opens a dual-read
// window: ingest for a moved arc still routes to the PREVIOUS owner (whose
// migration session buffers or forwards it to the joiner — see
// replication.hpp), while reads try the new owner first and fall back to the
// previous one when the new owner doesn't know the object yet. The next
// refresh that sees the same member set closes the window — by then the
// operator has run completeJoin(), so the joiner holds every moved object's
// full log and answers are exact throughout. Promotion of a backup does not
// change membership (same name, new endpoint), so failover needs no window
// at all. A planned departure (ShardHost::leaveRing) is the same window in
// reverse: the leaver withdraws but keeps serving, so while the window is
// open the router keeps routing moved-arc ingest to it even though it no
// longer appears in the registry. A ring that never changes is the
// fixed-width partition.
//
// Spatial mode (Partitioning::Spatial): members are "location.space.*"
// announcements and the partition key is WHERE, not WHO — a kd-split
// territory map (territory_map.hpp, published through the registry's
// versioned metadata) assigns each shard a set of rectangles, and an object
// lives on the shard whose territory contains its evidence-box center. The
// payoff is on the region side: region queries and trigger subscriptions go
// only to the shards whose territory intersects the (slack-inflated) region
// instead of scattering to all N — O(intersecting shards) instead of O(N).
// A reading whose evidence box centers outside its object's home territory
// is a boundary crossing: it is applied at the OLD home first (order), then
// the router migrates the object's whole log to the new owner over the same
// migrate.* protocol as a ring join (replication.hpp), reads double-routing
// new-then-old until the flip. rebalanceOnce() is the load balancer: it
// splits the hottest leaf and migrates the new half to the coldest shard
// under live traffic, keeping every answer byte-identical to the
// single-process oracle for quiescent objects throughout. One router drives
// migrations and the balancer at a time — concurrent routers may route (the
// map is shared via the registry) but must not both migrate.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/health.hpp"
#include "cluster/shard_map.hpp"
#include "cluster/territory_map.hpp"
#include "core/location_service.hpp"
#include "core/remote.hpp"
#include "core/remote_registry.hpp"

namespace mw::cluster {

class ClusterLocationService {
 public:
  using Partitioning = ::mw::cluster::Partitioning;

  struct Options {
    RetryPolicy retry;
    Partitioning partitioning = Partitioning::Ring;
    /// Spatial mode: the world rectangle the territory map tiles. Required
    /// (non-empty) for Partitioning::Spatial; used to bootstrap the uniform
    /// map when the registry holds none yet.
    geo::Rect universe;
    /// Spatial mode: margin added around a region before intersecting it
    /// with shard territories, for region queries and subscription
    /// placement. An object homed on a shard can still carry evidence up to
    /// its sensors' detection radius PAST the territory edge, so this must
    /// be at least the largest detection radius in play — too small silently
    /// misses boundary answers, too large only degrades toward full
    /// scatter (never wrong).
    double regionSlack = 8.0;
  };

  /// Per-shard view of stats(): health + cumulative error counters.
  struct ShardStats {
    bool announced = false;  ///< endpoint known from the registry
    bool down = false;
    std::uint64_t calls = 0;
    std::uint64_t failures = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t retries = 0;
    std::uint64_t reconnects = 0;
  };
  struct Stats {
    std::vector<ShardStats> shards;
    std::uint64_t scatterGathers = 0;
    /// Scatter-gathers that answered from a strict subset of the shards.
    std::uint64_t degradedQueries = 0;
    /// Object-routed calls that exhausted their retry budget (the caller
    /// got "unknown" / a dropped reading instead of an answer).
    std::uint64_t failedRoutedCalls = 0;
    std::uint64_t droppedIngestReadings = 0;
    /// Spatial mode: region queries answered from a territory-intersecting
    /// subset of the shards, and how many shard calls they cost in total
    /// (the scatter-vs-targeted economy: subset-size vs N per query).
    std::uint64_t targetedRegionQueries = 0;
    std::uint64_t regionShardsQueried = 0;
    /// Spatial mode: objects whose logs were migrated across a territory
    /// boundary (crossings and balancer moves), and balancer leaf splits.
    std::uint64_t objectMigrations = 0;
    std::uint64_t territorySplits = 0;
  };

  /// Resolves the members from the registry. Throws util::TransportError
  /// when the registry is unreachable and util::NotFoundError when no shard
  /// is announced.
  ClusterLocationService(const std::string& registryHost, std::uint16_t registryPort,
                         Options options);
  // Not a default argument: gcc can't evaluate Options{} (whose nested
  // member initializers live in this class) inside the class body.
  ClusterLocationService(const std::string& registryHost, std::uint16_t registryPort);

  ClusterLocationService(const ClusterLocationService&) = delete;
  ClusterLocationService& operator=(const ClusterLocationService&) = delete;

  [[nodiscard]] std::size_t shardCount() const;
  [[nodiscard]] std::size_t shardFor(const util::MobileObjectId& object) const;

  /// Re-resolves the members from the registry: newly announced shards
  /// become routable, changed endpoints drop their stale connections. In
  /// ring mode a membership change opens the dual-read window (see the file
  /// header) and an unchanged refresh closes it; in spatial mode the
  /// territory map is re-read from the registry.
  void refreshMembers();

  /// Ring mode: a membership change is being straddled — moved arcs are
  /// double-routed until the next unchanged refresh. Always false in
  /// spatial mode.
  [[nodiscard]] bool dualReadWindowOpen() const;

  /// Pings every down member whose probe timer has lapsed, all at once
  /// (routed calls also probe lazily; this is for impatient callers).
  void probeDownShards();

  // --- object-routed calls -----------------------------------------------------

  /// Routed to the owning shard. A reading the shard cluster cannot accept
  /// (owner down, retries exhausted) is dropped and counted — push-model
  /// semantics, like oneway ingest at a restarting service.
  void ingest(const db::SensorReading& reading);

  /// Splits the batch by owning shard (preserving each object's relative
  /// order) and ships one sub-batch per shard, all in flight at once.
  void ingestBatch(std::span<const db::SensorReading> readings);

  /// nullopt when the object is unknown — or when its owning shard is
  /// unreachable (counted in stats().failedRoutedCalls; availability over
  /// an exception on the query path).
  [[nodiscard]] std::optional<fusion::LocationEstimate> locate(const util::MobileObjectId& object);

  /// "" when unknown or the owning shard is unreachable.
  [[nodiscard]] std::string locateSymbolic(const util::MobileObjectId& object);

  // --- scatter-gather calls ----------------------------------------------------

  /// Ring mode scatters to all shards; the owning shard's evidence-bearing
  /// answer wins over the bare priors the others report. Spatial mode asks
  /// the object's home. Throws util::TransportError
  /// when NO shard answered.
  [[nodiscard]] double probabilityInRegion(const util::MobileObjectId& object,
                                           const geo::Rect& region);

  struct RegionQueryResult {
    std::vector<std::pair<util::MobileObjectId, double>> members;
    /// True when at least one shard did not answer: `members` is a correct
    /// answer for the shards that did, but may miss the silent shards'
    /// objects.
    bool degraded = false;
    std::size_t shardsAnswered = 0;
  };

  /// Scatter-gather population query with the partial-result contract made
  /// explicit. Throws util::TransportError when NO shard answered.
  [[nodiscard]] RegionQueryResult objectsInRegionDetailed(const geo::Rect& region,
                                                          double minProbability);

  /// Convenience wrapper discarding the degraded flag (still visible via
  /// stats().degradedQueries).
  [[nodiscard]] std::vector<std::pair<util::MobileObjectId, double>> objectsInRegion(
      const geo::Rect& region, double minProbability);

  // --- push: cluster-wide subscriptions ---------------------------------------

  /// Fans the subscription out to every member; matching notifications from
  /// any shard arrive on `callback` carrying the single cluster-wide id
  /// this returns. Shards that are down at subscribe time (or that drop
  /// their connection later) get the subscription replayed when they
  /// reconnect; so does a member that rejoins the ring.
  util::SubscriptionId subscribe(const geo::Rect& region,
                                 std::optional<util::MobileObjectId> subject, double threshold,
                                 std::function<void(const core::Notification&)> callback);

  /// Cluster-wide aggregate (density) standing rule: each covering shard
  /// maintains its own region count incrementally (an object ingests on
  /// exactly one shard, so shard populations are disjoint), and the router
  /// sums the per-shard counts, firing `callback` on every total change with
  /// limit-crossing edges computed against the cluster-wide total. Shard
  /// registrations seed their initial counts as they attach, so the first
  /// notifications walk the total up to the standing crowd.
  util::SubscriptionId subscribeDensity(const geo::Rect& region, double minProbability,
                                        std::size_t limit,
                                        std::function<void(const core::DensityNotification&)> callback);

  bool unsubscribe(util::SubscriptionId id);

  // --- spatial partitioning ----------------------------------------------------

  /// Spatial mode: the territory map this router currently routes by.
  [[nodiscard]] TerritoryMap territorySnapshot() const;
  /// Spatial mode: objects currently mid-migration (reads double-routed).
  [[nodiscard]] std::size_t movingObjects() const;

  /// Spatial mode: one balancer pass. Finds the hottest and coldest shard
  /// by per-leaf ingest counts; when the hottest carries at least
  /// `hotColdRatio` times the coldest's load (and at least `minReadings`),
  /// splits the hottest leaf at the midpoint of its long axis, migrates the
  /// new half's residents to the coldest shard (live handoff — ingest keeps
  /// flowing), publishes the new map through the registry and returns true.
  /// Returns false when the cluster is balanced enough (or the migration
  /// could not run). Call from ONE place per cluster (see file header).
  bool rebalanceOnce(double hotColdRatio = 2.0, std::uint64_t minReadings = 64);

  /// Spatial mode: starts the balancer daemon — a background thread invoking
  /// rebalanceOnce(hotColdRatio, minReadings) every `period` — so deployments
  /// do not have to drive the balancer by hand. Idempotent while running
  /// (the new parameters take effect on the next pass). Run it on ONE router
  /// per cluster, like manual rebalanceOnce calls.
  void startBalancer(std::chrono::milliseconds period, double hotColdRatio = 2.0,
                     std::uint64_t minReadings = 64);
  /// Stops the daemon and joins its thread; a pass already in flight
  /// completes first. No-op when not running. Also called by the destructor.
  void stopBalancer();
  [[nodiscard]] bool balancerRunning() const;
  /// Daemon passes completed so far (whether or not they split anything —
  /// splits show in stats().territorySplits).
  [[nodiscard]] std::uint64_t balancerPasses() const noexcept {
    return balancerPasses_.load(std::memory_order_relaxed);
  }

  ~ClusterLocationService();

  [[nodiscard]] Stats stats() const;

 private:
  struct Shard {
    explicit Shard(const RetryPolicy& policy) : health(policy) {}

    std::size_t index = 0;
    std::string token;  ///< member token
    ShardHealth health;
    /// Guards endpoint + client (re)creation; never held across an RPC.
    std::mutex connectMutex;
    std::optional<core::Endpoint> endpoint;
    std::shared_ptr<core::RemoteLocationClient> client;
  };

  /// Router-side aggregation state for one density subscription: disjoint
  /// per-shard counts merged into a cluster total with its own limit-edge
  /// memory. Guarded by its own mutex — shard notifications arrive on
  /// independent event-reader threads. May be locked with subsMutex_ held
  /// (clearShardSubscriptions); never take subsMutex_ under it.
  struct DensityAgg {
    std::mutex mutex;
    std::unordered_map<std::size_t, std::uint64_t> countOf;  ///< shard index -> count
    std::uint64_t lastTotal = 0;
    bool lastOver = false;
  };

  /// The subscription spec kept for fan-out and reconnect replay.
  struct ClusterSub {
    geo::Rect region;
    std::optional<util::MobileObjectId> subject;
    double threshold = 0;  ///< plain: probability threshold; density: minProbability
    std::function<void(const core::Notification&)> callback;
    /// Per-shard subscription id (0 = not registered on that shard).
    std::vector<std::uint64_t> shardSubIds;
    /// Density subscriptions: limit + callback + aggregation state (null for
    /// plain region-entry subscriptions).
    std::size_t limit = 0;
    std::function<void(const core::DensityNotification&)> densityCallback;
    std::shared_ptr<DensityAgg> agg;
  };

  /// One published view of the membership: the shard list and its token
  /// index, plus (ring mode) the ring and the one before the last change.
  /// Shard slots are stable across refreshes — a new member appends, a
  /// lapsed one keeps its slot — so subscription id vectors only ever grow.
  struct Topology {
    std::vector<std::shared_ptr<Shard>> shards;
    std::unordered_map<std::string, std::size_t> slotOf;  ///< token -> shard index
    /// The shards a scatter, a new subscription or a probe reaches: every
    /// slot in spatial mode; in ring mode the ring's members plus, while the
    /// window is open, the previous ring's.
    std::vector<std::shared_ptr<Shard>> members;
    HashRing ring;        ///< current membership (ring mode)
    HashRing prev;        ///< membership before the last change (ring mode)
    bool window = false;  ///< dual-read window open (ring mode)
  };

  /// Where an object's traffic goes this instant: `target` for the call,
  /// `fallback` (reads only, mid-move) when the target doesn't know the
  /// object yet.
  struct Route {
    std::shared_ptr<Shard> target;
    std::shared_ptr<Shard> fallback;
  };
  /// The route for one object. `ingestPoint` (the reading's evidence-box
  /// center, ingest path only) homes a first-seen object at that point's
  /// territory owner in spatial mode and bumps the leaf's load counter. Mid-
  /// move (ring window or spatial migration) reads get target = new owner,
  /// fallback = old; ingest keeps targeting the OLD owner, whose migration
  /// session buffers or forwards in per-object order.
  [[nodiscard]] Route routeFor(const Topology& topo, const util::MobileObjectId& object,
                               const geo::Point2* ingestPoint, bool ingestPath);
  [[nodiscard]] Route spatialRouteFor(const Topology& topo, const util::MobileObjectId& object,
                                      const geo::Point2* ingestPoint, bool ingestPath);

  /// Merges freshly resolved members into a new topology (constructor and
  /// every refresh): one slot update for both modes, then the ring window
  /// (ring mode) or the territory map (spatial mode).
  void applyMembers(const MemberMap& members);
  /// Spatial mode: adopts the registry's published territory map when it is
  /// newer than ours, or bootstraps (and publishes) the uniform split.
  void adoptTerritory(const std::vector<std::string>& tokens);

  /// Called after a spatial-mode ingest lands: when the reading's evidence
  /// center fell outside the object's home territory, migrates the object's
  /// log to the new owner (the reading itself was applied at the OLD home
  /// first, preserving per-object order).
  void maybeMigrateAfterIngest(const util::MobileObjectId& object, const geo::Point2& center);

  /// Migrates `explicitObjects` plus every resident of `rects` from member
  /// `from` to member `to` over one migrate.* session (begin → adopt →
  /// export/import → [newMap adopt + subscription spill] → flush → end →
  /// home flip). When `newMap` is set it is adopted locally before the
  /// flush and published to the registry after the flip. Returns false when
  /// any step failed (homes stay put; the loser's session keeps the moved
  /// readings buffered and a later migration attempt re-covers them).
  bool migrateObjects(const std::string& from, const std::string& to,
                      std::vector<util::MobileObjectId> explicitObjects,
                      const std::vector<geo::Rect>& rects,
                      const std::optional<TerritoryMap>& newMap);

  /// Registers every cluster subscription whose (slack-inflated) region
  /// intersects `token`'s territory IN `map` and is not yet on that shard —
  /// the subscription spill that keeps targeted placement correct as
  /// territory migrates onto a shard. `map` is the coverage the shard is
  /// about to have (a balancer move spills against the post-split map
  /// BEFORE flushing, so replayed buffered readings find their triggers).
  void spillSubscriptionsOnto(Shard& shard, const std::string& token, const TerritoryMap& map);

  /// Does `token`'s territory in `map` intersect the slack-inflated region?
  /// (Which shards a region query / subscription must reach.)
  [[nodiscard]] bool territoryCovers(const TerritoryMap& map, const std::string& token,
                                     const geo::Rect& region) const;
  /// Same against the live map (takes spatialMutex_; never call with
  /// subsMutex_ held — the two must not nest).
  [[nodiscard]] bool territoryCovers(const std::string& token, const geo::Rect& region) const;

  [[nodiscard]] std::shared_ptr<const Topology> topology() const;

  /// Connected client for the shard, creating (and replaying subscriptions
  /// onto) a fresh connection if needed; null when the shard has no
  /// endpoint or connecting failed.
  [[nodiscard]] std::shared_ptr<core::RemoteLocationClient> clientFor(Shard& shard);
  /// Drops the connection and zeroes the shard's subscription slots (they
  /// died with the connection; the next reconnect replays them).
  void dropClient(Shard& shard);
  void clearShardSubscriptions(Shard& shard);

  using Deadline = orb::RpcClient::Deadline;
  /// The wait half of one started attempt: collects its reply by the
  /// round's deadline and decodes it.
  template <typename R>
  using Finish = std::function<R(Deadline)>;
  /// Starts target `i`'s attempt on its connected client and returns the
  /// wait half. A stub call with no start half runs whole inside the
  /// returned Finish, under the connection's own deadline.
  template <typename R>
  using Attempt = std::function<Finish<R>(std::size_t i, core::RemoteLocationClient&)>;

  /// The one attempt loop behind every shard call, run on the caller's
  /// thread. Each round starts an attempt on every unresolved target, waits
  /// on all of them against one deadline, backs off once and retries only
  /// the failures, within the RetryPolicy budget; a down shard is skipped
  /// between probes. Timeouts keep the connection, transport errors drop
  /// it; both count against the shard's health. A util::MwError (the shard
  /// answered with an application error) resolves its target without
  /// counting, and the first is rethrown at the end. results[i] is nullopt
  /// where target i's budget ran out.
  template <typename R>
  std::vector<std::optional<R>> callShards(const std::vector<Shard*>& targets,
                                           const Attempt<R>& attempt);

  /// callShards over one shard with a blocking stub call.
  template <typename R>
  std::optional<R> callShard(Shard& shard, const std::function<R(core::RemoteLocationClient&)>& fn);

  /// Routed read: asks the object's owner, then (mid-move) the previous
  /// owner when the owner's answer is not `found`. A miss returns R{}; a
  /// call no shard answered also counts in failedRoutedCalls.
  template <typename R>
  R routedRead(const util::MobileObjectId& object,
               const std::function<R(core::RemoteLocationClient&)>& fn, bool (*found)(const R&));

  /// Registers a new cluster subscription and fans it out to every member
  /// that can home a triggering object.
  util::SubscriptionId fanOut(const std::shared_ptr<ClusterSub>& sub);
  /// One shard-side registration of a cluster subscription.
  struct Registration {
    std::uint64_t id = 0;
    std::optional<std::size_t> seed;  ///< density: the shard's count at subscribe time
  };
  /// Registers `sub` on one shard connection; its notifications re-emit
  /// under `clusterId` (density counts fold into the cluster total).
  static Registration registerOn(core::RemoteLocationClient& client,
                                 util::SubscriptionId clusterId,
                                 const std::shared_ptr<ClusterSub>& sub, std::size_t shardIndex);
  /// Registers one cluster subscription on one shard under the claim
  /// protocol (either the initial fan-out or a reconnect replay registers,
  /// never both; failures leave the slot empty for the next replay).
  void subscribeOnShard(Shard& shard, util::SubscriptionId clusterId,
                        const std::shared_ptr<ClusterSub>& sub);
  /// Replays every missing subscription onto a freshly connected shard.
  void replaySubscriptions(Shard& shard, core::RemoteLocationClient& client);

  /// Folds one shard's density count report (live notification or
  /// registration seed) into the cluster total and fires the user callback
  /// when the total changed. Seeds only fill an absent slot — a live report
  /// racing the registration reply is fresher and wins.
  static void reportDensityCount(ClusterSub& sub, util::SubscriptionId clusterId,
                                 std::size_t shardIndex, std::uint64_t count, bool seed,
                                 const util::MobileObjectId& object, util::TimePoint when);

  const Options options_;
  core::RegistryClient registry_;

  /// Snapshot-published topology (repo idiom: pointer swap under a mutex,
  /// readers pin the snapshot and never hold the lock during RPCs).
  mutable std::mutex topologyMutex_;
  std::shared_ptr<const Topology> topology_;

  std::mutex subsMutex_;
  util::IdSequencer<util::SubscriptionId> subIds_;
  std::unordered_map<std::uint64_t, std::shared_ptr<ClusterSub>> subs_;

  /// Spatial-mode routing state, all under spatialMutex_ (held only for
  /// map/table access, never across an RPC).
  mutable std::mutex spatialMutex_;
  TerritoryMap territory_;
  /// Object -> home member token. Grown at first sighting (evidence-box
  /// center's territory owner), flipped only when a migration completes —
  /// so mid-migration ingest keeps feeding the old home's handoff session.
  std::unordered_map<util::MobileObjectId, std::string> homeOf_;
  struct Move {
    std::string from;
    std::string to;
  };
  /// Objects mid-migration: reads try `to` first and fall back to `from`.
  std::unordered_map<util::MobileObjectId, Move> moving_;
  /// Per-leaf cumulative routed-reading counts — the balancer's heat map.
  std::unordered_map<std::uint32_t, std::uint64_t> leafReadings_;
  /// Serializes migrations (boundary crossings and balancer moves); held
  /// across the whole handoff protocol.
  std::mutex migrationMutex_;

  std::atomic<std::uint64_t> scatterGathers_{0};
  std::atomic<std::uint64_t> degradedQueries_{0};
  std::atomic<std::uint64_t> failedRoutedCalls_{0};
  std::atomic<std::uint64_t> droppedIngestReadings_{0};
  std::atomic<std::uint64_t> targetedRegionQueries_{0};
  std::atomic<std::uint64_t> regionShardsQueried_{0};
  std::atomic<std::uint64_t> objectMigrations_{0};
  std::atomic<std::uint64_t> territorySplits_{0};

  /// Balancer daemon state: the thread sleeps on balancerCv_ so stop wakes
  /// it immediately instead of waiting out the period.
  mutable std::mutex balancerMutex_;
  std::condition_variable balancerCv_;
  std::thread balancerThread_;
  bool balancerStop_ = false;
  double balancerRatio_ = 2.0;
  std::uint64_t balancerMinReadings_ = 64;
  std::chrono::milliseconds balancerPeriod_{0};
  std::atomic<std::uint64_t> balancerPasses_{0};
};

}  // namespace mw::cluster

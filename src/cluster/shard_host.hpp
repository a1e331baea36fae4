// One shard of the location-service cluster: a full Middlewhere core (its
// own spatial database, LocationService and concurrent RpcServer) listening
// on its own TCP port, announced in the RegistryServer as a member —
// "location.ring.<token>" (object-hash ring) or "location.space.<token>"
// (spatial territory) — with a TTL heartbeat.
//
// Lifecycle: construct, configure the world through core() (regions,
// sensors — the same setup every shard of a cluster must share so fused
// answers match the single-process oracle), then start(). start() binds the
// port, announces, and spawns the heartbeat thread that re-announces every
// heartbeatPeriod so the registry entry outlives its TTL exactly as long as
// the process does; a crashed shard stops heartbeating and expires from
// list(). stop() (also run by the destructor) halts the heartbeat and
// withdraws the entry.
//
// Replication (replication.hpp): a host started with Role::Backup announces
// "<primaryName>.backup" and keeps a warm standby — the primary discovers
// it in its heartbeat tick, syncs its store across and then mirrors every
// ingest batch through its tap BEFORE the local apply, so an acked reading
// exists on both sides. The backup watches the primary's registry entry;
// when the TTL downs it, the backup promotes: it claims the primary name
// under the last seen generation + 1 (the registry's fence), withdraws its
// backup entry and serves as the primary from then on. A slow-but-alive old
// primary's next heartbeat is rejected by the fence — it demotes (stops
// claiming) instead of flapping ownership back.
//
// Migration (replication.hpp): every shard serves the migrate.* methods and
// keeps one session table for the migrations it is losing objects in. A
// ring member can also join a live ring — joinRing() opens a session on
// every owner losing arcs to it (their taps start buffering those arcs'
// readings) and only then announces; completeJoin() streams the affected
// objects' logs across, flushes the buffers and drops the moved objects from
// the losers — and leave it again (leaveRing(), the same steps run locally).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/replication.hpp"
#include "cluster/shard_map.hpp"
#include "core/middlewhere.hpp"
#include "core/remote_registry.hpp"

namespace mw::cluster {

/// Registry-name suffix a backup announces under: "<primaryName>.backup".
inline constexpr const char* kBackupSuffix = ".backup";

/// Ring token of a host configured with neither ringToken nor spaceToken.
inline constexpr const char* kDefaultRingToken = "default";

class ShardHost {
 public:
  enum class Role { Primary, Backup };

  struct Options {
    std::uint16_t port = 0;  ///< service port (0 = ephemeral)
    /// Registry-entry TTL; zero disables expiry (and the heartbeat thread).
    util::Duration announceTtl = util::sec(2);
    /// Re-announce period; must undercut the TTL with margin.
    util::Duration heartbeatPeriod = util::msec(500);
    /// Ignored: shards serve TCP only, since the shared-memory lane was
    /// removed. Kept because the perfbench harnesses still assign it.
    bool enableShm = false;
    /// Consistent-hash-ring member token: the shard announces as
    /// "location.ring.<token>". A host given neither token is a ring member
    /// under kDefaultRingToken.
    std::string ringToken;
    /// Spatial-partitioning member token; when set the shard announces as
    /// "location.space.<token>" (territory_map.hpp). Mutually exclusive
    /// with ringToken.
    std::string spaceToken;
    /// Primary serves and (when a backup announces) replicates; Backup
    /// keeps the warm standby and promotes on the primary's TTL expiry.
    Role role = Role::Primary;
    /// Fencing generation the primary name is announced under (see
    /// remote_registry.hpp); backups promote with lastSeen + 1.
    std::uint64_t generation = 1;
    /// start() binds and serves but does not announce — joinRing() will,
    /// after the handoff sessions are in place. Ring joiners only.
    bool deferAnnounce = false;
    /// Territory-aware backup placement (placement.hpp): what a spatial
    /// primary does when the announced backup shares a host with one of its
    /// territory neighbours. Permissive warns, counts the conflict and
    /// replicates anyway (single-host test clusters are all colocated);
    /// Strict refuses the link until a better-placed backup announces.
    /// Only consulted when spaceToken is set and a territory map is
    /// published.
    enum class BackupPlacement { Permissive, Strict };
    BackupPlacement backupPlacement = BackupPlacement::Permissive;
  };

  /// Builds the core (not yet listening) and connects to the registry.
  /// Throws util::TransportError when the registry is unreachable.
  ShardHost(const util::Clock& clock, geo::Rect universe, const std::string& rootFrame,
            const std::string& registryHost, std::uint16_t registryPort, Options options);
  ~ShardHost();

  ShardHost(const ShardHost&) = delete;
  ShardHost& operator=(const ShardHost&) = delete;

  /// The shard's own middleware stack; configure the world here before
  /// start().
  [[nodiscard]] core::Middlewhere& core() noexcept { return *core_; }

  /// The name this host announced at start (primary name, or
  /// "<primaryName>.backup" for a backup — promotion does not change it).
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  /// The primary serving name this host serves or stands by for.
  [[nodiscard]] const std::string& primaryName() const noexcept { return primaryName_; }
  [[nodiscard]] Role role() const noexcept { return role_.load(std::memory_order_acquire); }
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_.load(std::memory_order_acquire);
  }
  /// Bound service port; valid after start().
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] bool running() const noexcept { return running_; }
  /// Heartbeats that failed to reach the registry (logged at warn).
  [[nodiscard]] std::uint64_t heartbeatFailures() const noexcept {
    return heartbeatFailures_.load(std::memory_order_relaxed);
  }

  /// Cumulative load this shard has carried — what a balancer reads to find
  /// hot and cold shards. Counters are since-start; poll twice and diff for
  /// rates.
  struct LoadStats {
    std::uint64_t ingestedReadings = 0;  ///< live readings applied
    std::uint64_t importedReadings = 0;  ///< handoff/replication replays
    std::uint64_t regionQueries = 0;     ///< region-based pull queries served
    std::uint64_t residentObjects = 0;   ///< mobile objects with stored readings
  };
  [[nodiscard]] LoadStats loadStats() const;

  // --- replication observability ---------------------------------------------

  /// The live replication link to this primary's backup (null when none).
  [[nodiscard]] std::shared_ptr<ReplicationLink> replicationLink() const;
  /// Backup->primary promotions this host performed.
  [[nodiscard]] std::uint64_t promotions() const noexcept {
    return promotions_.load(std::memory_order_relaxed);
  }
  /// The registry fenced this host off its primary name: a successor
  /// promoted. The host stops claiming (it no longer owns the name).
  [[nodiscard]] bool fenced() const noexcept { return fenced_.load(std::memory_order_acquire); }
  /// Heartbeat announces rejected by the fence.
  [[nodiscard]] std::uint64_t fencedHeartbeats() const noexcept {
    return fencedHeartbeats_.load(std::memory_order_relaxed);
  }
  /// Announced backups that failed the territory-aware placement check
  /// (shared a host with a territory neighbour); counted in both placement
  /// modes, refused only under Strict.
  [[nodiscard]] std::uint64_t placementConflicts() const noexcept {
    return placementConflicts_.load(std::memory_order_relaxed);
  }

  /// Binds the service port, announces the shard (unless deferAnnounce),
  /// starts heartbeating.
  void start();
  /// Stops the heartbeat and withdraws the registry entry (best effort —
  /// a dead registry cannot be withdrawn from, but the TTL cleans up).
  void stop();

  // --- migration --------------------------------------------------------------

  /// Open migration sessions this shard is the losing side of. An object-set
  /// session is retired once a later migration prunes its last object; an
  /// arc session (ring join or leave) stays and forwards stragglers until
  /// stop().
  [[nodiscard]] std::size_t migrationSessions() const;

  /// Ring member, after start() with deferAnnounce: computes the arcs this
  /// shard's token claims from the currently announced members, opens a
  /// migration session on every losing owner (their taps buffer those arcs'
  /// readings from this moment), then announces this shard and starts the
  /// heartbeat. Routers that refresh now see the new ring and should keep a
  /// dual-read window open until completeJoin() has run.
  void joinRing();
  /// Streams every affected object's reading log from the losing owners,
  /// applies them locally, then flushes each session (buffer drain + switch
  /// to live forwarding) and ends it (the loser drops the moved objects).
  void completeJoin();

  /// Planned drain — the inverse of joinRing(), losers of nothing and one
  /// exporter: computes who inherits each of this member's arcs once it is
  /// gone, installs a migration session per gainer (the tap starts consuming
  /// those arcs' readings), withdraws the registry entry (routers recompute
  /// the ring and open their dual-read window; this host keeps serving),
  /// exports every covered object's log into its gainer (importBatch — no
  /// re-fired triggers), flushes the sessions into live forwarding and drops
  /// the moved objects. The host stays up afterwards, forwarding stragglers,
  /// until stop(). Throws util::ContractError when this member is the whole
  /// ring (nobody to inherit).
  void leaveRing();

 private:
  void heartbeatLoop();
  /// One announce of `announceName_`; returns false when fenced off.
  bool announceOnce();
  /// Primary tick: discover/maintain the backup link.
  void maintainReplication();
  /// Territory-aware placement check for an announced backup endpoint
  /// (placement.hpp); true = replicate to it. Counts and logs conflicts.
  [[nodiscard]] bool backupPlacementAcceptable(const core::Endpoint& backup);
  /// Backup tick: watch the primary entry; promote when it expires.
  void monitorPrimary();
  void installTap();
  [[nodiscard]] core::Endpoint selfEndpoint() const;
  /// The pooled migration connection to `endpoint`, (re)connected when
  /// absent or closed.
  [[nodiscard]] std::shared_ptr<core::RemoteLocationClient> peerFor(const core::Endpoint& endpoint);

  // migrate.* handlers (replication.hpp); leaveRing() calls them locally.
  MigrateBegun beginMigration(const MigrateRequest& request);
  void adoptObjects(const std::vector<util::MobileObjectId>& objects);
  bool flushMigration(std::uint64_t session);
  bool endMigration(std::uint64_t session);
  [[nodiscard]] std::shared_ptr<HandoffSession> sessionById(std::uint64_t session) const;
  [[nodiscard]] std::vector<std::shared_ptr<HandoffSession>> sessionSnapshot() const;
  /// Removes `objects` from every session's coverage and retires the
  /// sessions left empty. Call with ingest paused and mutex_ held.
  void pruneSessionsLocked(std::span<const util::MobileObjectId> objects);

  std::unique_ptr<core::Middlewhere> core_;
  core::RegistryClient registry_;
  const Options options_;
  const Partitioning kind_;
  const std::string token_;
  const std::string primaryName_;
  const std::string name_;
  std::uint16_t port_ = 0;
  bool running_ = false;

  std::atomic<Role> role_;
  std::atomic<std::uint64_t> generation_;
  std::atomic<bool> fenced_{false};
  std::atomic<std::uint64_t> fencedHeartbeats_{0};
  std::atomic<std::uint64_t> promotions_{0};
  std::atomic<std::uint64_t> placementConflicts_{0};
  /// Highest generation seen on the primary entry (backup role); the
  /// promotion claim uses this + 1.
  std::atomic<std::uint64_t> lastSeenGeneration_{0};
  /// A backup only promotes once it has seen the primary announced (a
  /// backup starting first must not claim an empty slot).
  std::atomic<bool> sawPrimary_{false};

  /// Name currently heartbeat-announced (switches to primaryName_ on
  /// promotion) and the backup endpoint the link was built against; both
  /// under mutex_.
  std::string announceName_;
  std::optional<core::Endpoint> linkedBackup_;

  /// Published replication link (swap under mutex_, the tap pins the
  /// shared_ptr for the call).
  std::shared_ptr<ReplicationLink> link_;
  /// Migration sessions (losing side) by id — ordered, so the tap filters
  /// in install order; under mutex_, the tap copies the (tiny) table out per
  /// call. Ids are never reused.
  std::map<std::uint64_t, std::shared_ptr<HandoffSession>> sessions_;
  std::uint64_t nextSession_ = 1;
  /// One migration connection per peer endpoint, shared by every session and
  /// join/leave transfer towards it; under peersMutex_ (held across a
  /// connect, so never mutex_).
  std::mutex peersMutex_;
  std::vector<std::pair<core::Endpoint, std::shared_ptr<core::RemoteLocationClient>>> peers_;
  /// Set once the shard is announced (immediately, or by joinRing when
  /// deferAnnounce); the heartbeat only re-announces after that.
  std::atomic<bool> announced_{false};

  /// Pending join state between joinRing() and completeJoin().
  struct PendingHandoff {
    std::string loserToken;
    std::shared_ptr<core::RemoteLocationClient> peer;
    MigrateBegun begun;
  };
  std::vector<PendingHandoff> pendingJoin_;

  mutable std::mutex mutex_;
  std::condition_variable stopCv_;
  bool stopping_ = false;
  std::thread heartbeat_;
  std::atomic<std::uint64_t> heartbeatFailures_{0};
};

}  // namespace mw::cluster

#include "cluster/shard_host.hpp"

#include <algorithm>
#include <map>
#include <unordered_set>
#include <utility>

#include "cluster/placement.hpp"
#include "cluster/territory_map.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace mw::cluster {

namespace {

/// Peer-to-peer calls (replication mirror, migration forward, log export)
/// block an ingest ack; a wedged peer must not wedge the caller forever.
constexpr auto kPeerCallTimeout = util::sec(5);

/// Does the object's evidence box center in one of `rects`?
bool centeredIn(const db::SpatialDatabase& database, const util::MobileObjectId& object,
                std::span<const geo::Rect> rects) {
  if (rects.empty()) return false;
  const auto box = database.evidenceBoxOf(object);
  if (!box) return false;
  const geo::Point2 center = box->center();
  return std::any_of(rects.begin(), rects.end(),
                     [&](const geo::Rect& rect) { return rect.contains(center); });
}

}  // namespace

ShardHost::ShardHost(const util::Clock& clock, geo::Rect universe, const std::string& rootFrame,
                     const std::string& registryHost, std::uint16_t registryPort,
                     Options options)
    : core_(std::make_unique<core::Middlewhere>(clock, universe, rootFrame)),
      registry_(registryHost, registryPort),
      options_(std::move(options)),
      kind_(options_.spaceToken.empty() ? Partitioning::Ring : Partitioning::Spatial),
      token_(!options_.spaceToken.empty()  ? options_.spaceToken
             : !options_.ringToken.empty() ? options_.ringToken
                                           : kDefaultRingToken),
      primaryName_(memberName(kind_, token_)),
      name_(options_.role == Role::Backup ? primaryName_ + kBackupSuffix : primaryName_),
      role_(options_.role),
      generation_(options_.generation) {
  mw::util::require(options_.announceTtl.count() == 0 ||
                        options_.heartbeatPeriod < options_.announceTtl,
                    "ShardHost: heartbeatPeriod must undercut announceTtl");
  mw::util::require(options_.ringToken.empty() || options_.spaceToken.empty(),
                    "ShardHost: ringToken and spaceToken are mutually exclusive");
  mw::util::require(!options_.deferAnnounce || kind_ == Partitioning::Ring,
                    "ShardHost: deferAnnounce is for ring joiners");
  mw::util::require(options_.role != Role::Backup || options_.announceTtl.count() > 0,
                    "ShardHost: a backup needs the heartbeat (announceTtl > 0) to "
                    "watch its primary");
  announceName_ = name_;
}

ShardHost::~ShardHost() { stop(); }

void ShardHost::start() {
  mw::util::require(!running_, "ShardHost::start: already running");
  port_ = core_->listen(options_.port);
  installTap();
  serveMigrate(core_->rpcServer(),
               {[this](const MigrateRequest& request) { return beginMigration(request); },
                [this](const std::vector<util::MobileObjectId>& objects) { adoptObjects(objects); },
                [this](std::uint64_t session) { return flushMigration(session); },
                [this](std::uint64_t session) { return endMigration(session); }});
  if (!options_.deferAnnounce) {
    announceOnce();
    announced_.store(true, std::memory_order_release);
  }
  running_ = true;
  if (options_.announceTtl.count() > 0) {
    heartbeat_ = std::thread([this] { heartbeatLoop(); });
  }
  util::logInfo("ShardHost", name_, " serving on port ", port_);
}

void ShardHost::stop() {
  if (!running_) return;
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  stopCv_.notify_all();
  if (heartbeat_.joinable()) heartbeat_.join();
  std::string who;
  {
    std::lock_guard lock(mutex_);
    who = announceName_;
  }
  // A fenced host no longer owns its name — a successor promoted into it,
  // and withdrawing here would delete the SUCCESSOR's entry.
  if (announced_.load(std::memory_order_acquire) && !fenced_.load(std::memory_order_acquire)) {
    try {
      registry_.withdraw(who);
    } catch (const util::TransportError&) {
      // Registry gone; the TTL expires the entry on its own.
    }
  }
  core_->locationService().setIngestTap(nullptr);
  {
    std::lock_guard lock(mutex_);
    link_.reset();
    linkedBackup_.reset();
    sessions_.clear();
  }
  {
    std::lock_guard lock(peersMutex_);
    peers_.clear();
  }
  running_ = false;
}

core::Endpoint ShardHost::selfEndpoint() const {
  return core::Endpoint{"127.0.0.1", port_};
}

bool ShardHost::announceOnce() {
  if (fenced_.load(std::memory_order_acquire)) return false;
  std::string who;
  {
    std::lock_guard lock(mutex_);
    who = announceName_;
  }
  // The serving name is fenced by generation; the backup standby name is
  // uncontended (generation 0 = legacy unfenced announce).
  const std::uint64_t generation =
      who == primaryName_ ? generation_.load(std::memory_order_acquire) : 0;
  const bool accepted = registry_.announce(who, selfEndpoint(), options_.announceTtl, generation);
  if (!accepted) {
    fenced_.store(true, std::memory_order_release);
    fencedHeartbeats_.fetch_add(1, std::memory_order_relaxed);
    util::logWarn("ShardHost", who, ": announce rejected (generation ", generation,
                  " fenced by a promoted successor); demoting to bystander");
  }
  return accepted;
}

void ShardHost::heartbeatLoop() {
  std::unique_lock lock(mutex_);
  while (!stopCv_.wait_for(lock, std::chrono::milliseconds(options_.heartbeatPeriod.count()),
                           [&] { return stopping_; })) {
    lock.unlock();
    try {
      if (announced_.load(std::memory_order_acquire)) {
        announceOnce();
        if (role() == Role::Primary) {
          maintainReplication();
        } else {
          monitorPrimary();
        }
      }
    } catch (const util::TransportError&) {
      // Registry unreachable this tick: the entry may expire (and the
      // cluster will treat this shard as unannounced) until a later
      // heartbeat gets through.
      heartbeatFailures_.fetch_add(1, std::memory_order_relaxed);
      util::logWarn("ShardHost", name_, ": heartbeat failed (registry unreachable)");
    }
    lock.lock();
  }
}

ShardHost::LoadStats ShardHost::loadStats() const {
  LoadStats stats;
  const auto& service = core_->locationService();
  stats.ingestedReadings = service.ingestedReadings();
  stats.importedReadings = service.importedReadings();
  stats.regionQueries = service.regionQueries();
  stats.residentObjects = core_->database().knownMobileObjects().size();
  return stats;
}

std::shared_ptr<ReplicationLink> ShardHost::replicationLink() const {
  std::lock_guard lock(mutex_);
  return link_;
}

std::vector<std::shared_ptr<HandoffSession>> ShardHost::sessionSnapshot() const {
  std::vector<std::shared_ptr<HandoffSession>> sessions;
  std::lock_guard lock(mutex_);
  sessions.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) sessions.push_back(session);
  return sessions;
}

std::size_t ShardHost::migrationSessions() const {
  std::lock_guard lock(mutex_);
  return sessions_.size();
}

void ShardHost::installTap() {
  core_->locationService().setIngestTap(
      [this](std::span<const db::SensorReading> batch) -> std::vector<db::SensorReading> {
        std::vector<db::SensorReading> kept(batch.begin(), batch.end());
        // Migration first: readings of a migrating object belong to the
        // gainer — they must be neither applied here nor mirrored to the
        // backup (the gainer's own replication covers them from now on).
        for (const auto& session : sessionSnapshot()) {
          if (kept.empty()) break;
          kept = session->filter(std::move(kept));
        }
        std::shared_ptr<ReplicationLink> link;
        {
          std::lock_guard lock(mutex_);
          link = link_;
        }
        if (link) link->mirror(kept);
        return kept;
      });
}

bool ShardHost::backupPlacementAcceptable(const core::Endpoint& backup) {
  // Resolve the published territory map and the announced members' hosts;
  // registry blindness (or no map yet) means no basis to refuse — accept.
  TerritoryMap map;
  std::unordered_map<std::string, std::string> memberHosts;
  try {
    auto meta = registry_.getMeta(kTerritoryMetaName);
    if (!meta) return true;
    map = TerritoryMap::decode(meta->value);
    const MemberMap members = resolveMembers(registry_, Partitioning::Spatial);
    for (std::size_t i = 0; i < members.tokens.size(); ++i) {
      if (members.endpoints[i]) memberHosts.emplace(members.tokens[i], members.endpoints[i]->host);
    }
  } catch (const util::TransportError&) {
    return true;
  }
  PlacementDecision decision =
      evaluateBackupPlacement(map, token_, backup.host, memberHosts);
  if (decision.accepted) return true;
  placementConflicts_.fetch_add(1, std::memory_order_relaxed);
  std::string conflicts;
  for (const std::string& token : decision.conflicts) {
    if (!conflicts.empty()) conflicts += ", ";
    conflicts += token;
  }
  const bool strict = options_.backupPlacement == Options::BackupPlacement::Strict;
  util::logWarn("ShardHost", primaryName_, ": backup host ", backup.host,
                " is colocated with territory neighbour(s) [", conflicts, "]; ",
                strict ? "refusing the standby (strict placement)"
                       : "replicating anyway (permissive placement)");
  return !strict;
}

void ShardHost::maintainReplication() {
  const std::string backupName = primaryName_ + kBackupSuffix;
  {
    std::lock_guard lock(mutex_);
    if (link_ && link_->dead()) {
      link_.reset();
      linkedBackup_.reset();
    }
  }
  std::optional<core::RegistryClient::ResolvedEntry> entry;
  try {
    entry = registry_.lookupEntry(backupName);
  } catch (const util::TransportError&) {
    return;  // registry blind this tick; keep the link we have
  }
  if (!entry) {
    // Backup gone (expired or withdrew): run unreplicated until one returns.
    std::lock_guard lock(mutex_);
    if (link_) {
      util::logWarn("ShardHost", primaryName_, ": backup ", backupName,
                    " disappeared from the registry; dropping replication link");
      link_.reset();
      linkedBackup_.reset();
    }
    return;
  }
  {
    std::lock_guard lock(mutex_);
    if (link_ && linkedBackup_ == entry->endpoint) return;  // already mirroring there
  }
  if (kind_ == Partitioning::Spatial && !backupPlacementAcceptable(entry->endpoint)) {
    return;  // Strict placement refused the colocated standby
  }
  std::shared_ptr<core::RemoteLocationClient> client;
  try {
    client = connectMember(entry->endpoint, kPeerCallTimeout);
  } catch (const util::TransportError&) {
    util::logWarn("ShardHost", primaryName_, ": backup ", backupName,
                  " announced but unreachable; will retry next heartbeat");
    return;
  }
  auto fresh = std::make_shared<ReplicationLink>(backupName, std::move(client));
  {
    // Quiesce ingest: the store is a consistent cut for the initial sync,
    // and publishing the link inside the same window means every reading
    // after the cut flows through mirror() — nothing falls in between.
    auto pause = core_->locationService().pauseIngest();
    if (!fresh->syncFrom(core_->database())) return;
    std::lock_guard lock(mutex_);
    link_ = fresh;
    linkedBackup_ = entry->endpoint;
  }
  util::logInfo("ShardHost", primaryName_, ": replicating to ", backupName, " (",
                fresh->syncedReadings(), " readings synced)");
}

void ShardHost::monitorPrimary() {
  std::optional<core::RegistryClient::ResolvedEntry> entry;
  try {
    entry = registry_.lookupEntry(primaryName_);
  } catch (const util::TransportError&) {
    return;  // blind, not dead — never promote on a registry outage
  }
  if (entry) {
    sawPrimary_.store(true, std::memory_order_release);
    std::uint64_t seen = lastSeenGeneration_.load(std::memory_order_relaxed);
    while (entry->generation > seen &&
           !lastSeenGeneration_.compare_exchange_weak(seen, entry->generation)) {
    }
    return;
  }
  if (!sawPrimary_.load(std::memory_order_acquire)) return;  // primary never lived
  // The primary's TTL expired: claim its name one generation up. The
  // registry's fence makes the claim atomic — of two racing backups, or a
  // slow old primary re-announcing, exactly one write under the higher
  // generation wins and the rest are rejected.
  const std::uint64_t claimGeneration = lastSeenGeneration_.load(std::memory_order_acquire) + 1;
  bool accepted = false;
  try {
    accepted =
        registry_.announce(primaryName_, selfEndpoint(), options_.announceTtl, claimGeneration);
  } catch (const util::TransportError&) {
    return;
  }
  if (!accepted) {
    // Someone already holds a higher generation; observe it next tick.
    return;
  }
  generation_.store(claimGeneration, std::memory_order_release);
  role_.store(Role::Primary, std::memory_order_release);
  promotions_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard lock(mutex_);
    announceName_ = primaryName_;
  }
  try {
    registry_.withdraw(name_);  // the standby slot is open again
  } catch (const util::TransportError&) {
  }
  util::logInfo("ShardHost", name_, ": primary ", primaryName_,
                " expired; promoted to primary at generation ", claimGeneration);
}

std::shared_ptr<core::RemoteLocationClient> ShardHost::peerFor(const core::Endpoint& endpoint) {
  std::lock_guard lock(peersMutex_);
  for (auto& [where, client] : peers_) {
    if (where != endpoint) continue;
    if (!client->rpc()->isOpen()) client = connectMember(endpoint, kPeerCallTimeout);
    return client;
  }
  return peers_.emplace_back(endpoint, connectMember(endpoint, kPeerCallTimeout)).second;
}

// --- migration: losing side ---------------------------------------------------

MigrateBegun ShardHost::beginMigration(const MigrateRequest& request) {
  auto client = peerFor(request.gainer);
  // The moving set: the caller's explicit objects, plus every resident the
  // request's rects or arcs cover. Computed and installed under one ingest
  // pause so the split is exact: every reading acked before this instant is
  // in the local store (the gainer will import it), every later one hits the
  // session's filter.
  MigrateBegun begun;
  begun.affected = request.objects;
  std::unordered_set<util::MobileObjectId> moving(begun.affected.begin(), begun.affected.end());
  auto pause = core_->locationService().pauseIngest();
  const auto& database = core_->database();
  // A boundary crossing names its one object; only rects and arcs need the
  // resident scan, which would otherwise stretch every crossing's pause.
  if (!request.rects.empty() || !request.arcs.empty()) {
    for (const auto& object : database.knownMobileObjects()) {
      if (moving.contains(object)) continue;
      if ((!request.arcs.empty() && arcsContain(request.arcs, objectRingKey(object))) ||
          centeredIn(database, object, request.rects)) {
        begun.affected.push_back(object);
        moving.insert(object);
      }
    }
  }
  auto session = std::make_shared<HandoffSession>(request.gainerToken, begun.affected,
                                                  request.arcs, std::move(client));
  std::lock_guard lock(mutex_);
  // An object migrating BACK to a shard it once left must not be eaten by
  // the stale forwarding session of that earlier migration (and a retried
  // begin supersedes the failed attempt's session).
  pruneSessionsLocked(begun.affected);
  begun.session = nextSession_++;
  sessions_.emplace(begun.session, std::move(session));
  return begun;
}

void ShardHost::adoptObjects(const std::vector<util::MobileObjectId>& objects) {
  // Gaining side: this shard is about to become the objects' home again, so
  // any forwarding session a PAST migration left here must stop consuming
  // their readings (else a reading routed here would bounce to the old
  // gainer and chase its own tail).
  auto pause = core_->locationService().pauseIngest();
  std::lock_guard lock(mutex_);
  pruneSessionsLocked(objects);
}

void ShardHost::pruneSessionsLocked(std::span<const util::MobileObjectId> objects) {
  std::erase_if(sessions_, [&](const auto& entry) {
    entry.second->removeObjects(objects);
    return entry.second->empty();
  });
}

std::shared_ptr<HandoffSession> ShardHost::sessionById(std::uint64_t session) const {
  std::lock_guard lock(mutex_);
  auto it = sessions_.find(session);
  return it == sessions_.end() ? nullptr : it->second;
}

bool ShardHost::flushMigration(std::uint64_t session) {
  auto found = sessionById(session);
  return found != nullptr && found->flush();
}

bool ShardHost::endMigration(std::uint64_t session) {
  // The session stays installed and forwarding, so a straggler reading from
  // a router still closing its dual-read window is proxied, not lost.
  auto found = sessionById(session);
  if (!found || !found->forwarding()) return false;  // unknown, or end before flush
  auto& database = core_->database();
  for (const auto& object : database.knownMobileObjects()) {
    if (found->covers(object)) database.dropMobileObject(object);
  }
  return true;
}

// --- ring membership -------------------------------------------------------------

void ShardHost::joinRing() {
  mw::util::require(running_, "ShardHost::joinRing: start() first");
  mw::util::require(kind_ == Partitioning::Ring, "ShardHost::joinRing: not a ring member");
  mw::util::require(!announced_.load(std::memory_order_acquire),
                    "ShardHost::joinRing: already announced (start with deferAnnounce)");
  const MemberMap members = resolveMembers(registry_, Partitioning::Ring);
  HashRing before(members.tokens);
  std::vector<std::string> afterTokens = members.tokens;
  afterTokens.push_back(token_);
  HashRing after(std::move(afterTokens));
  // Group this member's claimed arcs by the owner losing them: one session
  // (one connection, one FIFO) per loser.
  std::map<std::string, std::vector<RingArc>> byLoser;
  for (auto& claim : HashRing::claimsFor(before, after, token_)) {
    if (claim.loser.empty()) continue;  // genesis: nothing to move
    byLoser[claim.loser].push_back(claim.arc);
  }
  pendingJoin_.clear();
  for (auto& [loser, arcs] : byLoser) {
    const auto endpoint = members.endpointOf(loser);
    if (!endpoint) {
      // Expired between list and lookup: its readings are already lost to
      // the cluster; claim the arcs without a transfer.
      util::logWarn("ShardHost", name_, ": losing owner ", loser,
                    " unresolvable; joining its arcs without handoff");
      continue;
    }
    MigrateRequest request;
    request.gainerToken = token_;
    request.gainer = selfEndpoint();
    request.arcs = std::move(arcs);
    PendingHandoff pending;
    pending.loserToken = loser;
    pending.peer = peerFor(*endpoint);
    pending.begun = callMigrateBegin(*pending.peer->rpc(), request);
    pendingJoin_.push_back(std::move(pending));
  }
  // Every loser is now capturing the claimed arcs; announcing makes fresh
  // routers route them here (and stale ones still reach the losers, whose
  // sessions forward). Heartbeats keep the entry alive from here on.
  announceOnce();
  announced_.store(true, std::memory_order_release);
  util::logInfo("ShardHost", name_, ": joined the ring (", pendingJoin_.size(),
                " migration session(s) open)");
}

void ShardHost::completeJoin() {
  mw::util::require(announced_.load(std::memory_order_acquire),
                    "ShardHost::completeJoin: joinRing() first");
  auto& service = core_->locationService();
  for (auto& pending : pendingJoin_) {
    // Replay the frozen logs first, then flush: the joiner's store sees each
    // object as export, then buffered FIFO, then live forwards — the same
    // total order the loser would have applied. Imported, not ingested: the
    // readings already fired their triggers where they were first observed,
    // so the replay must not fire them again here.
    for (const auto& object : pending.begun.affected) {
      std::vector<db::SensorReading> log = pending.peer->exportReadings(object);
      if (!log.empty()) service.importBatch(log);
    }
    orb::RpcClient& rpc = *pending.peer->rpc();
    if (!callMigrateFlush(rpc, pending.begun.session)) {
      util::logWarn("ShardHost", name_, ": migration flush on ", pending.loserToken,
                    " failed; leaving its session buffering for a retry");
      continue;
    }
    if (!callMigrateEnd(rpc, pending.begun.session)) {
      util::logWarn("ShardHost", name_, ": migration end on ", pending.loserToken, " rejected");
    }
  }
  pendingJoin_.clear();
}

void ShardHost::leaveRing() {
  mw::util::require(running_, "ShardHost::leaveRing: start() first");
  mw::util::require(kind_ == Partitioning::Ring, "ShardHost::leaveRing: not a ring member");
  mw::util::require(announced_.load(std::memory_order_acquire),
                    "ShardHost::leaveRing: not announced");
  const MemberMap members = resolveMembers(registry_, Partitioning::Ring);
  HashRing before(members.tokens);
  std::vector<std::string> afterTokens;
  for (const auto& token : members.tokens) {
    if (token != token_) afterTokens.push_back(token);
  }
  mw::util::require(!afterTokens.empty(),
                    "ShardHost::leaveRing: last ring member has nobody to inherit its data");
  HashRing after(afterTokens);
  // Each of this member's arcs has exactly one inheritor: the arc's interior
  // holds no other ring point, so once this member's points are gone every
  // key in it maps to the first surviving point at or past arc.hi.
  std::map<std::string, std::vector<RingArc>> byGainer;
  for (const RingArc& arc : before.arcsOf(token_)) {
    byGainer[after.ownerForKey(arc.hi)].push_back(arc);
  }
  struct Drain {
    std::string gainer;
    std::shared_ptr<core::RemoteLocationClient> peer;
    MigrateBegun begun;
  };
  std::vector<Drain> drains;
  for (auto& [gainer, arcs] : byGainer) {
    const auto endpoint = members.endpointOf(gainer);
    if (!endpoint) {
      util::logWarn("ShardHost", name_, ": arc inheritor ", gainer,
                    " unresolvable; leaving its arcs without handoff");
      continue;
    }
    // The same protocol as a join, with this host as the loser serving
    // itself: from begin on, the leaving arcs' readings are consumed by the
    // session (buffered, later forwarded) — the local store is a frozen cut
    // for the export below.
    MigrateRequest request;
    request.gainerToken = gainer;
    request.gainer = *endpoint;
    request.arcs = std::move(arcs);
    drains.push_back({gainer, peerFor(*endpoint), beginMigration(request)});
  }
  // Leave the ring: stop re-announcing, withdraw the entry. Routers that
  // refresh now recompute ownership and open their dual-read window; readings
  // still routed here land in the sessions.
  announced_.store(false, std::memory_order_release);
  try {
    registry_.withdraw(primaryName_);
  } catch (const util::TransportError&) {
    // Registry gone; the TTL expires the entry on its own.
  }
  std::size_t moved = 0;
  for (auto& drain : drains) {
    try {
      // Imported, not ingested: the readings fired their triggers here when
      // first observed; the inheritor must store them without re-firing.
      for (const auto& object : drain.begun.affected) {
        std::vector<db::SensorReading> log = core_->database().exportObjectLog(object);
        if (!log.empty()) drain.peer->importBatch(log);
      }
    } catch (const util::MwError&) {
      util::logWarn("ShardHost", name_, ": export to ", drain.gainer,
                    " failed; its arcs stay buffered for a retry");
      continue;
    }
    if (!flushMigration(drain.begun.session)) {
      util::logWarn("ShardHost", name_, ": drain flush to ", drain.gainer,
                    " failed; keeping its buffer");
      continue;
    }
    (void)endMigration(drain.begun.session);
    moved += drain.begun.affected.size();
  }
  util::logInfo("ShardHost", name_, ": left the ring (", moved, " object(s) drained into ",
                drains.size(), " inheritor(s)); still forwarding stragglers");
}

}  // namespace mw::cluster

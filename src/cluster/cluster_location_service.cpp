#include "cluster/cluster_location_service.hpp"

#include <algorithm>
#include <exception>
#include <map>
#include <thread>
#include <unordered_map>
#include <utility>

#include "cluster/replication.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace mw::cluster {

namespace {

/// Claim sentinel for a per-shard subscription registration in flight.
constexpr std::uint64_t kSubPending = ~0ULL;

/// Slot accessor that tolerates a shard list that grew since this sub's id
/// vector was sized (ring mode appends members at any refresh). Call with
/// subsMutex_ held.
std::uint64_t& subSlot(std::vector<std::uint64_t>& ids, std::size_t index) {
  if (ids.size() <= index) ids.resize(index + 1, 0);
  return ids[index];
}

/// The wait half of a stub call already on the wire: waits for `call` on
/// `client`'s connection and decodes the reply.
template <typename R>
std::function<R(orb::RpcClient::Deadline)> awaitReply(core::RemoteLocationClient& client,
                                                      orb::RpcClient::Call call,
                                                      R (*decode)(const util::Bytes&)) {
  return [&client, call = std::move(call), decode](orb::RpcClient::Deadline deadline) {
    return decode(client.rpc()->wait(call, deadline));
  };
}

/// Decoder for replies that only acknowledge (ingestBatch, ping).
bool acknowledged(const util::Bytes& /*reply*/) { return true; }

}  // namespace

ClusterLocationService::ClusterLocationService(const std::string& registryHost,
                                               std::uint16_t registryPort)
    : ClusterLocationService(registryHost, registryPort, Options{}) {}

ClusterLocationService::ClusterLocationService(const std::string& registryHost,
                                               std::uint16_t registryPort, Options options)
    : options_(options), registry_(registryHost, registryPort) {
  mw::util::require(options_.partitioning != Partitioning::Spatial || !options_.universe.empty(),
                    "ClusterLocationService: spatial partitioning needs Options::universe");
  MemberMap members = resolveMembers(registry_, options_.partitioning);
  if (members.tokens.empty()) {
    throw mw::util::NotFoundError("ClusterLocationService: no " +
                                  memberName(options_.partitioning, "*") +
                                  " entry in the registry");
  }
  applyMembers(members);
}

std::shared_ptr<const ClusterLocationService::Topology> ClusterLocationService::topology() const {
  std::lock_guard lock(topologyMutex_);
  return topology_;
}

std::size_t ClusterLocationService::shardCount() const { return topology()->shards.size(); }

std::size_t ClusterLocationService::shardFor(const util::MobileObjectId& object) const {
  auto topo = topology();
  if (options_.partitioning == Partitioning::Spatial) {
    std::lock_guard lock(spatialMutex_);
    auto home = homeOf_.find(object);
    const std::string& owner = home != homeOf_.end()
                                   ? home->second
                                   : territory_.ownerForPoint(territory_.universe().center());
    return topo->slotOf.at(owner);
  }
  return topo->slotOf.at(topo->ring.ownerForObject(object));
}

bool ClusterLocationService::dualReadWindowOpen() const { return topology()->window; }

void ClusterLocationService::applyMembers(const MemberMap& members) {
  const bool ring = options_.partitioning == Partitioning::Ring;
  auto old = topology();
  auto next = std::make_shared<Topology>();
  if (old) *next = *old;
  if (ring) {
    HashRing fresh(members.tokens);
    if (!old || (!fresh.empty() && old->ring.members() == fresh.members())) {
      // First resolve, or unchanged membership: any straddled change is
      // settled; close the dual-read window.
      next->prev = fresh;
      next->ring = std::move(fresh);
      next->window = false;
    } else if (!fresh.empty()) {
      next->prev = old->ring;
      next->ring = std::move(fresh);
      next->window = true;
    }
    // else: registry momentarily empty (every member between heartbeats) —
    // keep routing by the last known ring rather than failing every call.
  }
  // A lapsed member (unlisted, or listed but unresolvable) keeps its slot
  // AND its endpoint: a lapsed heartbeat is not a reassignment (failover is
  // replication's job — a promoted backup reappears under the SAME name),
  // and a planned ring leaver keeps serving stragglers that a router routed
  // on the topology before this one. Whether it is still queried is
  // `members` below.
  std::vector<std::shared_ptr<Shard>> lostConnection;
  for (std::size_t i = 0; i < members.tokens.size(); ++i) {
    const std::string& token = members.tokens[i];
    const std::optional<core::Endpoint>& fresh = members.endpoints[i];
    auto slot = next->slotOf.find(token);
    if (slot == next->slotOf.end()) {
      auto shard = std::make_shared<Shard>(options_.retry);
      shard->index = next->shards.size();
      shard->token = token;
      shard->endpoint = fresh;
      next->slotOf.emplace(token, shard->index);
      next->shards.push_back(std::move(shard));
      continue;
    }
    Shard& shard = *next->shards[slot->second];
    std::unique_lock lock(shard.connectMutex);
    if (!fresh || shard.endpoint == fresh) continue;
    // A changed endpoint is a promotion (same name, the backup's address) or
    // a restart: drop the stale connection and carry on — no window needed,
    // a promoted backup holds every acked reading.
    shard.endpoint = fresh;
    if (!shard.client) continue;
    shard.client.reset();
    lock.unlock();
    lostConnection.push_back(next->shards[slot->second]);
  }
  next->members.clear();
  // A member back in the scatter set (a lapsed heartbeat renewed) may hold a
  // connection that outlived its absence, and so missed the subscriptions
  // made meanwhile (fanOut reaches members only): replay onto it below.
  std::vector<std::pair<std::shared_ptr<Shard>, std::shared_ptr<core::RemoteLocationClient>>>
      returned;
  for (const auto& shard : next->shards) {
    if (ring && !next->ring.hasMember(shard->token) &&
        !(next->window && next->prev.hasMember(shard->token))) {
      continue;
    }
    next->members.push_back(shard);
    if (!old || std::find(old->members.begin(), old->members.end(), shard) != old->members.end()) {
      continue;
    }
    std::lock_guard lock(shard->connectMutex);
    if (shard->client) returned.emplace_back(shard, shard->client);
  }
  {
    // Grow every subscription's per-shard id vector BEFORE the wider shard
    // list is visible, so a replay on a new member never indexes past the
    // end.
    std::lock_guard lock(subsMutex_);
    for (auto& [id, sub] : subs_) {
      if (sub->shardSubIds.size() < next->shards.size()) {
        sub->shardSubIds.resize(next->shards.size(), 0);
      }
    }
  }
  {
    std::lock_guard lock(topologyMutex_);
    topology_ = std::move(next);
  }
  for (const auto& shard : lostConnection) clearShardSubscriptions(*shard);
  for (const auto& [shard, client] : returned) replaySubscriptions(*shard, *client);
  if (!ring) adoptTerritory(members.tokens);
}

void ClusterLocationService::adoptTerritory(const std::vector<std::string>& tokens) {
  // uniform() is a pure function of the member set, so racing routers
  // compute identical maps and the version fence picks one.
  std::optional<core::RegistryClient::Meta> meta;
  try {
    meta = registry_.getMeta(kTerritoryMetaName);
  } catch (const util::TransportError&) {
    // Registry blind this refresh; keep routing by the map we have.
  }
  bool needBootstrap = false;
  {
    std::lock_guard lock(spatialMutex_);
    if (meta) {
      try {
        TerritoryMap fetched = TerritoryMap::decode(meta->value);
        if (fetched.version() > territory_.version()) territory_ = std::move(fetched);
      } catch (const util::MwError&) {
        util::logWarn("ClusterLocationService",
                      "published territory map undecodable; keeping the local one");
      }
    }
    needBootstrap = territory_.empty();
  }
  if (needBootstrap) {
    TerritoryMap uniform = TerritoryMap::uniform(options_.universe, tokens);
    try {
      registry_.putMeta(kTerritoryMetaName, uniform.encode(), uniform.version());
    } catch (const util::TransportError&) {
      // Unpublished but still correct locally; the next refresh retries.
    }
    std::lock_guard lock(spatialMutex_);
    if (territory_.empty()) territory_ = std::move(uniform);
  }
}

void ClusterLocationService::refreshMembers() {
  applyMembers(resolveMembers(registry_, options_.partitioning));
}

ClusterLocationService::Route ClusterLocationService::routeFor(const Topology& topo,
                                                               const util::MobileObjectId& object,
                                                               const geo::Point2* ingestPoint,
                                                               bool ingestPath) {
  if (options_.partitioning == Partitioning::Spatial) {
    return spatialRouteFor(topo, object, ingestPoint, ingestPath);
  }
  Route route;
  const std::string& owner = topo.ring.ownerForObject(object);
  route.target = topo.shards[topo.slotOf.at(owner)];
  if (!topo.window) return route;
  const std::string& prevOwner = topo.prev.ownerForObject(object);
  if (prevOwner == owner) return route;
  const std::shared_ptr<Shard>& prev = topo.shards[topo.slotOf.at(prevOwner)];
  if (ingestPath) {
    // Mid-window writes go to the PREVIOUS owner: its migration session
    // buffers or forwards them to the joiner in per-object order, which a
    // direct write to the joiner (racing the log replay) would break.
    route.target = prev;
  } else {
    // Reads try the new owner, but until the logs have moved it may not
    // know the object — the previous owner still does.
    route.fallback = prev;
  }
  return route;
}

ClusterLocationService::Route ClusterLocationService::spatialRouteFor(
    const Topology& topo, const util::MobileObjectId& object, const geo::Point2* ingestPoint,
    bool ingestPath) {
  Route route;
  std::lock_guard lock(spatialMutex_);
  std::size_t targetSlot = 0;
  std::size_t fallbackSlot = 0;
  bool hasFallback = false;
  if (auto move = moving_.find(object); move != moving_.end()) {
    if (ingestPath) {
      // Mid-migration writes keep going to the OLD home: its migration
      // session buffers or forwards them in per-object order, which a
      // direct write to the gainer (racing the log replay) would break.
      targetSlot = topo.slotOf.at(move->second.from);
    } else {
      targetSlot = topo.slotOf.at(move->second.to);
      fallbackSlot = topo.slotOf.at(move->second.from);
      hasFallback = true;
    }
  } else if (auto home = homeOf_.find(object); home != homeOf_.end()) {
    targetSlot = topo.slotOf.at(home->second);
  } else if (ingestPoint != nullptr) {
    // First sighting: home the object where its evidence box centers.
    const std::string& owner = territory_.ownerForPoint(*ingestPoint);
    if (ingestPath) homeOf_.emplace(object, owner);
    targetSlot = topo.slotOf.at(owner);
  } else {
    // Unknown object and no evidence anywhere: every shard answers the
    // same ("unknown" / the bare prior), so probe one deterministically.
    targetSlot = topo.slotOf.at(territory_.ownerForPoint(territory_.universe().center()));
  }
  if (ingestPath && ingestPoint != nullptr) {
    ++leafReadings_[territory_.leafForPoint(*ingestPoint).id];
  }
  route.target = topo.shards[targetSlot];
  if (hasFallback && fallbackSlot != targetSlot) route.fallback = topo.shards[fallbackSlot];
  return route;
}

void ClusterLocationService::maybeMigrateAfterIngest(const util::MobileObjectId& object,
                                                     const geo::Point2& center) {
  std::string from;
  std::string to;
  {
    std::lock_guard lock(spatialMutex_);
    if (moving_.contains(object)) return;  // already on its way
    auto home = homeOf_.find(object);
    if (home == homeOf_.end()) return;
    to = territory_.ownerForPoint(center);
    if (to == home->second) return;
    from = home->second;
  }
  // Boundary crossing: the reading was applied at the old home first (per-
  // object order); now the whole log follows the object across the border.
  migrateObjects(from, to, {object}, {}, std::nullopt);
}

bool ClusterLocationService::migrateObjects(const std::string& from, const std::string& to,
                                            std::vector<util::MobileObjectId> explicitObjects,
                                            const std::vector<geo::Rect>& rects,
                                            const std::optional<TerritoryMap>& newMap) {
  std::lock_guard migration(migrationMutex_);
  auto topo = topology();
  auto fromSlot = topo->slotOf.find(from);
  auto toSlot = topo->slotOf.find(to);
  if (fromSlot == topo->slotOf.end() || toSlot == topo->slotOf.end()) return false;
  const std::shared_ptr<Shard>& loser = topo->shards[fromSlot->second];
  const std::shared_ptr<Shard>& gainer = topo->shards[toSlot->second];
  {
    // Re-check under the migration serializer: a migration this call queued
    // behind may already have moved (or be moving) some of these.
    std::lock_guard lock(spatialMutex_);
    std::erase_if(explicitObjects, [&](const util::MobileObjectId& object) {
      auto home = homeOf_.find(object);
      return home == homeOf_.end() || home->second != from || moving_.contains(object);
    });
    if (explicitObjects.empty() && rects.empty()) return true;  // nothing left to move
  }
  auto loserClient = clientFor(*loser);
  auto gainerClient = clientFor(*gainer);
  MigrateRequest request;
  {
    std::lock_guard lock(gainer->connectMutex);
    if (!gainer->endpoint) return false;
    request.gainer = *gainer->endpoint;
  }
  if (!loserClient || !gainerClient) return false;
  request.gainerToken = to;
  request.objects = std::move(explicitObjects);
  request.rects = rects;

  MigrateBegun begun;
  const std::vector<util::MobileObjectId>& affected = begun.affected;
  const char* step = "begin";
  try {
    // 1. Loser installs the migration session (its tap starts consuming the
    //    moving objects' readings) and reports the full affected set —
    //    explicit objects plus residents of the migrated rects.
    begun = callMigrateBegin(*loserClient->rpc(), request);
    // 2. Gainer prunes its own stale forwarding sessions BEFORE any forward
    //    can arrive — an object migrating back must not chase its own tail.
    step = "adopt";
    callMigrateAdopt(*gainerClient->rpc(), affected);
    // 3. Mark moving: ingest keeps targeting the loser (whose session now
    //    buffers these objects' readings), reads double-route new-then-old.
    {
      std::lock_guard lock(spatialMutex_);
      for (const auto& object : affected) moving_[object] = Move{from, to};
    }
    // 4. Log replay: importBatch stores quietly — the triggers these
    //    readings matched already fired where they were first ingested.
    step = "export";
    for (const auto& object : affected) {
      auto log = loserClient->exportReadings(object);
      if (!log.empty()) gainerClient->importBatch(log);
    }
    // 5. Spill subscriptions against the coverage the gainer is ABOUT to
    //    have, before the flush, so the flushed buffered readings find
    //    their triggers registered. (Registration is monotone: an extra
    //    shard carrying a trigger is harmless — one home per object means
    //    no duplicate notifications.)
    TerritoryMap coverage;
    if (newMap) {
      coverage = *newMap;
    } else {
      std::lock_guard lock(spatialMutex_);
      coverage = territory_;
    }
    step = "spill";
    spillSubscriptionsOnto(*gainer, to, coverage);
    // 6. Flush: buffered readings drain into the gainer (export first, then
    //    buffer FIFO — per-object order holds), session switches to live
    //    forwarding.
    step = "flush";
    if (!callMigrateFlush(*loserClient->rpc(), begun.session)) {
      throw mw::util::TransportError("flush refused (session lost?)");
    }
    // 7. End: the loser drops the moved objects' local state; the session
    //    keeps forwarding stragglers that raced the home flip.
    step = "end";
    if (!callMigrateEnd(*loserClient->rpc(), begun.session)) {
      util::logWarn("ClusterLocationService", "end refused by ", from,
                    "; moved objects linger there until the next migration");
    }
  } catch (const util::MwError& e) {
    // Homes stay put and ingest keeps flowing to the loser. The loser's
    // session (where installed) keeps consuming the objects' readings, and
    // the next migration attempt's begin prunes it and starts over.
    {
      std::lock_guard lock(spatialMutex_);
      for (const auto& object : affected) moving_.erase(object);
    }
    util::logWarn("ClusterLocationService", "migration ", from, " -> ", to, " failed at ", step,
                  ": ", e.what());
    return false;
  }
  // 8. The flip: from here reads and ingest route to the gainer.
  util::Bytes encoded;
  std::uint64_t publishVersion = 0;
  {
    std::lock_guard lock(spatialMutex_);
    for (const auto& object : affected) {
      homeOf_[object] = to;
      moving_.erase(object);
    }
    if (newMap && newMap->version() > territory_.version()) territory_ = *newMap;
    if (newMap) {
      encoded = territory_.encode();
      publishVersion = territory_.version();
    }
  }
  objectMigrations_.fetch_add(affected.size(), std::memory_order_relaxed);
  if (newMap) {
    try {
      registry_.putMeta(kTerritoryMetaName, encoded, publishVersion);
    } catch (const util::TransportError&) {
      // This router already routes by it; peers converge on the next
      // publish (the version fence makes republishing safe).
      util::logWarn("ClusterLocationService",
                    "territory map v", publishVersion, " publish failed; retrying later");
    }
  }
  return true;
}

void ClusterLocationService::spillSubscriptionsOnto(Shard& shard, const std::string& token,
                                                    const TerritoryMap& map) {
  std::vector<std::pair<util::SubscriptionId, std::shared_ptr<ClusterSub>>> candidates;
  {
    std::lock_guard lock(subsMutex_);
    for (auto& [id, sub] : subs_) {
      if (subSlot(sub->shardSubIds, shard.index) != 0) continue;
      candidates.emplace_back(util::SubscriptionId{id}, sub);
    }
  }
  for (auto& [clusterId, sub] : candidates) {
    if (!territoryCovers(map, token, sub->region)) continue;
    subscribeOnShard(shard, clusterId, sub);  // claims the slot itself
  }
}

bool ClusterLocationService::territoryCovers(const TerritoryMap& map, const std::string& token,
                                             const geo::Rect& region) const {
  const geo::Rect inflated = region.inflated(options_.regionSlack);
  for (const auto& leaf : map.leaves()) {
    if (leaf.owner == token && leaf.rect.intersects(inflated)) return true;
  }
  return false;
}

bool ClusterLocationService::territoryCovers(const std::string& token,
                                             const geo::Rect& region) const {
  std::lock_guard lock(spatialMutex_);
  return territoryCovers(territory_, token, region);
}

TerritoryMap ClusterLocationService::territorySnapshot() const {
  std::lock_guard lock(spatialMutex_);
  return territory_;
}

std::size_t ClusterLocationService::movingObjects() const {
  std::lock_guard lock(spatialMutex_);
  return moving_.size();
}

bool ClusterLocationService::rebalanceOnce(double hotColdRatio, std::uint64_t minReadings) {
  mw::util::require(options_.partitioning == Partitioning::Spatial,
                    "ClusterLocationService::rebalanceOnce: spatial mode only");
  TerritoryMap map;
  std::unordered_map<std::uint32_t, std::uint64_t> heat;
  {
    std::lock_guard lock(spatialMutex_);
    map = territory_;
    heat = leafReadings_;
  }
  if (map.empty()) return false;
  auto leafLoad = [&heat](std::uint32_t id) {
    auto it = heat.find(id);
    return it == heat.end() ? std::uint64_t{0} : it->second;
  };
  // Owner loads from the router's own routed-readings heat map (an ordered
  // map so ties break deterministically by token).
  std::map<std::string, std::uint64_t> loadOf;
  for (const std::string& owner : map.owners()) loadOf[owner] = 0;
  for (const auto& leaf : map.leaves()) loadOf[leaf.owner] += leafLoad(leaf.id);
  if (loadOf.size() < 2) return false;
  std::string hotOwner;
  std::string coldOwner;
  std::uint64_t hotLoad = 0;
  std::uint64_t coldLoad = 0;
  for (const auto& [owner, load] : loadOf) {
    if (hotOwner.empty() || load > hotLoad) {
      hotOwner = owner;
      hotLoad = load;
    }
    if (coldOwner.empty() || load < coldLoad) {
      coldOwner = owner;
      coldLoad = load;
    }
  }
  // Balanced enough: not hot at all, or the spread is within the ratio.
  if (hotOwner == coldOwner || hotLoad < minReadings) return false;
  if (static_cast<double>(hotLoad) < hotColdRatio * static_cast<double>(coldLoad)) return false;
  // Split the hot owner's hottest leaf; its fresh high half goes cold.
  const TerritoryLeaf* hottest = nullptr;
  std::uint64_t hottestLoad = 0;
  for (const auto& leaf : map.leaves()) {
    if (leaf.owner != hotOwner) continue;
    if (!hottest || leafLoad(leaf.id) > hottestLoad) {
      hottest = &leaf;
      hottestLoad = leafLoad(leaf.id);
    }
  }
  if (!hottest) return false;
  TerritoryMap next;
  try {
    next = map.splitLeaf(hottest->id, coldOwner);
  } catch (const util::ContractError&) {
    return false;  // leaf too thin to split further
  }
  const TerritoryLeaf moved = next.leaves().back();  // the fresh high half
  if (!migrateObjects(hotOwner, coldOwner, {}, {moved.rect}, next)) return false;
  {
    // Reset both halves' heat: the decision spent it, and fresh traffic
    // should drive the next one.
    std::lock_guard lock(spatialMutex_);
    leafReadings_[hottest->id] = 0;
    leafReadings_[moved.id] = 0;
  }
  territorySplits_.fetch_add(1, std::memory_order_relaxed);
  util::logInfo("ClusterLocationService", "rebalance: split leaf ", hottest->id, " of ",
                hotOwner, " (load ", hotLoad, ") and moved half to ", coldOwner, " (load ",
                coldLoad, ")");
  return true;
}

void ClusterLocationService::startBalancer(std::chrono::milliseconds period, double hotColdRatio,
                                           std::uint64_t minReadings) {
  mw::util::require(options_.partitioning == Partitioning::Spatial,
                    "ClusterLocationService::startBalancer: spatial mode only");
  mw::util::require(period.count() > 0, "ClusterLocationService::startBalancer: period must be > 0");
  std::lock_guard lock(balancerMutex_);
  balancerRatio_ = hotColdRatio;
  balancerMinReadings_ = minReadings;
  balancerPeriod_ = period;
  if (balancerThread_.joinable()) return;  // running: parameters updated in place
  balancerStop_ = false;
  balancerThread_ = std::thread([this] {
    std::unique_lock lock(balancerMutex_);
    while (!balancerStop_) {
      const auto period = balancerPeriod_;
      if (balancerCv_.wait_for(lock, period, [this] { return balancerStop_; })) break;
      const double ratio = balancerRatio_;
      const std::uint64_t minReadings = balancerMinReadings_;
      // The pass runs outside balancerMutex_ so stopBalancer() (and
      // parameter updates) never wait behind a live migration.
      lock.unlock();
      try {
        rebalanceOnce(ratio, minReadings);
      } catch (const std::exception& e) {
        util::logWarn("ClusterLocationService", "balancer pass failed: ", e.what());
      }
      balancerPasses_.fetch_add(1, std::memory_order_relaxed);
      lock.lock();
    }
  });
}

void ClusterLocationService::stopBalancer() {
  std::thread worker;
  {
    std::lock_guard lock(balancerMutex_);
    if (!balancerThread_.joinable()) return;
    balancerStop_ = true;
    worker = std::move(balancerThread_);
  }
  balancerCv_.notify_all();
  worker.join();
}

bool ClusterLocationService::balancerRunning() const {
  std::lock_guard lock(balancerMutex_);
  return balancerThread_.joinable();
}

ClusterLocationService::~ClusterLocationService() { stopBalancer(); }

std::shared_ptr<core::RemoteLocationClient> ClusterLocationService::clientFor(Shard& shard) {
  std::shared_ptr<core::RemoteLocationClient> fresh;
  {
    std::lock_guard lock(shard.connectMutex);
    if (shard.client) return shard.client;
    if (!shard.endpoint) return nullptr;
    try {
      fresh = connectMember(*shard.endpoint, options_.retry.callDeadline);
      shard.client = fresh;
      shard.health.recordReconnect();
    } catch (const util::TransportError&) {
      return nullptr;
    }
  }
  // Outside the connect lock: a fresh connection carries none of the
  // cluster's subscriptions — replay them before traffic flows.
  replaySubscriptions(shard, *fresh);
  return fresh;
}

void ClusterLocationService::dropClient(Shard& shard) {
  {
    std::lock_guard lock(shard.connectMutex);
    shard.client.reset();
  }
  clearShardSubscriptions(shard);
}

void ClusterLocationService::clearShardSubscriptions(Shard& shard) {
  // The connection is gone, and with it every subscription registered on
  // it; zero the slots so the next reconnect replays them.
  std::lock_guard lock(subsMutex_);
  for (auto& [id, sub] : subs_) {
    std::uint64_t& slot = subSlot(sub->shardSubIds, shard.index);
    if (slot != kSubPending) slot = 0;
    if (sub->agg && slot == 0) {
      // The shard's count is unknowable until the replay re-registers and
      // seeds a fresh one; drop it silently (no callback churn) so the
      // fill-if-absent seed on reconnect takes.
      std::lock_guard aggLock(sub->agg->mutex);
      sub->agg->countOf.erase(shard.index);
    }
  }
}

template <typename R>
std::vector<std::optional<R>> ClusterLocationService::callShards(const std::vector<Shard*>& targets,
                                                                 const Attempt<R>& attempt) {
  std::vector<std::optional<R>> results(targets.size());
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (!targets[i]->health.down() || targets[i]->health.tryClaimProbe()) open.push_back(i);
  }
  std::exception_ptr callerError;
  // Runs one half of target i's attempt; false when it failed and may retry.
  auto settle = [&](std::size_t i, const auto& half) {
    try {
      half();
      return true;
    } catch (const util::TimeoutError&) {
      // Slow, not provably dead: keep the connection (a late reply is
      // discarded by the RpcClient), back off, retry.
      targets[i]->health.recordFailure(/*timedOut=*/true);
    } catch (const util::TransportError&) {
      // Connection gone: reconnect on the next attempt.
      targets[i]->health.recordFailure(/*timedOut=*/false);
      dropClient(*targets[i]);
    } catch (...) {
      // An Error reply: the shard is healthy and answered — the error
      // belongs to the caller, not the failure policy.
      if (!callerError) callerError = std::current_exception();
      return true;
    }
    return false;
  };
  struct Started {
    std::size_t index;
    std::shared_ptr<core::RemoteLocationClient> client;  ///< pinned until the reply is in
    Finish<R> finish;
  };
  const std::size_t rounds = 1 + options_.retry.maxRetries;
  for (std::size_t round = 0; round < rounds && !open.empty(); ++round) {
    if (round > 0) {
      for (std::size_t i : open) targets[i]->health.recordRetry();
      std::this_thread::sleep_for(options_.retry.backoffDelay(round - 1));
    }
    std::vector<Started> started;
    std::vector<std::size_t> failed;
    for (std::size_t i : open) {
      ShardHealth& health = targets[i]->health;
      auto client = clientFor(*targets[i]);
      if (!client) {
        health.recordFailure(/*timedOut=*/false);
        // Went down mid-budget: stop hammering it unless this is its probe.
        if (!health.down() || round + 1 == rounds || health.tryClaimProbe()) failed.push_back(i);
        continue;
      }
      health.recordCall();
      if (!settle(i, [&] { started.push_back({i, client, attempt(i, *client)}); })) {
        failed.push_back(i);
      }
    }
    const Deadline deadline = std::chrono::steady_clock::now() + options_.retry.callDeadline;
    for (Started& call : started) {
      const std::size_t i = call.index;
      if (!settle(i, [&] {
            results[i] = call.finish(deadline);
            targets[i]->health.recordSuccess();
          })) {
        failed.push_back(i);
      }
    }
    open = std::move(failed);
  }
  if (callerError) std::rethrow_exception(callerError);
  return results;
}

template <typename R>
std::optional<R> ClusterLocationService::callShard(
    Shard& shard, const std::function<R(core::RemoteLocationClient&)>& fn) {
  auto results = callShards<R>({&shard}, [&fn](std::size_t, core::RemoteLocationClient& client) {
    return Finish<R>([&fn, &client](Deadline) { return fn(client); });
  });
  return std::move(results.front());
}

void ClusterLocationService::probeDownShards() {
  auto topo = topology();
  std::vector<Shard*> down;
  for (const auto& shard : topo->members) {
    if (shard->health.down()) down.push_back(shard.get());
  }
  callShards<bool>(down, [](std::size_t, core::RemoteLocationClient& client) {
    return awaitReply(client, client.startPing(), acknowledged);
  });
}

// --- object-routed calls ------------------------------------------------------

void ClusterLocationService::ingest(const db::SensorReading& reading) {
  auto topo = topology();
  const geo::Point2 center = reading.rect().center();
  Route route = routeFor(*topo, reading.mobileObjectId, &center, /*ingestPath=*/true);
  auto ok = callShard<bool>(*route.target, [&](core::RemoteLocationClient& client) {
    client.ingest(reading);
    return true;
  });
  if (!ok) {
    failedRoutedCalls_.fetch_add(1, std::memory_order_relaxed);
    droppedIngestReadings_.fetch_add(1, std::memory_order_relaxed);
  }
  if (options_.partitioning == Partitioning::Spatial) {
    maybeMigrateAfterIngest(reading.mobileObjectId, center);
  }
}

void ClusterLocationService::ingestBatch(std::span<const db::SensorReading> readings) {
  if (readings.empty()) return;
  auto topo = topology();
  const bool spatial = options_.partitioning == Partitioning::Spatial;
  // Partition by target shard; a stable partition keeps each object's
  // readings in their original relative order inside its sub-batch. Spatial
  // mode also tracks each object's LAST evidence center: a batch is applied
  // entirely at the current homes first, then crossings migrate.
  std::vector<std::vector<db::SensorReading>> parts(topo->shards.size());
  std::vector<std::pair<util::MobileObjectId, geo::Point2>> lastCenter;
  std::unordered_map<util::MobileObjectId, std::size_t> lastCenterIndex;
  for (const auto& reading : readings) {
    const geo::Point2 center = reading.rect().center();
    Route route = routeFor(*topo, reading.mobileObjectId, &center, /*ingestPath=*/true);
    if (spatial) {
      auto [it, inserted] = lastCenterIndex.emplace(reading.mobileObjectId, lastCenter.size());
      if (inserted) {
        lastCenter.emplace_back(reading.mobileObjectId, center);
      } else {
        lastCenter[it->second].second = center;
      }
    }
    parts[route.target->index].push_back(reading);
  }
  std::vector<Shard*> targets;
  std::vector<std::vector<db::SensorReading>> batches;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (parts[i].empty()) continue;
    targets.push_back(topo->shards[i].get());
    batches.push_back(std::move(parts[i]));
  }
  // One sub-batch per shard, all in flight at once: each object's readings
  // sit in one sub-batch, so per-object order holds across the fan-out.
  auto acks = callShards<bool>(targets, [&](std::size_t i, core::RemoteLocationClient& client) {
    return awaitReply(client, client.startIngestBatch(batches[i]), acknowledged);
  });
  for (std::size_t i = 0; i < acks.size(); ++i) {
    if (acks[i]) continue;
    failedRoutedCalls_.fetch_add(1, std::memory_order_relaxed);
    droppedIngestReadings_.fetch_add(batches[i].size(), std::memory_order_relaxed);
  }
  for (const auto& [object, center] : lastCenter) maybeMigrateAfterIngest(object, center);
}

template <typename R>
R ClusterLocationService::routedRead(const util::MobileObjectId& object,
                                     const std::function<R(core::RemoteLocationClient&)>& fn,
                                     bool (*found)(const R&)) {
  auto topo = topology();
  Route route = routeFor(*topo, object, nullptr, /*ingestPath=*/false);
  auto result = callShard<R>(*route.target, fn);
  if (result && found(*result)) return *result;
  std::optional<R> fallback;
  if (route.fallback) {
    // Mid-move: the new owner has no evidence yet — the previous owner is
    // still authoritative for this object.
    fallback = callShard<R>(*route.fallback, fn);
    if (fallback && found(*fallback)) return *fallback;
  }
  if (!result && !fallback) failedRoutedCalls_.fetch_add(1, std::memory_order_relaxed);
  return R{};
}

std::optional<fusion::LocationEstimate> ClusterLocationService::locate(
    const util::MobileObjectId& object) {
  using Answer = std::optional<fusion::LocationEstimate>;
  return routedRead<Answer>(
      object, [&](core::RemoteLocationClient& client) { return client.locate(object); },
      [](const Answer& answer) { return answer.has_value(); });
}

std::string ClusterLocationService::locateSymbolic(const util::MobileObjectId& object) {
  return routedRead<std::string>(
      object, [&](core::RemoteLocationClient& client) { return client.locateSymbolic(object); },
      [](const std::string& answer) { return !answer.empty(); });
}

// --- scatter-gather -----------------------------------------------------------

double ClusterLocationService::probabilityInRegion(const util::MobileObjectId& object,
                                                   const geo::Rect& region) {
  auto topo = topology();
  if (options_.partitioning == Partitioning::Spatial) {
    // Object-homed, not region-scattered: the home shard holds the object's
    // whole log, so its fused answer IS the oracle's winning (evidence-
    // bearing) answer; no other shard could beat it. Unknown objects get
    // the bare prior, which every shard computes identically.
    targetedRegionQueries_.fetch_add(1, std::memory_order_relaxed);
    Route route = routeFor(*topo, object, nullptr, /*ingestPath=*/false);
    regionShardsQueried_.fetch_add(route.fallback ? 2 : 1, std::memory_order_relaxed);
    auto reply = callShard<core::RemoteLocationClient::RegionProbability>(
        *route.target, [&](core::RemoteLocationClient& client) {
          return client.probabilityInRegionEx(object, region);
        });
    if (reply && reply->hasEvidence) return reply->probability;
    if (route.fallback) {
      // Mid-migration: the new home may not hold the log yet.
      auto fallback = callShard<core::RemoteLocationClient::RegionProbability>(
          *route.fallback, [&](core::RemoteLocationClient& client) {
            return client.probabilityInRegionEx(object, region);
          });
      if (fallback && fallback->hasEvidence) return fallback->probability;
      if (!reply) reply = fallback;
    }
    if (!reply) {
      throw mw::util::TransportError(
          "ClusterLocationService::probabilityInRegion: no shard answered");
    }
    return reply->probability;  // no evidence anywhere: the bare prior
  }
  scatterGathers_.fetch_add(1, std::memory_order_relaxed);
  std::vector<Shard*> targets;
  for (const auto& shard : topo->members) targets.push_back(shard.get());
  using RegionProbability = core::RemoteLocationClient::RegionProbability;
  auto replies = callShards<RegionProbability>(
      targets, [&](std::size_t, core::RemoteLocationClient& client) {
        return awaitReply(client, client.startProbabilityInRegionEx(object, region),
                          &core::RemoteLocationClient::decodeProbabilityInRegionEx);
      });

  std::size_t answered = 0;
  bool anyEvidence = false;
  double best = 0;
  double bestPrior = 0;
  for (const auto& reply : replies) {
    if (!reply) continue;
    ++answered;
    if (reply->hasEvidence) {
      best = anyEvidence ? std::max(best, reply->probability) : reply->probability;
      anyEvidence = true;
    } else {
      bestPrior = std::max(bestPrior, reply->probability);
    }
  }
  if (answered == 0) {
    throw mw::util::TransportError(
        "ClusterLocationService::probabilityInRegion: no shard answered");
  }
  if (answered < topo->members.size()) degradedQueries_.fetch_add(1, std::memory_order_relaxed);
  // The owning shard's fused answer wins; with no evidence anywhere every
  // shard reported the same prior mass, so any of them is THE answer.
  return anyEvidence ? best : bestPrior;
}

ClusterLocationService::RegionQueryResult ClusterLocationService::objectsInRegionDetailed(
    const geo::Rect& region, double minProbability) {
  auto topo = topology();
  std::vector<Shard*> targets;
  if (options_.partitioning == Partitioning::Spatial && minProbability > 0) {
    // The payoff query: only the shards whose territory intersects the
    // slack-inflated region can home an object with evidence mass inside
    // it, so the scatter shrinks to that subset — O(intersecting shards).
    // minProbability <= 0 is a census (every shard's objects qualify at
    // probability 0) and falls through to the full scatter below.
    const geo::Rect inflated = region.inflated(options_.regionSlack);
    {
      std::lock_guard lock(spatialMutex_);
      for (const std::string& owner : territory_.ownersIntersecting(inflated)) {
        auto slot = topo->slotOf.find(owner);
        if (slot != topo->slotOf.end()) targets.push_back(topo->shards[slot->second].get());
      }
    }
    targetedRegionQueries_.fetch_add(1, std::memory_order_relaxed);
    regionShardsQueried_.fetch_add(targets.size(), std::memory_order_relaxed);
    if (targets.empty()) return RegionQueryResult{};  // region outside every territory
  } else {
    for (const auto& shard : topo->members) targets.push_back(shard.get());
    scatterGathers_.fetch_add(1, std::memory_order_relaxed);
  }
  using Members = core::RemoteLocationClient::Members;
  auto replies = callShards<Members>(targets, [&](std::size_t, core::RemoteLocationClient& client) {
    return awaitReply(client, client.startObjectsInRegion(region, minProbability),
                      &core::RemoteLocationClient::decodeObjectsInRegion);
  });

  RegionQueryResult result;
  // Objects are disjoint across shards by construction; the map guards the
  // transient overlap a stale topology could produce (keep the higher-
  // probability sighting).
  std::unordered_map<std::string, double> merged;
  for (const auto& reply : replies) {
    if (!reply) continue;
    ++result.shardsAnswered;
    for (const auto& [object, probability] : *reply) {
      auto [it, inserted] = merged.emplace(object.str(), probability);
      if (!inserted && probability > it->second) it->second = probability;
    }
  }
  if (result.shardsAnswered == 0) {
    throw mw::util::TransportError("ClusterLocationService::objectsInRegion: no shard answered");
  }
  result.degraded = result.shardsAnswered < targets.size();
  if (result.degraded) degradedQueries_.fetch_add(1, std::memory_order_relaxed);

  result.members.reserve(merged.size());
  for (auto& [object, probability] : merged) {
    result.members.emplace_back(util::MobileObjectId{object}, probability);
  }
  // The LocationService's own answer ordering: descending probability, ties
  // by id — so a healthy cluster's merge is byte-for-byte the oracle's.
  std::sort(result.members.begin(), result.members.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return result;
}

std::vector<std::pair<util::MobileObjectId, double>> ClusterLocationService::objectsInRegion(
    const geo::Rect& region, double minProbability) {
  return objectsInRegionDetailed(region, minProbability).members;
}

// --- push: cluster-wide subscriptions ----------------------------------------

util::SubscriptionId ClusterLocationService::subscribe(
    const geo::Rect& region, std::optional<util::MobileObjectId> subject, double threshold,
    std::function<void(const core::Notification&)> callback) {
  auto sub = std::make_shared<ClusterSub>();
  sub->region = region;
  sub->subject = std::move(subject);
  sub->threshold = threshold;
  sub->callback = std::move(callback);
  return fanOut(sub);
}

util::SubscriptionId ClusterLocationService::subscribeDensity(
    const geo::Rect& region, double minProbability, std::size_t limit,
    std::function<void(const core::DensityNotification&)> callback) {
  auto sub = std::make_shared<ClusterSub>();
  sub->region = region;
  sub->threshold = minProbability;
  sub->limit = limit;
  sub->densityCallback = std::move(callback);
  sub->agg = std::make_shared<DensityAgg>();
  return fanOut(sub);
}

util::SubscriptionId ClusterLocationService::fanOut(const std::shared_ptr<ClusterSub>& sub) {
  auto topo = topology();
  sub->shardSubIds.assign(topo->shards.size(), 0);
  util::SubscriptionId clusterId;
  {
    std::lock_guard lock(subsMutex_);
    clusterId = subIds_.next();
    subs_.emplace(clusterId.value(), sub);
  }
  for (const auto& shard : topo->members) {
    // Spatial mode: only shards whose territory intersects the region can
    // home an object triggering it; migration spills the subscription onto
    // shards that gain intersecting territory later.
    if (options_.partitioning == Partitioning::Spatial &&
        !territoryCovers(shard->token, sub->region)) {
      continue;
    }
    subscribeOnShard(*shard, clusterId, sub);
  }
  return clusterId;
}

void ClusterLocationService::reportDensityCount(ClusterSub& sub, util::SubscriptionId clusterId,
                                                std::size_t shardIndex, std::uint64_t count,
                                                bool seed, const util::MobileObjectId& object,
                                                util::TimePoint when) {
  core::DensityNotification out;
  bool fire = false;
  {
    std::lock_guard lock(sub.agg->mutex);
    if (seed) {
      // Fill-if-absent: a live notification that raced ahead of the
      // registration reply already reported a fresher count.
      if (!sub.agg->countOf.emplace(shardIndex, count).second) return;
    } else {
      sub.agg->countOf[shardIndex] = count;
    }
    std::uint64_t total = 0;
    for (const auto& [index, shardCount] : sub.agg->countOf) total += shardCount;
    const bool over = total >= sub.limit;
    if (over != sub.agg->lastOver) {
      out.edge = over ? cq::CountEdge::Rose : cq::CountEdge::Fell;
    }
    fire = total != sub.agg->lastTotal || out.edge != cq::CountEdge::None;
    sub.agg->lastTotal = total;
    sub.agg->lastOver = over;
    out.count = static_cast<std::size_t>(total);
  }
  if (!fire) return;
  out.id = clusterId;
  out.region = sub.region;
  out.limit = sub.limit;
  out.object = object;
  out.when = when;
  sub.densityCallback(out);
}

ClusterLocationService::Registration ClusterLocationService::registerOn(
    core::RemoteLocationClient& client, util::SubscriptionId clusterId,
    const std::shared_ptr<ClusterSub>& sub, std::size_t shardIndex) {
  if (sub->agg) {
    // The emit bridge captures the ClusterSub by shared_ptr: its density
    // fields (region, limit, callback, agg) are immutable after creation,
    // and the pin keeps the aggregation state alive past unsubscribe races.
    auto emit = [sub, clusterId, shardIndex](const core::DensityNotification& n) {
      reportDensityCount(*sub, clusterId, shardIndex, n.count, /*seed=*/false, n.object, n.when);
    };
    auto handle = client.subscribeDensity(sub->region, sub->threshold, sub->limit, emit);
    return {handle.id.value(), handle.initialCount};
  }
  auto emit = [callback = sub->callback, clusterId](const core::Notification& n) {
    core::Notification out = n;
    out.id = clusterId;  // one client-facing id, whichever shard matched
    callback(out);
  };
  return {client.subscribe(sub->region, sub->subject, sub->threshold, emit).value(), std::nullopt};
}

void ClusterLocationService::subscribeOnShard(Shard& shard, util::SubscriptionId clusterId,
                                              const std::shared_ptr<ClusterSub>& sub) {
  {
    // Claim the slot: either the initial fan-out or a reconnect replay
    // registers on a given shard, never both.
    std::lock_guard lock(subsMutex_);
    std::uint64_t& slot = subSlot(sub->shardSubIds, shard.index);
    if (slot != 0) return;
    slot = kSubPending;
  }
  auto registration = callShard<Registration>(shard, [&](core::RemoteLocationClient& client) {
    return registerOn(client, clusterId, sub, shard.index);
  });
  if (registration && registration->seed) {
    reportDensityCount(*sub, clusterId, shard.index, *registration->seed, /*seed=*/true,
                       util::MobileObjectId{}, util::TimePoint{});
  }
  std::unique_lock lock(subsMutex_);
  const bool live = subs_.contains(clusterId.value());
  subSlot(sub->shardSubIds, shard.index) = (registration && live) ? registration->id : 0;
  if (registration && !live) {
    // unsubscribe() won the race while registration was in flight; take the
    // orphan back down (best effort).
    lock.unlock();
    callShard<bool>(shard, [&](core::RemoteLocationClient& client) {
      return client.unsubscribe(util::SubscriptionId{registration->id});
    });
  }
}

void ClusterLocationService::replaySubscriptions(Shard& shard, core::RemoteLocationClient& client) {
  // Collect the subscriptions missing on this shard, then register each
  // directly on the fresh client (single attempt — a failure leaves the
  // slot empty for the next reconnect). Candidates are collected WITHOUT
  // claiming, coverage-filtered outside subsMutex_ (territoryCovers takes
  // spatialMutex_ and the two must not nest), then claimed one by one.
  const bool spatial = options_.partitioning == Partitioning::Spatial;
  std::vector<std::pair<util::SubscriptionId, std::shared_ptr<ClusterSub>>> candidates;
  {
    std::lock_guard lock(subsMutex_);
    for (auto& [id, sub] : subs_) {
      if (subSlot(sub->shardSubIds, shard.index) != 0) continue;
      candidates.emplace_back(util::SubscriptionId{id}, sub);
    }
  }
  std::vector<std::pair<util::SubscriptionId, std::shared_ptr<ClusterSub>>> missing;
  for (auto& [clusterId, sub] : candidates) {
    if (spatial && !territoryCovers(shard.token, sub->region)) continue;
    std::lock_guard lock(subsMutex_);
    std::uint64_t& slot = subSlot(sub->shardSubIds, shard.index);
    if (slot != 0) continue;  // a racing spill claimed it first
    slot = kSubPending;
    missing.emplace_back(clusterId, sub);
  }
  for (auto& [clusterId, sub] : missing) {
    Registration registration;
    try {
      registration = registerOn(client, clusterId, sub, shard.index);
    } catch (const util::TransportError&) {
      // Fresh connection already gone; the next reconnect replays again.
    }
    if (registration.seed) {
      reportDensityCount(*sub, clusterId, shard.index, *registration.seed, /*seed=*/true,
                         util::MobileObjectId{}, util::TimePoint{});
    }
    std::lock_guard lock(subsMutex_);
    subSlot(sub->shardSubIds, shard.index) =
        subs_.contains(clusterId.value()) ? registration.id : 0;
  }
}

bool ClusterLocationService::unsubscribe(util::SubscriptionId id) {
  std::shared_ptr<ClusterSub> sub;
  {
    std::lock_guard lock(subsMutex_);
    auto it = subs_.find(id.value());
    if (it == subs_.end()) return false;
    sub = it->second;
    subs_.erase(it);
  }
  auto topo = topology();
  for (const auto& shard : topo->shards) {
    std::uint64_t shardSubId;
    {
      std::lock_guard lock(subsMutex_);
      shardSubId = subSlot(sub->shardSubIds, shard->index);
    }
    if (shardSubId == 0 || shardSubId == kSubPending) continue;
    callShard<bool>(*shard, [&](core::RemoteLocationClient& client) {
      return client.unsubscribe(util::SubscriptionId{shardSubId});
    });
  }
  return true;
}

ClusterLocationService::Stats ClusterLocationService::stats() const {
  Stats stats;
  auto topo = topology();
  stats.shards.reserve(topo->shards.size());
  for (const auto& shard : topo->shards) {
    ShardStats s;
    {
      std::lock_guard lock(shard->connectMutex);
      s.announced = shard->endpoint.has_value();
    }
    s.down = shard->health.down();
    s.calls = shard->health.calls();
    s.failures = shard->health.failures();
    s.timeouts = shard->health.timeouts();
    s.retries = shard->health.retries();
    s.reconnects = shard->health.reconnects();
    stats.shards.push_back(s);
  }
  stats.scatterGathers = scatterGathers_.load(std::memory_order_relaxed);
  stats.degradedQueries = degradedQueries_.load(std::memory_order_relaxed);
  stats.failedRoutedCalls = failedRoutedCalls_.load(std::memory_order_relaxed);
  stats.droppedIngestReadings = droppedIngestReadings_.load(std::memory_order_relaxed);
  stats.targetedRegionQueries = targetedRegionQueries_.load(std::memory_order_relaxed);
  stats.regionShardsQueried = regionShardsQueried_.load(std::memory_order_relaxed);
  stats.objectMigrations = objectMigrations_.load(std::memory_order_relaxed);
  stats.territorySplits = territorySplits_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace mw::cluster

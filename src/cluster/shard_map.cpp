#include "cluster/shard_map.hpp"

#include <algorithm>

#include "orb/tcp.hpp"
#include "util/error.hpp"

namespace mw::cluster {

std::uint64_t mixHash64(std::string_view bytes) {
  // FNV-1a, 64-bit: platform-independent, unlike std::hash<std::string>.
  std::uint64_t x = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    x ^= static_cast<std::uint8_t>(c);
    x *= 0x100000001b3ULL;
  }
  // splitmix64 finalizer — the same mix the RpcServer applies to connection
  // keys — so short ids with shared prefixes still spread over every shard.
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

std::uint64_t objectRingKey(const util::MobileObjectId& object) {
  return mixHash64(object.str());
}

namespace {

const char* prefixOf(Partitioning kind) {
  return kind == Partitioning::Ring ? "location.ring." : "location.space.";
}

}  // namespace

std::string memberName(Partitioning kind, const std::string& token) {
  mw::util::require(!token.empty(), "memberName: empty token");
  return prefixOf(kind) + token;
}

std::optional<std::string> parseMemberName(Partitioning kind, const std::string& name) {
  const std::string_view prefix = prefixOf(kind);
  if (name.rfind(prefix, 0) != 0) return std::nullopt;
  std::string token = name.substr(prefix.size());
  if (token.empty()) return std::nullopt;
  // "location.<kind>.<token>.backup" is a member's standby (shard_host), not
  // a member: a router resolving it as one would route live traffic to a
  // shard that only mirrors.
  const std::string_view backup = ".backup";
  if (token.size() >= backup.size() &&
      std::string_view(token).substr(token.size() - backup.size()) == backup) {
    return std::nullopt;
  }
  return token;
}

std::optional<core::Endpoint> MemberMap::endpointOf(const std::string& token) const {
  const auto slot = std::lower_bound(tokens.begin(), tokens.end(), token);
  if (slot == tokens.end() || *slot != token) return std::nullopt;
  return endpoints[static_cast<std::size_t>(slot - tokens.begin())];
}

MemberMap resolveMembers(core::RegistryClient& registry, Partitioning kind) {
  MemberMap map;
  for (const std::string& name : registry.list()) {
    auto token = parseMemberName(kind, name);
    if (!token) continue;  // unrelated service sharing the registry
    map.tokens.push_back(std::move(*token));
  }
  std::sort(map.tokens.begin(), map.tokens.end());
  map.endpoints.reserve(map.tokens.size());
  for (const std::string& token : map.tokens) {
    map.endpoints.push_back(registry.lookup(memberName(kind, token)));
  }
  return map;
}

std::shared_ptr<core::RemoteLocationClient> connectMember(const core::Endpoint& endpoint,
                                                          util::Duration callTimeout) {
  auto rpc = std::make_shared<orb::RpcClient>(orb::tcpConnect(endpoint.host, endpoint.port));
  rpc->setCallTimeout(callTimeout);
  return std::make_shared<core::RemoteLocationClient>(std::move(rpc));
}

HashRing::HashRing(std::vector<std::string> members, std::size_t vnodes)
    : members_(std::move(members)), vnodes_(vnodes) {
  mw::util::require(vnodes_ > 0, "HashRing: vnodes must be positive");
  // Sorted-unique membership makes the ring a pure function of the member
  // *set* — two routers that resolve the same registry build the same ring.
  std::sort(members_.begin(), members_.end());
  members_.erase(std::unique(members_.begin(), members_.end()), members_.end());
  points_.reserve(members_.size() * vnodes_);
  for (std::uint32_t m = 0; m < members_.size(); ++m) {
    mw::util::require(!members_[m].empty(), "HashRing: empty member token");
    for (std::size_t v = 0; v < vnodes_; ++v) {
      points_.push_back({mixHash64(members_[m] + '#' + std::to_string(v)), m});
    }
  }
  std::sort(points_.begin(), points_.end(), [this](const Point& a, const Point& b) {
    // Tie-break colliding positions by token so ownership stays deterministic.
    if (a.pos != b.pos) return a.pos < b.pos;
    return members_[a.member] < members_[b.member];
  });
}

bool HashRing::hasMember(const std::string& token) const {
  return std::binary_search(members_.begin(), members_.end(), token);
}

const std::string& HashRing::ownerForKey(std::uint64_t key) const {
  mw::util::require(!points_.empty(), "HashRing::ownerForKey: empty ring");
  auto it = std::lower_bound(points_.begin(), points_.end(), key,
                             [](const Point& p, std::uint64_t k) { return p.pos < k; });
  if (it == points_.end()) it = points_.begin();  // wrap past the top
  return members_[it->member];
}

const std::string& HashRing::ownerForObject(const util::MobileObjectId& object) const {
  return ownerForKey(objectRingKey(object));
}

std::vector<RingArc> HashRing::arcsOf(const std::string& token) const {
  std::vector<RingArc> arcs;
  if (points_.empty()) return arcs;
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (members_[points_[i].member] != token) continue;
    // The arc a point owns runs from its predecessor (cyclically) to it.
    const std::uint64_t lo = points_[(i + points_.size() - 1) % points_.size()].pos;
    arcs.push_back({lo, points_[i].pos});
  }
  return arcs;
}

std::vector<HashRing::Claim> HashRing::claimsFor(const HashRing& before,
                                                 const HashRing& after,
                                                 const std::string& joiner) {
  std::vector<Claim> claims;
  for (const RingArc& arc : after.arcsOf(joiner)) {
    Claim claim;
    claim.arc = arc;
    // before ⊆ after means no before-point lies strictly inside this arc,
    // so every key in it had the same previous owner: the owner of the
    // first before-point at or after arc.hi.
    if (!before.empty()) {
      claim.loser = before.ownerForKey(arc.hi);
      if (claim.loser == joiner) continue;  // rejoin of an existing member
    }
    claims.push_back(std::move(claim));
  }
  return claims;
}

}  // namespace mw::cluster

// Member naming and object-hash partitioning for the location-service
// cluster.
//
// A cluster is a set of LocationService shard processes, each announced in
// the RegistryServer under "location.<kind>.<token>": "location.ring.<token>"
// for object-hash members, "location.space.<token>" for spatial members
// (territory_map.hpp). Membership IS the registry listing, so a router
// resolves the whole topology from a bare registry.list() (discovery-then-
// route, the Gaia Space Repository pattern of §7 stretched over the
// rendezvous-style service location of PAPERS.md), and a member set may
// change while the cluster runs.
//
// Object hashing: HashRing places `vnodes` points per member on a 64-bit
// circle (FNV-1a + splitmix64) and assigns each object to the first point at
// or after its key. A joining member takes only the arcs its points cut out
// of the existing ones — bounded movement, everyone else's objects stay put.
// A ring whose membership never changes is the fixed-width partition.
//
// Ordering invariant: the router sends every reading for object o to o's
// owner; inside the shard the RpcServer's "ingest" lane selector routes by
// hash(object) again. One object therefore flows through one connection
// into one executor lane into one reading-store stripe — per-object ordering
// holds end-to-end, so a sharded replay is byte-identical to a sequential
// one.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/remote.hpp"
#include "core/remote_registry.hpp"
#include "util/ids.hpp"

namespace mw::cluster {

/// How the cluster partitions objects among its members.
enum class Partitioning {
  Ring,     ///< consistent-hash ring over "location.ring.<token>" members
  Spatial,  ///< kd-split territory map over "location.space.<token>" members
};

/// "location.ring.<token>" or "location.space.<token>".
[[nodiscard]] std::string memberName(Partitioning kind, const std::string& token);

/// Inverse of memberName() for one kind; nullopt for other names (wrong
/// prefix, empty token, or a ".backup" standby announcement — standbys are
/// not members until they promote).
[[nodiscard]] std::optional<std::string> parseMemberName(Partitioning kind,
                                                         const std::string& name);

/// Announced members of one kind resolved from a live registry: tokens
/// sorted, endpoints parallel (nullopt when the entry expired between list
/// and lookup).
struct MemberMap {
  std::vector<std::string> tokens;
  std::vector<std::optional<core::Endpoint>> endpoints;

  /// The endpoint announced for `token`; nullopt when unlisted or expired.
  [[nodiscard]] std::optional<core::Endpoint> endpointOf(const std::string& token) const;
};

[[nodiscard]] MemberMap resolveMembers(core::RegistryClient& registry, Partitioning kind);

/// A TCP client for a member's service. Every call carries `callTimeout`.
/// Throws util::TransportError when the member does not accept.
[[nodiscard]] std::shared_ptr<core::RemoteLocationClient> connectMember(
    const core::Endpoint& endpoint, util::Duration callTimeout);

/// FNV-1a over the bytes, finished with the splitmix64 mix — the key and
/// ring-point hash. Exposed so tests can predict placement.
[[nodiscard]] std::uint64_t mixHash64(std::string_view bytes);

/// An object's position on the 64-bit ring (mixHash64 of its id).
[[nodiscard]] std::uint64_t objectRingKey(const util::MobileObjectId& object);

/// Half-open arc (lo, hi] on the 64-bit circle, wrapping through zero when
/// lo >= hi. lo == hi means the full circle (a single-point ring).
struct RingArc {
  std::uint64_t lo = 0;  ///< exclusive
  std::uint64_t hi = 0;  ///< inclusive

  [[nodiscard]] bool contains(std::uint64_t key) const noexcept {
    if (lo == hi) return true;
    if (lo < hi) return key > lo && key <= hi;
    return key > lo || key <= hi;  // wraps through zero
  }
  friend bool operator==(const RingArc&, const RingArc&) = default;
};

/// Does any of `arcs` contain `key`?
[[nodiscard]] inline bool arcsContain(std::span<const RingArc> arcs, std::uint64_t key) {
  return std::any_of(arcs.begin(), arcs.end(),
                     [key](const RingArc& arc) { return arc.contains(key); });
}

/// Consistent-hash ring: `vnodes` points per member token, each key owned
/// by the member of the first point at or after it (wrapping). Deterministic
/// across processes: same members => same ring, regardless of join order.
class HashRing {
 public:
  static constexpr std::size_t kDefaultVnodes = 64;

  HashRing() = default;
  explicit HashRing(std::vector<std::string> members, std::size_t vnodes = kDefaultVnodes);

  [[nodiscard]] bool empty() const noexcept { return points_.empty(); }
  [[nodiscard]] std::size_t vnodes() const noexcept { return vnodes_; }
  [[nodiscard]] const std::vector<std::string>& members() const noexcept { return members_; }
  [[nodiscard]] bool hasMember(const std::string& token) const;

  /// Owning member for a ring position / object. Throws util::ContractError
  /// on an empty ring.
  [[nodiscard]] const std::string& ownerForKey(std::uint64_t key) const;
  [[nodiscard]] const std::string& ownerForObject(const util::MobileObjectId& object) const;

  /// Every arc `token` owns, in ring order. Empty when not a member.
  [[nodiscard]] std::vector<RingArc> arcsOf(const std::string& token) const;

  /// One arc a joining member takes, plus who owned it before the join
  /// (empty loser when the old ring was empty — genesis, nothing to move).
  struct Claim {
    RingArc arc;
    std::string loser;
  };

  /// The arcs `joiner` owns in `after` that it did not own in `before`,
  /// each with its previous owner. Correct whenever before's members are a
  /// subset of after's (then no before-point lies strictly inside an
  /// after-arc, so each claimed arc had exactly one previous owner).
  [[nodiscard]] static std::vector<Claim> claimsFor(const HashRing& before,
                                                   const HashRing& after,
                                                   const std::string& joiner);

 private:
  struct Point {
    std::uint64_t pos = 0;
    std::uint32_t member = 0;  ///< index into members_
  };

  std::vector<std::string> members_;  ///< sorted, unique
  std::vector<Point> points_;         ///< sorted by pos
  std::size_t vnodes_ = kDefaultVnodes;
};

}  // namespace mw::cluster

// Spatial partitioning of the lattice's MBR space among cluster members.
//
// The object-hash ring (shard_map.hpp) spreads objects evenly but scatters
// every region query across all shards. A TerritoryMap instead
// carves the universe rectangle into kd-split leaves, each owned by one
// member: a region query touches only the owners whose leaves intersect it,
// and a reading is ingested by the owner of its evidence box — the
// zone-ownership model of "Towards a Scalable Dynamic Spatial Database
// System" with the query-to-owner routing of "Rendezvous Regions"
// (PAPERS.md).
//
// Determinism: uniform() is a pure function of (universe, member set) —
// members are sorted, the kd tree halves the space proportionally, so every
// router that resolves the same registry builds byte-identical leaf
// geometry. Mutations (splitLeaf, reassignLeaf) return a NEW map with the
// version bumped; the current map is published through the registry's
// versioned metadata (putMeta), so a stale balancer republishing an old
// split loses and every reader converges on the highest version.
//
// Point ownership is half-open: a leaf owns [lo, hi) on each axis, except
// along the universe's own upper edges, which stay inclusive. Leaves tile
// the universe exactly (split coordinates are shared bit-for-bit between
// the two halves), so every point in the universe has exactly one owner —
// the property ingest routing needs. Region intersection tests are the
// ordinary closed-set Rect::intersects: a conservative superset is fine for
// query fan-out, where the merge comparator absorbs duplicates.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "geometry/rect.hpp"
#include "util/bytes.hpp"

namespace mw::cluster {

/// One owned rectangle of the kd split. Ids are stable across splits: a
/// split keeps the original id on the low half and mints a fresh one for
/// the high half, so per-leaf load counters survive unrelated re-splits.
struct TerritoryLeaf {
  std::uint32_t id = 0;
  geo::Rect rect;
  std::string owner;

  friend bool operator==(const TerritoryLeaf&, const TerritoryLeaf&) = default;
};

class TerritoryMap {
 public:
  /// Empty map (version 0, no universe) — the state before any member
  /// published one.
  TerritoryMap() = default;

  /// The initial split: recursively halve `universe` along the long axis
  /// into exactly one equal-area leaf per member, members sorted first so
  /// the result is a pure function of the member *set*. Version 1.
  /// Throws util::ContractError on an empty universe or no members.
  [[nodiscard]] static TerritoryMap uniform(const geo::Rect& universe,
                                           std::vector<std::string> members);

  [[nodiscard]] bool empty() const noexcept { return leaves_.empty(); }
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }
  [[nodiscard]] const geo::Rect& universe() const noexcept { return universe_; }
  [[nodiscard]] const std::vector<TerritoryLeaf>& leaves() const noexcept { return leaves_; }
  [[nodiscard]] const TerritoryLeaf* leafById(std::uint32_t id) const;

  /// The unique leaf owning `p` (clamped into the universe first, so
  /// readings straying outside still route deterministically). Throws
  /// util::ContractError on an empty map.
  [[nodiscard]] const TerritoryLeaf& leafForPoint(geo::Point2 p) const;
  [[nodiscard]] const std::string& ownerForPoint(geo::Point2 p) const;

  /// Sorted, unique owners whose leaves intersect `region` (closed-set
  /// test — a conservative superset of the owners that can answer).
  [[nodiscard]] std::vector<std::string> ownersIntersecting(const geo::Rect& region) const;

  /// Every owner appearing in the map, sorted and unique.
  [[nodiscard]] std::vector<std::string> owners() const;

  /// Every leaf owned by `owner`, in leaf order.
  [[nodiscard]] std::vector<TerritoryLeaf> leavesOf(const std::string& owner) const;

  /// A new map (version + 1) with leaf `id` halved along its long axis:
  /// the low half keeps the id and owner, the high half gets a fresh id
  /// owned by `newOwner`. Throws util::ContractError when the leaf does
  /// not exist or is too thin to split.
  [[nodiscard]] TerritoryMap splitLeaf(std::uint32_t id, const std::string& newOwner) const;

  /// A new map (version + 1) with leaf `id` handed to `newOwner`.
  [[nodiscard]] TerritoryMap reassignLeaf(std::uint32_t id, const std::string& newOwner) const;

  /// The inverse of splitLeaf — re-coarsening after load subsides, so splits
  /// do not accumulate forever. The two leaves must tile an exact rectangle
  /// (they share one full edge — the shape every kd split produces); the
  /// merged leaf keeps `keepId`'s id and owner and `dropId` disappears.
  /// Version + 1. Throws util::ContractError on unknown ids or when the
  /// union is not a rectangle.
  [[nodiscard]] TerritoryMap mergeLeaves(std::uint32_t keepId, std::uint32_t dropId) const;

  /// A leaf whose rect forms an exact rectangle with `id`'s (a mergeLeaves
  /// candidate), preferring one with the same owner; nullopt when no
  /// neighbour tiles cleanly. The balancer uses this to pick re-coarsening
  /// pairs without re-deriving kd-tree structure.
  [[nodiscard]] std::optional<std::uint32_t> mergeableSibling(std::uint32_t id) const;

  /// Wire format for the registry's versioned metadata.
  [[nodiscard]] util::Bytes encode() const;
  [[nodiscard]] static TerritoryMap decode(const util::Bytes& bytes);

  friend bool operator==(const TerritoryMap&, const TerritoryMap&) = default;

 private:
  /// Half-open containment against the universe's upper edges.
  [[nodiscard]] bool leafContains(const TerritoryLeaf& leaf, geo::Point2 p) const;

  std::uint64_t version_ = 0;
  std::uint32_t nextId_ = 0;
  geo::Rect universe_;
  std::vector<TerritoryLeaf> leaves_;
};

/// Registry metadata key the current territory map is published under.
inline constexpr const char* kTerritoryMetaName = "location.territory";

}  // namespace mw::cluster

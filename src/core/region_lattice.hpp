// The symbolic-region lattice (§4.5).
//
// "In order to give location information as a symbolic region, the Location
// Service maintains a lattice of all symbolic regions. This includes rooms,
// corridors and other building structures. In addition, other symbolic
// locations can be defined such as 'East wing of the building' or 'work
// region inside a room'. The lattice representation also allows
// incorporating privacy constraints that specify that a user's location can
// only be revealed upto a certain granularity."
//
// Nodes are named regions (GLOB string + universe-frame MBR + properties);
// the order is rectangle containment, maintained as a Hasse diagram by the
// fusion lattice's builder (lattice/hasse.hpp), but keyed by name.
#pragma once

#include <atomic>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "geometry/rect.hpp"

namespace mw::core {

class RegionLattice {
 public:
  struct Node {
    std::string glob;  ///< full symbolic name, e.g. "SC/3/3216" or "SC/EastWing"
    geo::Rect rect;    ///< universe frame
    std::unordered_map<std::string, std::string> properties;
    std::vector<std::size_t> parents;   ///< immediate covers (containing regions)
    std::vector<std::size_t> children;  ///< immediately contained regions
    /// Longest containment chain from a root to this node (roots = 0);
    /// the granularity level privacy constraints count in.
    std::size_t depth = 0;
  };

  RegionLattice() = default;

  // Movable but not copyable; the refresh mutex stays with each instance.
  // Moves, like `add`, are configuration-time: never concurrent with reads.
  RegionLattice(RegionLattice&& other) noexcept
      : nodes_(std::move(other.nodes_)),
        byName_(std::move(other.byName_)),
        dirty_(other.dirty_.load(std::memory_order_relaxed)) {}
  RegionLattice& operator=(RegionLattice&& other) noexcept {
    nodes_ = std::move(other.nodes_);
    byName_ = std::move(other.byName_);
    dirty_.store(other.dirty_.load(std::memory_order_relaxed), std::memory_order_relaxed);
    return *this;
  }
  RegionLattice(const RegionLattice&) = delete;
  RegionLattice& operator=(const RegionLattice&) = delete;

  /// Adds a named region. Throws ContractError on duplicate names or empty
  /// rects.
  std::size_t add(const std::string& glob, const geo::Rect& rect,
                  std::unordered_map<std::string, std::string> properties = {});

  /// Drops every region; the lattice is empty and clean afterwards. Like
  /// `add`, must be externally serialized against concurrent reads.
  void clear();

  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] const Node& node(std::size_t index) const;
  [[nodiscard]] std::optional<std::size_t> find(const std::string& glob) const;

  /// The smallest (by area) region containing the point, if any.
  [[nodiscard]] std::optional<std::size_t> smallestAt(geo::Point2 p) const;

  /// The containment chain at a point, outermost first (e.g. building,
  /// floor, wing, room, work-area). Empty when no region contains p.
  [[nodiscard]] std::vector<std::size_t> chainAt(geo::Point2 p) const;

  /// The most specific region at `p` whose depth does not exceed
  /// `maxDepth` — the §4.5 privacy-granularity cut.
  [[nodiscard]] std::optional<std::size_t> atGranularity(geo::Point2 p,
                                                         std::size_t maxDepth) const;

  /// Recomputes Hasse edges and depths; called lazily by the accessors.
  /// Safe to race from concurrent const readers (e.g. dispatcher lanes
  /// serving locateSymbolic): the rebuild is serialized and publishes via
  /// `dirty_`. Mutation (`add`) must still be externally serialized against
  /// reads — it is a configuration-time operation.
  void refreshEdges() const;

 private:
  mutable std::vector<Node> nodes_;
  std::unordered_map<std::string, std::size_t> byName_;
  mutable std::mutex refreshMutex_;
  mutable std::atomic<bool> dirty_{false};
};

}  // namespace mw::core

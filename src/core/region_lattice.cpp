#include "core/region_lattice.hpp"

#include <algorithm>

#include "lattice/hasse.hpp"
#include "util/error.hpp"

namespace mw::core {

using mw::util::require;

std::size_t RegionLattice::add(const std::string& glob, const geo::Rect& rect,
                               std::unordered_map<std::string, std::string> properties) {
  require(!glob.empty(), "RegionLattice::add: empty name");
  require(!rect.empty() && rect.area() > 0, "RegionLattice::add: empty rect");
  require(!byName_.contains(glob), "RegionLattice::add: duplicate region " + glob);
  std::size_t index = nodes_.size();
  nodes_.push_back(Node{glob, rect, std::move(properties), {}, {}, 0});
  byName_.emplace(glob, index);
  dirty_.store(true, std::memory_order_release);
  return index;
}

void RegionLattice::clear() {
  nodes_.clear();
  byName_.clear();
  dirty_.store(false, std::memory_order_release);
}

const RegionLattice::Node& RegionLattice::node(std::size_t index) const {
  require(index < nodes_.size(), "RegionLattice::node: index out of range");
  refreshEdges();
  return nodes_[index];
}

std::optional<std::size_t> RegionLattice::find(const std::string& glob) const {
  auto it = byName_.find(glob);
  if (it == byName_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::size_t> RegionLattice::smallestAt(geo::Point2 p) const {
  std::optional<std::size_t> best;
  double bestArea = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i].rect.contains(p)) continue;
    double area = nodes_[i].rect.area();
    if (!best || area < bestArea) {
      best = i;
      bestArea = area;
    }
  }
  return best;
}

std::vector<std::size_t> RegionLattice::chainAt(geo::Point2 p) const {
  refreshEdges();
  std::vector<std::size_t> chain;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].rect.contains(p)) chain.push_back(i);
  }
  // Outermost first: sort by depth, then by area descending for stability.
  std::sort(chain.begin(), chain.end(), [&](std::size_t a, std::size_t b) {
    if (nodes_[a].depth != nodes_[b].depth) return nodes_[a].depth < nodes_[b].depth;
    return nodes_[a].rect.area() > nodes_[b].rect.area();
  });
  return chain;
}

std::optional<std::size_t> RegionLattice::atGranularity(geo::Point2 p,
                                                        std::size_t maxDepth) const {
  auto chain = chainAt(p);
  std::optional<std::size_t> best;
  for (std::size_t i : chain) {
    if (nodes_[i].depth <= maxDepth) best = i;  // chain is outermost-first
  }
  return best;
}

void RegionLattice::refreshEdges() const {
  // Double-checked: the relaxed fast path sees either a fully published
  // rebuild (acquire below pairs with the release store) or takes the lock.
  if (!dirty_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(refreshMutex_);
  if (!dirty_.load(std::memory_order_relaxed)) return;
  // Depths: longest chain from a root, in area order (parents first).
  for (std::size_t idx : lattice::buildHasse(nodes_)) {
    std::size_t depth = 0;
    for (std::size_t p : nodes_[idx].parents) depth = std::max(depth, nodes_[p].depth + 1);
    nodes_[idx].depth = depth;
  }
  dirty_.store(false, std::memory_order_release);
}

}  // namespace mw::core

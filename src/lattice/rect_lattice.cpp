#include "lattice/rect_lattice.hpp"

#include "lattice/hasse.hpp"
#include "util/error.hpp"

namespace mw::lattice {

using mw::util::ContractError;
using mw::util::require;

RectLattice::RectLattice(geo::Rect universe) {
  require(!universe.empty() && universe.area() > 0,
          "RectLattice: universe must have positive area");
  nodes_.push_back(Node{universe, "Top", false, {}, {}, {}});
}

std::size_t RectLattice::addNode(const geo::Rect& r, std::string label, bool isSource) {
  nodes_.push_back(Node{r, std::move(label), isSource, {}, {}, {}});
  edgesDirty_ = true;
  return nodes_.size() - 1;
}

std::size_t RectLattice::find(const geo::Rect& r) const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (geo::approxEqual(nodes_[i].rect, r)) return i;
  }
  return nodes_.size();
}

std::size_t RectLattice::insert(const geo::Rect& r, std::string label) {
  auto clipped = universe().intersection(r);
  require(clipped.has_value() && clipped->area() > 0,
          "RectLattice::insert: rect does not overlap the universe");

  std::size_t existing = find(*clipped);
  if (existing != nodes_.size()) {
    // Region already present (e.g. two sensors reporting the same room):
    // promote it to a source node.
    nodes_[existing].isSource = true;
    if (!label.empty()) {
      if (!nodes_[existing].label.empty() && existing != kTop) {
        nodes_[existing].label += "+" + label;
      } else if (existing != kTop) {
        nodes_[existing].label = std::move(label);
      }
    }
    edgesDirty_ = true;
    return existing;
  }

  std::size_t idx = addNode(*clipped, std::move(label), true);
  closeUnderIntersection(idx);
  return idx;
}

void RectLattice::closeUnderIntersection(std::size_t newIndex) {
  // Breadth-first closure: intersect every new node against every other
  // node until no new region appears. Top is skipped (every rect intersects
  // it trivially, producing itself).
  std::vector<std::size_t> frontier{newIndex};
  while (!frontier.empty()) {
    std::vector<std::size_t> next;
    for (std::size_t a : frontier) {
      // nodes_ may grow inside the loop; snapshot the size first.
      const std::size_t count = nodes_.size();
      for (std::size_t b = 1; b < count; ++b) {
        if (b == a) continue;
        auto inter = nodes_[a].rect.intersection(nodes_[b].rect);
        if (!inter || inter->area() <= 0) continue;
        if (find(*inter) != nodes_.size()) continue;  // already represented
        next.push_back(addNode(*inter, "", false));
      }
    }
    frontier = std::move(next);
  }
}

void RectLattice::removeSource(std::size_t sourceIndex) {
  if (sourceIndex == kTop || sourceIndex >= nodes_.size() || !nodes_[sourceIndex].isSource) {
    return;
  }
  // Collect the surviving sources and rebuild — removal can delete derived
  // intersection nodes and merge labels, and a rebuild is simple and
  // obviously correct for the small lattices fusion works with.
  struct Source {
    geo::Rect rect;
    std::string label;
  };
  std::vector<Source> survivors;
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    if (i != sourceIndex && nodes_[i].isSource) {
      survivors.push_back({nodes_[i].rect, nodes_[i].label});
    }
  }
  geo::Rect u = universe();
  nodes_.clear();
  nodes_.push_back(Node{u, "Top", false, {}, {}, {}});
  for (auto& s : survivors) insert(s.rect, std::move(s.label));
  edgesDirty_ = true;
}

const RectLattice::Node& RectLattice::node(std::size_t index) const {
  require(index < nodes_.size(), "RectLattice::node: index out of range");
  refreshEdges();
  return nodes_[index];
}

std::vector<std::size_t> RectLattice::sources() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    if (nodes_[i].isSource) out.push_back(i);
  }
  return out;
}

std::vector<std::size_t> RectLattice::bottomParents() const {
  refreshEdges();
  std::vector<std::size_t> out;
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    if (nodes_[i].children.empty()) out.push_back(i);
  }
  if (out.empty()) out.push_back(kTop);  // lattice with no sources
  return out;
}

void RectLattice::refreshEdges() const {
  if (!edgesDirty_) return;
  const std::vector<std::size_t> order = buildHasse(nodes_);
  // Contributors: the sources whose rects contain a node, larger first, a
  // source node itself last.
  for (auto& node : nodes_) node.contributors.clear();
  for (std::size_t ai = 0; ai < order.size(); ++ai) {
    const std::size_t a = order[ai];
    if (!nodes_[a].isSource) continue;
    for (std::size_t bi = ai + 1; bi < order.size(); ++bi) {
      const std::size_t b = order[bi];
      if (nodes_[a].rect.contains(nodes_[b].rect)) nodes_[b].contributors.push_back(a);
    }
    nodes_[a].contributors.push_back(a);
  }
  edgesDirty_ = false;
}

}  // namespace mw::lattice

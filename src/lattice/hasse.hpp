// The Hasse diagram of rectangle containment, shared by the fusion lattice
// (RectLattice) and the symbolic-region lattice (core::RegionLattice).
#pragma once

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <vector>

#include "geometry/rect.hpp"

namespace mw::lattice {

/// Rebuilds every node's immediate-cover edges under containment of
/// `Node::rect`: `parents` contain the node with nothing in between,
/// `children` are the nodes it immediately contains. Approx-equal rects are
/// neither parent nor child of each other; they share their covers.
/// Returns the node indices by area, largest first — a topological order,
/// since containment only runs from larger to smaller.
template <typename Node>
std::vector<std::size_t> buildHasse(std::vector<Node>& nodes) {
  const std::size_t n = nodes.size();
  for (auto& node : nodes) {
    node.parents.clear();
    node.children.clear();
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return nodes[a].rect.area() > nodes[b].rect.area();
  });
  for (std::size_t ai = 0; ai < n; ++ai) {
    const geo::Rect& a = nodes[order[ai]].rect;
    for (std::size_t bi = ai + 1; bi < n; ++bi) {
      const geo::Rect& b = nodes[order[bi]].rect;
      if (!a.contains(b) || geo::approxEqual(a, b)) continue;
      // a contains b; it is an immediate cover iff no c with a ⊃ c ⊃ b.
      bool immediate = true;
      for (std::size_t ci = ai + 1; ci < bi && immediate; ++ci) {
        const geo::Rect& c = nodes[order[ci]].rect;
        immediate = !(a.contains(c) && c.contains(b) && !geo::approxEqual(c, a) &&
                      !geo::approxEqual(c, b));
      }
      if (immediate) {
        nodes[order[ai]].children.push_back(order[bi]);
        nodes[order[bi]].parents.push_back(order[ai]);
      }
    }
  }
  return order;
}

}  // namespace mw::lattice

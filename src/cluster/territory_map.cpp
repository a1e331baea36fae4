#include "cluster/territory_map.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace mw::cluster {

using util::ByteReader;
using util::Bytes;
using util::ByteWriter;

namespace {

void encodeRect(ByteWriter& w, const geo::Rect& r) {
  w.f64(r.lo().x);
  w.f64(r.lo().y);
  w.f64(r.hi().x);
  w.f64(r.hi().y);
}

geo::Rect decodeRect(ByteReader& r) {
  const double lox = r.f64();
  const double loy = r.f64();
  const double hix = r.f64();
  const double hiy = r.f64();
  // fromCorners normalizes, which would turn the empty sentinel into a real
  // rect; decode empty back to the canonical empty instead.
  if (lox > hix || loy > hiy) return geo::Rect();
  return geo::Rect::fromCorners({lox, loy}, {hix, hiy});
}

/// Recursively halves `rect` into `count` equal-area leaves, assigning the
/// sorted members [first, first+count) in order. Splits along the long axis,
/// proportionally (count is odd at interior nodes), so the tree is balanced
/// and deterministic.
void buildUniform(const geo::Rect& rect, const std::vector<std::string>& members,
                  std::size_t first, std::size_t count, std::uint32_t& nextId,
                  std::vector<TerritoryLeaf>& out) {
  if (count == 1) {
    out.push_back({nextId++, rect, members[first]});
    return;
  }
  const std::size_t loCount = (count + 1) / 2;
  const double frac = static_cast<double>(loCount) / static_cast<double>(count);
  geo::Rect lo;
  geo::Rect hi;
  if (rect.width() >= rect.height()) {
    const double cut = rect.lo().x + rect.width() * frac;
    lo = geo::Rect::fromCorners(rect.lo(), {cut, rect.hi().y});
    hi = geo::Rect::fromCorners({cut, rect.lo().y}, rect.hi());
  } else {
    const double cut = rect.lo().y + rect.height() * frac;
    lo = geo::Rect::fromCorners(rect.lo(), {rect.hi().x, cut});
    hi = geo::Rect::fromCorners({rect.lo().x, cut}, rect.hi());
  }
  buildUniform(lo, members, first, loCount, nextId, out);
  buildUniform(hi, members, first + loCount, count - loCount, nextId, out);
}

}  // namespace

TerritoryMap TerritoryMap::uniform(const geo::Rect& universe,
                                   std::vector<std::string> members) {
  mw::util::require(!universe.empty(), "TerritoryMap::uniform: empty universe");
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  mw::util::require(!members.empty(), "TerritoryMap::uniform: no members");
  for (const auto& m : members) {
    mw::util::require(!m.empty(), "TerritoryMap::uniform: empty member token");
  }
  TerritoryMap map;
  map.version_ = 1;
  map.universe_ = universe;
  buildUniform(universe, members, 0, members.size(), map.nextId_, map.leaves_);
  return map;
}

const TerritoryLeaf* TerritoryMap::leafById(std::uint32_t id) const {
  for (const auto& leaf : leaves_) {
    if (leaf.id == id) return &leaf;
  }
  return nullptr;
}

bool TerritoryMap::leafContains(const TerritoryLeaf& leaf, geo::Point2 p) const {
  const geo::Rect& r = leaf.rect;
  if (p.x < r.lo().x || p.y < r.lo().y) return false;
  // Half-open upper edges, EXCEPT where the leaf's edge is the universe's
  // own edge — there the closed universe would otherwise lose its boundary.
  const bool xOk = p.x < r.hi().x || (r.hi().x == universe_.hi().x && p.x <= r.hi().x);
  const bool yOk = p.y < r.hi().y || (r.hi().y == universe_.hi().y && p.y <= r.hi().y);
  return xOk && yOk;
}

const TerritoryLeaf& TerritoryMap::leafForPoint(geo::Point2 p) const {
  mw::util::require(!leaves_.empty(), "TerritoryMap::leafForPoint: empty map");
  p.x = std::clamp(p.x, universe_.lo().x, universe_.hi().x);
  p.y = std::clamp(p.y, universe_.lo().y, universe_.hi().y);
  for (const auto& leaf : leaves_) {
    if (leafContains(leaf, p)) return leaf;
  }
  // Unreachable while the leaves tile the universe; fail loudly if a decode
  // ever produces a gapped map rather than routing arbitrarily.
  throw mw::util::ContractError("TerritoryMap::leafForPoint: point in no leaf");
}

const std::string& TerritoryMap::ownerForPoint(geo::Point2 p) const {
  return leafForPoint(p).owner;
}

std::vector<std::string> TerritoryMap::ownersIntersecting(const geo::Rect& region) const {
  std::vector<std::string> out;
  for (const auto& leaf : leaves_) {
    if (leaf.rect.intersects(region)) out.push_back(leaf.owner);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<std::string> TerritoryMap::owners() const {
  std::vector<std::string> out;
  out.reserve(leaves_.size());
  for (const auto& leaf : leaves_) out.push_back(leaf.owner);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<TerritoryLeaf> TerritoryMap::leavesOf(const std::string& owner) const {
  std::vector<TerritoryLeaf> out;
  for (const auto& leaf : leaves_) {
    if (leaf.owner == owner) out.push_back(leaf);
  }
  return out;
}

TerritoryMap TerritoryMap::splitLeaf(std::uint32_t id, const std::string& newOwner) const {
  mw::util::require(!newOwner.empty(), "TerritoryMap::splitLeaf: empty owner");
  TerritoryMap next = *this;
  next.version_ = version_ + 1;
  for (auto& leaf : next.leaves_) {
    if (leaf.id != id) continue;
    const geo::Rect rect = leaf.rect;
    mw::util::require(rect.width() > 0 || rect.height() > 0,
                      "TerritoryMap::splitLeaf: leaf too thin to split");
    geo::Rect lo;
    geo::Rect hi;
    if (rect.width() >= rect.height()) {
      const double cut = rect.lo().x + rect.width() / 2;
      lo = geo::Rect::fromCorners(rect.lo(), {cut, rect.hi().y});
      hi = geo::Rect::fromCorners({cut, rect.lo().y}, rect.hi());
    } else {
      const double cut = rect.lo().y + rect.height() / 2;
      lo = geo::Rect::fromCorners(rect.lo(), {rect.hi().x, cut});
      hi = geo::Rect::fromCorners({rect.lo().x, cut}, rect.hi());
    }
    leaf.rect = lo;
    next.leaves_.push_back({next.nextId_++, hi, newOwner});
    return next;
  }
  throw mw::util::ContractError("TerritoryMap::splitLeaf: no leaf " + std::to_string(id));
}

namespace {

/// True when a ∪ b is an exact rectangle: the rects share one full edge
/// bit-for-bit (the only adjacency kd splits produce, and the only one whose
/// merge loses no territory and gains none).
bool tilesRectangle(const geo::Rect& a, const geo::Rect& b) {
  const bool sameY = a.lo().y == b.lo().y && a.hi().y == b.hi().y;
  const bool sameX = a.lo().x == b.lo().x && a.hi().x == b.hi().x;
  if (sameY && (a.hi().x == b.lo().x || b.hi().x == a.lo().x)) return true;
  if (sameX && (a.hi().y == b.lo().y || b.hi().y == a.lo().y)) return true;
  return false;
}

}  // namespace

TerritoryMap TerritoryMap::mergeLeaves(std::uint32_t keepId, std::uint32_t dropId) const {
  mw::util::require(keepId != dropId, "TerritoryMap::mergeLeaves: a leaf cannot merge with itself");
  const TerritoryLeaf* keep = leafById(keepId);
  const TerritoryLeaf* drop = leafById(dropId);
  mw::util::require(keep != nullptr, "TerritoryMap::mergeLeaves: no leaf " + std::to_string(keepId));
  mw::util::require(drop != nullptr, "TerritoryMap::mergeLeaves: no leaf " + std::to_string(dropId));
  mw::util::require(tilesRectangle(keep->rect, drop->rect),
                    "TerritoryMap::mergeLeaves: leaves do not tile a rectangle");
  TerritoryMap next = *this;
  next.version_ = version_ + 1;
  const geo::Rect merged = keep->rect.unionWith(drop->rect);
  std::erase_if(next.leaves_, [dropId](const TerritoryLeaf& l) { return l.id == dropId; });
  for (auto& leaf : next.leaves_) {
    if (leaf.id == keepId) leaf.rect = merged;
  }
  return next;
}

std::optional<std::uint32_t> TerritoryMap::mergeableSibling(std::uint32_t id) const {
  const TerritoryLeaf* leaf = leafById(id);
  if (leaf == nullptr) return std::nullopt;
  std::optional<std::uint32_t> fallback;
  for (const auto& other : leaves_) {
    if (other.id == id || !tilesRectangle(leaf->rect, other.rect)) continue;
    if (other.owner == leaf->owner) return other.id;  // same-owner merge: no data moves
    if (!fallback) fallback = other.id;
  }
  return fallback;
}

TerritoryMap TerritoryMap::reassignLeaf(std::uint32_t id, const std::string& newOwner) const {
  mw::util::require(!newOwner.empty(), "TerritoryMap::reassignLeaf: empty owner");
  TerritoryMap next = *this;
  next.version_ = version_ + 1;
  for (auto& leaf : next.leaves_) {
    if (leaf.id != id) continue;
    leaf.owner = newOwner;
    return next;
  }
  throw mw::util::ContractError("TerritoryMap::reassignLeaf: no leaf " + std::to_string(id));
}

util::Bytes TerritoryMap::encode() const {
  ByteWriter w;
  w.u64(version_);
  w.u32(nextId_);
  encodeRect(w, universe_);
  w.u32(static_cast<std::uint32_t>(leaves_.size()));
  for (const auto& leaf : leaves_) {
    w.u32(leaf.id);
    encodeRect(w, leaf.rect);
    w.str(leaf.owner);
  }
  return w.take();
}

TerritoryMap TerritoryMap::decode(const util::Bytes& bytes) {
  ByteReader r(bytes);
  TerritoryMap map;
  map.version_ = r.u64();
  map.nextId_ = r.u32();
  map.universe_ = decodeRect(r);
  const std::uint32_t n = r.u32();
  map.leaves_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    TerritoryLeaf leaf;
    leaf.id = r.u32();
    leaf.rect = decodeRect(r);
    leaf.owner = r.str();
    map.leaves_.push_back(std::move(leaf));
  }
  return map;
}

}  // namespace mw::cluster

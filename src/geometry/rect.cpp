#include "geometry/rect.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace mw::geo {

Rect Rect::fromCorners(Point2 a, Point2 b) {
  return Rect{{std::min(a.x, b.x), std::min(a.y, b.y)}, {std::max(a.x, b.x), std::max(a.y, b.y)}};
}

Rect Rect::fromOrigin(Point2 lo, double w, double h) {
  mw::util::require(w >= 0 && h >= 0, "Rect::fromOrigin: negative extent");
  return Rect{lo, {lo.x + w, lo.y + h}};
}

Rect Rect::centeredSquare(Point2 c, double r) {
  mw::util::require(r >= 0, "Rect::centeredSquare: negative radius");
  return Rect{{c.x - r, c.y - r}, {c.x + r, c.y + r}};
}

Point2 Rect::center() const { return {(lo_.x + hi_.x) / 2, (lo_.y + hi_.y) / 2}; }

bool Rect::contains(Point2 p) const {
  return !empty() && p.x >= lo_.x && p.x <= hi_.x && p.y >= lo_.y && p.y <= hi_.y;
}

bool Rect::contains(const Rect& other) const {
  if (other.empty()) return true;  // empty set is a subset of anything
  return !empty() && other.lo_.x >= lo_.x && other.hi_.x <= hi_.x && other.lo_.y >= lo_.y &&
         other.hi_.y <= hi_.y;
}

bool Rect::containsStrictly(const Rect& other) const {
  if (other.empty() || empty()) return false;
  return other.lo_.x > lo_.x && other.hi_.x < hi_.x && other.lo_.y > lo_.y && other.hi_.y < hi_.y;
}

bool Rect::overlapsInterior(const Rect& other) const {
  if (empty() || other.empty()) return false;
  return lo_.x < other.hi_.x && other.lo_.x < hi_.x && lo_.y < other.hi_.y && other.lo_.y < hi_.y;
}

std::optional<Rect> Rect::intersection(const Rect& other) const {
  if (!intersects(other)) return std::nullopt;
  return Rect{{std::max(lo_.x, other.lo_.x), std::max(lo_.y, other.lo_.y)},
              {std::min(hi_.x, other.hi_.x), std::min(hi_.y, other.hi_.y)}};
}

Rect Rect::unionWith(const Rect& other) const {
  if (empty()) return other;
  if (other.empty()) return *this;
  return Rect{{std::min(lo_.x, other.lo_.x), std::min(lo_.y, other.lo_.y)},
              {std::max(hi_.x, other.hi_.x), std::max(hi_.y, other.hi_.y)}};
}

Rect Rect::inflated(double m) const {
  if (empty()) return *this;
  Rect r{{lo_.x - m, lo_.y - m}, {hi_.x + m, hi_.y + m}};
  if (r.lo_.x > r.hi_.x || r.lo_.y > r.hi_.y) return Rect{};  // deflated to nothing
  return r;
}

double Rect::distanceTo(const Rect& other) const {
  if (empty() || other.empty()) return std::numeric_limits<double>::infinity();
  double dx = std::max({0.0, other.lo_.x - hi_.x, lo_.x - other.hi_.x});
  double dy = std::max({0.0, other.lo_.y - hi_.y, lo_.y - other.hi_.y});
  return std::hypot(dx, dy);
}

double Rect::distanceTo(Point2 p) const {
  if (empty()) return std::numeric_limits<double>::infinity();
  double dx = std::max({0.0, lo_.x - p.x, p.x - hi_.x});
  double dy = std::max({0.0, lo_.y - p.y, p.y - hi_.y});
  return std::hypot(dx, dy);
}

bool operator==(const Rect& a, const Rect& b) {
  if (a.empty() && b.empty()) return true;
  return a.lo_ == b.lo_ && a.hi_ == b.hi_;
}

std::ostream& operator<<(std::ostream& os, const Rect& r) {
  if (r.empty()) return os << "[empty]";
  return os << '[' << r.lo_ << '-' << r.hi_ << ']';
}

bool approxEqual(const Rect& a, const Rect& b, double eps) {
  if (a.empty() || b.empty()) return a.empty() && b.empty();
  return std::abs(a.lo().x - b.lo().x) <= eps && std::abs(a.lo().y - b.lo().y) <= eps &&
         std::abs(a.hi().x - b.hi().x) <= eps && std::abs(a.hi().y - b.hi().y) <= eps;
}

}  // namespace mw::geo

// Axis-aligned rectangles (minimum bounding rectangles).
//
// §4.1.2: "All locations are converted to a common coordinate format ... and
// are expressed as minimum bounding rectangles. ... Many operations like
// finding intersection regions, area and containment properties are very
// easy and fast to perform on rectangles." The fusion lattice, the spatial
// database index and the trigger machinery all run on this type.
#pragma once

#include <optional>
#include <ostream>

#include "geometry/point.hpp"

namespace mw::geo {

class Rect {
 public:
  /// Default: the canonical empty rectangle.
  constexpr Rect() : lo_{0, 0}, hi_{-1, -1} {}

  /// Construct from two corners; normalizes so that any two opposite corners
  /// are accepted.
  static Rect fromCorners(Point2 a, Point2 b);
  /// Construct from lower-left corner plus extents (w, h >= 0).
  static Rect fromOrigin(Point2 lo, double w, double h);
  /// Square of side 2r centered at c — the MBR of a disc of radius r, used to
  /// rectangle-ize coordinate sensor readings ("error radius", §4.1.2).
  static Rect centeredSquare(Point2 c, double r);

  [[nodiscard]] constexpr Point2 lo() const { return lo_; }
  [[nodiscard]] constexpr Point2 hi() const { return hi_; }
  [[nodiscard]] constexpr bool empty() const { return lo_.x > hi_.x || lo_.y > hi_.y; }
  [[nodiscard]] double width() const { return empty() ? 0 : hi_.x - lo_.x; }
  [[nodiscard]] double height() const { return empty() ? 0 : hi_.y - lo_.y; }
  [[nodiscard]] double area() const { return width() * height(); }
  [[nodiscard]] Point2 center() const;

  [[nodiscard]] bool contains(Point2 p) const;
  /// True also when `other` touches this rect's boundary from the inside.
  [[nodiscard]] bool contains(const Rect& other) const;
  /// Strict containment: `other` is inside and does not touch the boundary.
  [[nodiscard]] bool containsStrictly(const Rect& other) const;
  /// Closed-set intersection test (shared boundary counts); false when
  /// either rect is empty. Inline, with the coordinate tests first: region
  /// discovery runs it once per resident object, and most are disjoint.
  [[nodiscard]] constexpr bool intersects(const Rect& other) const {
    return lo_.x <= other.hi_.x && other.lo_.x <= hi_.x && lo_.y <= other.hi_.y &&
           other.lo_.y <= hi_.y && !empty() && !other.empty();
  }
  /// Interiors overlap (shared boundary alone does not count).
  [[nodiscard]] bool overlapsInterior(const Rect& other) const;

  /// Intersection region; nullopt when the closed sets are disjoint.
  [[nodiscard]] std::optional<Rect> intersection(const Rect& other) const;
  /// Smallest rectangle covering both (MBR union).
  [[nodiscard]] Rect unionWith(const Rect& other) const;
  /// Grow by margin m on every side.
  [[nodiscard]] Rect inflated(double m) const;

  /// Minimum distance between the closed sets (0 when intersecting).
  [[nodiscard]] double distanceTo(const Rect& other) const;
  [[nodiscard]] double distanceTo(Point2 p) const;

  friend bool operator==(const Rect& a, const Rect& b);
  friend std::ostream& operator<<(std::ostream& os, const Rect& r);

 private:
  constexpr Rect(Point2 lo, Point2 hi) : lo_(lo), hi_(hi) {}
  Point2 lo_;
  Point2 hi_;
};

/// Rects are "approximately equal" within eps on every coordinate; used by
/// the lattice to merge duplicate intersection regions.
bool approxEqual(const Rect& a, const Rect& b, double eps = 1e-9);

}  // namespace mw::geo

// The continuous-query discrimination network — the Rete-style index that
// makes a million standing rules cost O(affected) per update.
//
// MiddleWhere's Figure-9 claim is that trigger response time is independent
// of the number of installed triggers. The naive implementations it replaces
// are O(all rules) in two places: the database trigger table filtered
// subject-specific triggers linearly inside each R-tree hit, and the
// Location Service's edge detection scanned EVERY subscription per ingest to
// find the ones whose tracked object may have exited its region. This
// network fixes both with two classic Rete ideas:
//
//   * alpha-node sharing: productions (triggers/subscriptions) with the same
//     region rect share one alpha node — one R-tree entry, one geometric
//     test — no matter how many rules hang off it. Within an alpha node,
//     subject-constrained productions live in a hash map keyed by subject,
//     so a reading discriminates to exactly the productions that name its
//     object (plus the any-subject list), never a linear filter.
//   * a beta-memory reverse index: the inside/outside edge state of every
//     (production, object) pair is stored both per production and inverted
//     per object. An update for object X retrieves "productions currently
//     tracking X as inside" by one hash lookup — the exit-detection set —
//     instead of scanning the production table.
//
// match() = alpha matches (R-tree over shared regions, then subject
// discrimination) ∪ inside-tracked productions for the object. Both parts
// are proportional to the affected rules, so the per-update cost curve
// stays flat as the rule count grows 10³ → 10⁶.
//
// Counting productions (density rules) reuse the same memory: a count is
// the size of a production's inside set, moved one edge at a time, and
// matchCounting() finds the counting productions one object's evidence box
// touches or that count it — so a density rule also costs O(affected).
//
// Thread-safety: none — the owner (SpatialDatabase's trigger table lock,
// LocationService's subscription mutex) synchronizes externally, which keeps
// the network free of its own locking on the ingest hot path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "geometry/rect.hpp"
#include "geometry/rtree.hpp"

namespace mw::cq {

/// Productions are identified by caller-chosen 64-bit ids (trigger ids,
/// subscription ids — whatever the owner sequences).
using ProductionId = std::uint64_t;

/// How a counting production's population relates to its limit at a
/// report, relative to the previous report: Rose = crossed up to >= limit
/// (the overcrowding alarm edge), Fell = dropped back below (all-clear).
enum class CountEdge : std::uint8_t { None = 0, Rose = 1, Fell = 2 };

/// Result of reportCount() on a counting production.
struct CountUpdate {
  std::size_t count = 0;             ///< objects inside at the report
  bool changed = false;              ///< count differs from the previous report
  CountEdge edge = CountEdge::None;  ///< limit crossing, if any
};

class TriggerNetwork {
 public:
  /// Installs a production: notify when a reading for `subject` (or any
  /// object, when unset) intersects `region`. Duplicate ids are a contract
  /// violation; the region must be non-empty.
  void installProduction(ProductionId id, const geo::Rect& region,
                         const std::optional<std::string>& subject);

  /// Uninstalls a production and clears its edge state from the reverse
  /// index. The shared alpha node survives until its last production leaves.
  /// Returns false for unknown ids.
  bool removeProduction(ProductionId id);

  /// The affected-rule set for one update: every production whose alpha
  /// pattern matches (region ∩ readingBox, subject ∈ {unset, object}) plus
  /// every production currently tracking `object` as inside (exit
  /// candidates). Sorted ascending and deduplicated — deterministic
  /// evaluation order for the oracle tests. `out` is cleared first.
  void match(const geo::Rect& readingBox, const std::string& object,
             std::vector<ProductionId>& out) const;

  /// Alpha-only matching (no beta/edge memory) — the database trigger table
  /// is level-triggered and never tracks inside state.
  void matchAlpha(const geo::Rect& readingBox, const std::string& object,
                  std::vector<ProductionId>& out) const;

  /// Edge state for one (production, object) pair. Unknown pairs are
  /// outside. setInside(.., false) erases the entry — the memory holds only
  /// objects currently inside, so it shrinks as objects leave.
  [[nodiscard]] bool isInside(ProductionId id, const std::string& object) const;
  void setInside(ProductionId id, const std::string& object, bool inside);

  /// The production's region (for notification payloads); nullopt when
  /// unknown.
  [[nodiscard]] std::optional<geo::Rect> regionOf(ProductionId id) const;

  /// Marks an installed production as a counting (aggregate) rule ("alarm
  /// when density(region) >= k"): its count is the number of objects it
  /// holds inside, moved one setInside() edge at a time by the owner as it
  /// re-evaluates single objects, and reportCount() compares that count
  /// with the previous report and with `limit`. Must be called once, right
  /// after installProduction, before any edge state accumulates; counting
  /// rules are region-wide (no subject).
  void makeCounting(ProductionId id, std::size_t limit);
  [[nodiscard]] bool isCounting(ProductionId id) const;
  /// Counting productions installed; matchCounting() is empty when 0.
  [[nodiscard]] std::size_t countingCount() const noexcept { return countingProductions_; }

  /// The counting productions one object's re-evaluation must visit: those
  /// whose region intersects the object's evidence box (it may be inside
  /// them) plus those currently counting it (it may have left). Sorted and
  /// deduplicated; `out` is cleared first. An empty box yields only the
  /// second part. Shares the alpha R-tree with match().
  void matchCounting(const geo::Rect& evidenceBox, const std::string& object,
                     std::vector<ProductionId>& out) const;

  /// The counting production's current count and its limit crossing
  /// relative to the previous report, which this call then becomes.
  /// O(1). Returns a default (unchanged, count 0) update for unknown ids —
  /// the production may have been removed between match and evaluation.
  CountUpdate reportCount(ProductionId id);

  [[nodiscard]] std::size_t productionCount() const noexcept { return productions_.size(); }
  /// Distinct region rects — the R-tree size; productionCount/alphaNodeCount
  /// is the sharing factor.
  [[nodiscard]] std::size_t alphaNodeCount() const noexcept { return liveAlphas_; }
  /// (production, object) pairs currently tracked as inside.
  [[nodiscard]] std::size_t insideCount() const noexcept { return insidePairs_; }

 private:
  struct RectKey {
    geo::Rect rect;
    bool operator==(const RectKey& o) const noexcept { return rect == o.rect; }
  };
  struct RectKeyHash {
    std::size_t operator()(const RectKey& k) const noexcept;
  };

  /// One shared region test. `bySubject` holds subject-constrained
  /// productions; `anySubject` the unconstrained ones, and `counting` the
  /// subset of those that count (for matchCounting).
  struct AlphaNode {
    geo::Rect region;
    std::vector<ProductionId> anySubject;
    std::vector<ProductionId> counting;
    std::unordered_map<std::string, std::vector<ProductionId>> bySubject;
    std::size_t productionCount = 0;
  };

  /// Aggregate state for counting productions (makeCounting): the limit
  /// and what the previous reportCount() returned.
  struct Counting {
    std::size_t limit = 0;
    std::size_t lastCount = 0;
    bool lastOver = false;
  };

  struct Production {
    std::size_t alphaSlot = 0;
    std::optional<std::string> subject;
    /// Objects this production currently tracks as inside (mirror of the
    /// reverse index, so removeProduction cleans up in O(its own state)).
    std::unordered_set<std::string> insideObjects;
    std::optional<Counting> counting;
  };

  void collectAlpha(const AlphaNode& alpha, const std::string& object,
                    std::vector<ProductionId>& out) const;

  /// Alpha nodes in stable slots (tombstoned on last-production removal) so
  /// R-tree values stay valid.
  std::vector<std::optional<AlphaNode>> alphas_;
  std::vector<std::size_t> freeAlphaSlots_;
  std::size_t liveAlphas_ = 0;
  std::unordered_map<RectKey, std::size_t, RectKeyHash> alphaByRect_;
  geo::RTree<std::uint64_t> alphaTree_;

  std::unordered_map<ProductionId, Production> productions_;
  /// object -> productions tracking it as inside (the exit-candidate set).
  std::unordered_map<std::string, std::unordered_set<ProductionId>> insideByObject_;
  std::size_t insidePairs_ = 0;
  std::size_t countingProductions_ = 0;
};

}  // namespace mw::cq

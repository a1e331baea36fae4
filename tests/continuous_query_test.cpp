// Continuous-query subsystem tests: the Rete-style TriggerNetwork, the
// incremental Datalog (semi-naive inserts, DRed retraction), and the
// LocationService's network-driven subscription dispatch — each checked
// against a scratch-recompute oracle so incremental maintenance is proven
// byte-identical to recomputing from first principles, including under
// retraction (TTL expiry), rule install/uninstall mid-stream, and
// concurrent ingest.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/location_service.hpp"
#include "cq/trigger_network.hpp"
#include "quality/error_model.hpp"
#include "reasoning/datalog.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"

namespace mw {
namespace {

using mw::util::MobileObjectId;
using mw::util::sec;
using mw::util::SensorId;
using mw::util::VirtualClock;

// --- TriggerNetwork ---------------------------------------------------------------

TEST(ContinuousQueryNetworkTest, AlphaNodesAreSharedAcrossSameRegionRules) {
  cq::TriggerNetwork net;
  const auto room = geo::Rect::fromOrigin({0, 0}, 10, 10);
  for (cq::ProductionId id = 1; id <= 1000; ++id) {
    net.installProduction(id, room, std::nullopt);
  }
  EXPECT_EQ(net.productionCount(), 1000u);
  EXPECT_EQ(net.alphaNodeCount(), 1u) << "one shared alpha node, not one per rule";

  std::vector<cq::ProductionId> matched;
  net.match(geo::Rect::fromOrigin({4, 4}, 1, 1), "alice", matched);
  EXPECT_EQ(matched.size(), 1000u);
  EXPECT_TRUE(std::is_sorted(matched.begin(), matched.end()));

  net.match(geo::Rect::fromOrigin({50, 50}, 1, 1), "alice", matched);
  EXPECT_TRUE(matched.empty()) << "a miss touches no production";
}

TEST(ContinuousQueryNetworkTest, SubjectDiscriminationIsExact) {
  cq::TriggerNetwork net;
  const auto room = geo::Rect::fromOrigin({0, 0}, 10, 10);
  net.installProduction(1, room, std::nullopt);
  net.installProduction(2, room, std::string("alice"));
  net.installProduction(3, room, std::string("bob"));
  EXPECT_EQ(net.alphaNodeCount(), 1u) << "subject variants share the region node";

  std::vector<cq::ProductionId> matched;
  net.match(geo::Rect::fromOrigin({1, 1}, 1, 1), "alice", matched);
  EXPECT_EQ(matched, (std::vector<cq::ProductionId>{1, 2}));
  net.match(geo::Rect::fromOrigin({1, 1}, 1, 1), "carol", matched);
  EXPECT_EQ(matched, (std::vector<cq::ProductionId>{1}));
}

TEST(ContinuousQueryNetworkTest, InsideMemoryYieldsExitCandidates) {
  cq::TriggerNetwork net;
  const auto room = geo::Rect::fromOrigin({0, 0}, 10, 10);
  net.installProduction(7, room, std::nullopt);
  net.setInside(7, "alice", true);
  EXPECT_TRUE(net.isInside(7, "alice"));
  EXPECT_EQ(net.insideCount(), 1u);

  // A reading far from the region still matches: the production tracks
  // alice as inside, so it must observe the (potential) exit.
  std::vector<cq::ProductionId> matched;
  net.match(geo::Rect::fromOrigin({80, 80}, 1, 1), "alice", matched);
  EXPECT_EQ(matched, (std::vector<cq::ProductionId>{7}));
  net.match(geo::Rect::fromOrigin({80, 80}, 1, 1), "bob", matched);
  EXPECT_TRUE(matched.empty()) << "bob was never inside";

  net.setInside(7, "alice", false);
  EXPECT_EQ(net.insideCount(), 0u) << "the memory holds only inside pairs";
  net.match(geo::Rect::fromOrigin({80, 80}, 1, 1), "alice", matched);
  EXPECT_TRUE(matched.empty());
}

TEST(ContinuousQueryNetworkTest, RemoveProductionCleansAlphaAndEdgeState) {
  cq::TriggerNetwork net;
  const auto room = geo::Rect::fromOrigin({0, 0}, 10, 10);
  net.installProduction(1, room, std::nullopt);
  net.installProduction(2, room, std::nullopt);
  net.setInside(1, "alice", true);
  net.setInside(2, "alice", true);

  EXPECT_TRUE(net.removeProduction(1));
  EXPECT_FALSE(net.removeProduction(1)) << "already gone";
  EXPECT_EQ(net.alphaNodeCount(), 1u) << "node survives while production 2 uses it";
  EXPECT_EQ(net.insideCount(), 1u);

  std::vector<cq::ProductionId> matched;
  net.match(geo::Rect::fromOrigin({50, 50}, 1, 1), "alice", matched);
  EXPECT_EQ(matched, (std::vector<cq::ProductionId>{2}));

  EXPECT_TRUE(net.removeProduction(2));
  EXPECT_EQ(net.alphaNodeCount(), 0u) << "last production frees the alpha node";
  EXPECT_EQ(net.insideCount(), 0u);
  EXPECT_THROW(net.installProduction(3, geo::Rect(), std::nullopt), util::ContractError);
}

TEST(ContinuousQueryNetworkTest, CountingRuleCountsInsideEdgesIncrementally) {
  cq::TriggerNetwork net;
  const auto plaza = geo::Rect::fromOrigin({0, 0}, 10, 10);
  net.installProduction(5, plaza, std::nullopt);
  net.makeCounting(5, 3);
  EXPECT_TRUE(net.isCounting(5));
  EXPECT_EQ(net.countingCount(), 1u);

  cq::CountUpdate update = net.reportCount(5);
  EXPECT_EQ(update.count, 0u);
  EXPECT_FALSE(update.changed) << "nothing inside yet";

  // Each edge moves the count by one; a report sees the change once.
  net.setInside(5, "alice", true);
  update = net.reportCount(5);
  EXPECT_EQ(update.count, 1u);
  EXPECT_TRUE(update.changed);
  EXPECT_EQ(update.edge, cq::CountEdge::None);
  EXPECT_FALSE(net.reportCount(5).changed) << "the previous report already saw it";

  // Re-asserting an edge is idempotent; an enter and a leave between two
  // reports cancel out.
  net.setInside(5, "alice", true);
  net.setInside(5, "bob", true);
  net.setInside(5, "bob", false);
  update = net.reportCount(5);
  EXPECT_EQ(update.count, 1u);
  EXPECT_FALSE(update.changed);
  EXPECT_EQ(net.insideCount(), 1u);

  net.setInside(5, "alice", false);
  update = net.reportCount(5);
  EXPECT_EQ(update.count, 0u);
  EXPECT_TRUE(update.changed);
  net.installProduction(6, plaza, std::nullopt);
  EXPECT_THROW((void)net.reportCount(6), util::ContractError) << "a plain rule has no count";
}

TEST(ContinuousQueryNetworkTest, CountingEdgesAlternateRoseAndFell) {
  cq::TriggerNetwork net;
  net.installProduction(1, geo::Rect::fromOrigin({0, 0}, 10, 10), std::nullopt);
  net.makeCounting(1, 2);
  const std::vector<std::string> crowd{"a", "b", "c"};
  std::vector<cq::CountEdge> edges;
  // Fill to 3, drain to 0, fill again: the limit (2) is crossed up, down and
  // up, and every other report carries no edge.
  for (int round = 0; round < 3; ++round) {
    for (const std::string& object : crowd) {
      net.setInside(1, object, round % 2 == 0);
      const cq::CountUpdate update = net.reportCount(1);
      EXPECT_TRUE(update.changed);
      if (update.edge != cq::CountEdge::None) edges.push_back(update.edge);
      if (update.edge == cq::CountEdge::Rose) {
        EXPECT_GE(update.count, 2u);
      } else if (update.edge == cq::CountEdge::Fell) {
        EXPECT_LT(update.count, 2u);
      }
    }
  }
  EXPECT_EQ(edges, (std::vector<cq::CountEdge>{cq::CountEdge::Rose, cq::CountEdge::Fell,
                                               cq::CountEdge::Rose}));
}

TEST(ContinuousQueryNetworkTest, RemovingACountingRuleDropsItsEdgesAndMatches) {
  cq::TriggerNetwork net;
  const auto plaza = geo::Rect::fromOrigin({0, 0}, 10, 10);
  net.installProduction(1, plaza, std::nullopt);
  net.makeCounting(1, 1);
  net.installProduction(2, plaza, std::nullopt);
  net.makeCounting(2, 1);
  net.setInside(1, "alice", true);
  net.setInside(2, "alice", true);

  std::vector<cq::ProductionId> counting;
  net.matchCounting(geo::Rect{}, "alice", counting);
  EXPECT_EQ(counting, (std::vector<cq::ProductionId>{1, 2})) << "counted by both";

  EXPECT_TRUE(net.removeProduction(1));
  EXPECT_EQ(net.countingCount(), 1u);
  EXPECT_EQ(net.insideCount(), 1u);
  net.matchCounting(geo::Rect::fromOrigin({1, 1}, 1, 1), "bob", counting);
  EXPECT_EQ(counting, (std::vector<cq::ProductionId>{2})) << "the removed rule is unmatched";
  net.matchCounting(geo::Rect{}, "alice", counting);
  EXPECT_EQ(counting, (std::vector<cq::ProductionId>{2}));
  EXPECT_EQ(net.reportCount(1).count, 0u) << "an unknown id reports nothing";

  EXPECT_TRUE(net.removeProduction(2));
  EXPECT_EQ(net.countingCount(), 0u);
  EXPECT_EQ(net.insideCount(), 0u);
  EXPECT_EQ(net.alphaNodeCount(), 0u);
  net.matchCounting(plaza, "alice", counting);
  EXPECT_TRUE(counting.empty());
}

TEST(ContinuousQueryNetworkTest, CountingRulesShareAlphaNodesWithPlainRules) {
  cq::TriggerNetwork net;
  const auto plaza = geo::Rect::fromOrigin({0, 0}, 10, 10);
  net.installProduction(1, plaza, std::nullopt);
  net.installProduction(2, plaza, std::string("alice"));
  net.installProduction(3, plaza, std::nullopt);
  net.makeCounting(3, 1);
  net.installProduction(4, geo::Rect::fromOrigin({50, 50}, 10, 10), std::nullopt);
  net.makeCounting(4, 1);
  EXPECT_EQ(net.alphaNodeCount(), 2u) << "the plaza's counting rule reuses its node";

  // match() serves plain and counting rules alike (the notify set) ...
  std::vector<cq::ProductionId> matched;
  net.match(geo::Rect::fromOrigin({1, 1}, 1, 1), "alice", matched);
  EXPECT_EQ(matched, (std::vector<cq::ProductionId>{1, 2, 3}));
  // ... while matchCounting() sees only the counting ones, by evidence box,
  // plus the rules that count the object wherever its box now lies.
  net.matchCounting(geo::Rect::fromOrigin({1, 1}, 1, 1), "alice", matched);
  EXPECT_EQ(matched, (std::vector<cq::ProductionId>{3}));
  net.matchCounting(geo::Rect::fromOrigin({5, 5}, 50, 50), "alice", matched);
  EXPECT_EQ(matched, (std::vector<cq::ProductionId>{3, 4}));
  net.setInside(1, "alice", true);
  net.setInside(4, "alice", true);
  net.matchCounting(geo::Rect::fromOrigin({1, 1}, 1, 1), "alice", matched);
  EXPECT_EQ(matched, (std::vector<cq::ProductionId>{3, 4})) << "plain edges are not counting";

  // Removing the plain rules keeps the node alive for the counting one.
  EXPECT_TRUE(net.removeProduction(1));
  EXPECT_TRUE(net.removeProduction(2));
  EXPECT_EQ(net.alphaNodeCount(), 2u);
  net.matchCounting(geo::Rect::fromOrigin({1, 1}, 1, 1), "bob", matched);
  EXPECT_EQ(matched, (std::vector<cq::ProductionId>{3}));
}

// --- incremental Datalog vs scratch oracle ----------------------------------------

using reasoning::Atom;
using reasoning::Datalog;
using reasoning::Rule;
using reasoning::Term;

Term v(const char* name) { return Term::var(name); }
Term c(const std::string& value) { return Term::atom(value); }

std::vector<Rule> pathRules() {
  return {
      Rule{{"path", {v("X"), v("Y")}}, {{"edge", {v("X"), v("Y")}}}},
      Rule{{"path", {v("X"), v("Y")}}, {{"edge", {v("X"), v("Z")}}, {"path", {v("Z"), v("Y")}}}},
  };
}

/// Scratch oracle: a FRESH engine over the current base facts and rules,
/// saturated from nothing. The incremental engine must agree exactly.
std::set<std::pair<std::string, std::string>> scratchPaths(
    const std::vector<std::pair<std::string, std::string>>& edges,
    const std::vector<Rule>& rules) {
  Datalog fresh;
  for (const auto& [a, b] : edges) fresh.addFact("edge", {a, b});
  for (const auto& rule : rules) fresh.addRule(rule);
  std::set<std::pair<std::string, std::string>> out;
  for (const auto& binding : fresh.query({"path", {v("X"), v("Y")}})) {
    out.emplace(binding.at("X"), binding.at("Y"));
  }
  return out;
}

std::set<std::pair<std::string, std::string>> incrementalPaths(Datalog& db) {
  std::set<std::pair<std::string, std::string>> out;
  for (const auto& binding : db.query({"path", {v("X"), v("Y")}})) {
    out.emplace(binding.at("X"), binding.at("Y"));
  }
  return out;
}

TEST(ContinuousQueryDatalogTest, InsertStreamMatchesScratchWithoutRecomputes) {
  Datalog db;
  for (const auto& rule : pathRules()) db.addRule(rule);
  std::vector<std::pair<std::string, std::string>> edges;
  db.saturate();  // first saturation is the one allowed full build

  const std::vector<std::pair<std::string, std::string>> stream = {
      {"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "a"},  // cycle
      {"c", "e"}, {"e", "f"}, {"x", "y"},
  };
  for (const auto& [from, to] : stream) {
    db.addFact("edge", {from, to});
    edges.emplace_back(from, to);
    EXPECT_EQ(incrementalPaths(db), scratchPaths(edges, pathRules()))
        << "after inserting " << from << "->" << to;
  }
  EXPECT_EQ(db.stats().fullRecomputes, 1u)
      << "inserts must propagate semi-naively, never rebuild the closure";
  EXPECT_GT(db.stats().deltaInsertions, 0u);
}

TEST(ContinuousQueryDatalogTest, RetractionMatchesScratchThroughCyclesAndDiamonds) {
  Datalog db;
  for (const auto& rule : pathRules()) db.addRule(rule);
  // A diamond (two derivations for a->d) plus a cycle (b->c->b) — the cases
  // where naive deletion either over-deletes (diamond) or support counting
  // never drains (cycle).
  std::vector<std::pair<std::string, std::string>> edges = {
      {"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}, {"b", "c"}, {"c", "b"},
  };
  for (const auto& [from, to] : edges) db.addFact("edge", {from, to});
  EXPECT_EQ(incrementalPaths(db), scratchPaths(edges, pathRules()));

  const std::vector<std::pair<std::string, std::string>> retractions = {
      {"b", "d"},  // diamond: a->d survives via c
      {"c", "b"},  // breaks the cycle
      {"a", "b"}, {"c", "d"}, {"a", "c"}, {"b", "c"},
  };
  for (const auto& [from, to] : retractions) {
    EXPECT_TRUE(db.retractFact("edge", {from, to}));
    std::erase(edges, std::pair<std::string, std::string>{from, to});
    EXPECT_EQ(incrementalPaths(db), scratchPaths(edges, pathRules()))
        << "after retracting " << from << "->" << to;
  }
  EXPECT_TRUE(incrementalPaths(db).empty());
  EXPECT_EQ(db.stats().fullRecomputes, 1u)
      << "DRed must maintain the closure without rebuilding it";
}

TEST(ContinuousQueryDatalogTest, RetractingUnknownOrDerivedOnlyFactsIsRejected) {
  Datalog db;
  db.addRule(Rule{{"q", {v("X")}}, {{"p", {v("X")}}}});
  db.addFact("p", {"a"});
  EXPECT_TRUE(db.holds({"q", {c("a")}}));
  EXPECT_FALSE(db.retractFact("q", {"a"})) << "q(a) is derived, not a base fact";
  EXPECT_FALSE(db.retractFact("p", {"zzz"}));
  EXPECT_TRUE(db.retractFact("p", {"a"}));
  EXPECT_FALSE(db.holds({"q", {c("a")}})) << "derived fact dies with its last support";
}

TEST(ContinuousQueryDatalogTest, InterleavedAddRetractReplaysInCallOrder) {
  Datalog db;
  db.saturate();
  db.addFact("p", {"a"});
  EXPECT_TRUE(db.retractFact("p", {"a"}));
  db.addFact("p", {"a"});
  EXPECT_TRUE(db.holds({"p", {c("a")}})) << "add/retract/add must leave the fact present";

  EXPECT_TRUE(db.retractFact("p", {"a"}));
  EXPECT_FALSE(db.holds({"p", {c("a")}}));
}

TEST(ContinuousQueryDatalogTest, RuleInstallMidStreamIsIncremental) {
  Datalog db;
  db.addFact("edge", {"a", "b"});
  db.addFact("edge", {"b", "c"});
  db.addRule(pathRules()[0]);
  EXPECT_TRUE(db.holds({"path", {c("a"), c("b")}}));
  EXPECT_FALSE(db.holds({"path", {c("a"), c("c")}}));
  const std::uint64_t recomputesBefore = db.stats().fullRecomputes;

  // The transitive rule arrives mid-stream: its derivations (and theirs)
  // must appear without a rebuild.
  db.addRule(pathRules()[1]);
  EXPECT_TRUE(db.holds({"path", {c("a"), c("c")}}));
  EXPECT_EQ(db.stats().fullRecomputes, recomputesBefore);
  EXPECT_EQ(incrementalPaths(db), scratchPaths({{"a", "b"}, {"b", "c"}}, pathRules()));
}

TEST(ContinuousQueryDatalogTest, RuleRemovalDropsItsDerivations) {
  Datalog db;
  db.addFact("edge", {"a", "b"});
  db.addFact("edge", {"b", "c"});
  const auto baseRule = db.addRule(pathRules()[0]);
  const auto transitive = db.addRule(pathRules()[1]);
  (void)baseRule;
  EXPECT_TRUE(db.holds({"path", {c("a"), c("c")}}));

  EXPECT_TRUE(db.removeRule(transitive));
  EXPECT_FALSE(db.removeRule(transitive)) << "already removed";
  EXPECT_TRUE(db.holds({"path", {c("a"), c("b")}}));
  EXPECT_FALSE(db.holds({"path", {c("a"), c("c")}})) << "transitive derivations are gone";
  EXPECT_EQ(db.ruleCount(), 1u);

  // Incremental maintenance resumes after the rebuild.
  db.addFact("edge", {"c", "d"});
  EXPECT_TRUE(db.holds({"path", {c("c"), c("d")}}));
}

// --- LocationService: network-dispatched subscriptions vs scratch oracle -----------

/// The §4.3 subscription semantics recomputed from first principles per
/// reading: a linear scan over ALL standing rules (the geometric prefilter,
/// subject filter, probability threshold and edge memory applied longhand),
/// against which the network-dispatched incremental path must be
/// byte-identical.
struct ScratchOracle {
  struct Spec {
    geo::Rect region;
    std::optional<MobileObjectId> subject;
    double threshold = 0;
    bool onlyOnEntry = false;
  };
  std::map<std::uint64_t, Spec> specs;
  std::map<std::pair<std::uint64_t, std::string>, bool> inside;

  /// Expected notifications (subscription id, object) for one reading, in
  /// ascending id order — the service's documented evaluation order.
  std::vector<std::pair<std::uint64_t, std::string>> onReading(
      const core::LocationService& service, const MobileObjectId& object,
      const geo::Rect& readingBox) {
    std::vector<std::pair<std::uint64_t, std::string>> fired;
    for (auto& [id, spec] : specs) {
      if (spec.subject && *spec.subject != object) continue;
      bool& wasInside = inside[{id, object.str()}];
      // Geometric prefilter: not touched and not inside -> not evaluated.
      if (!spec.region.intersects(readingBox) && !wasInside) continue;
      const double p = service.probabilityInRegion(object, spec.region);
      const bool qualifies = p >= spec.threshold;
      const bool notify = qualifies && (!spec.onlyOnEntry || !wasInside);
      wasInside = qualifies;
      if (notify) fired.emplace_back(id, object.str());
    }
    return fired;
  }
};

struct ServiceFixture {
  VirtualClock clock;
  db::SpatialDatabase db;
  core::LocationService service;

  ServiceFixture() : db(makeDb(clock)), service(clock, db) {}

  static db::SpatialDatabase makeDb(const util::Clock& clock) {
    db::SpatialDatabase database(clock, geo::Rect::fromOrigin({0, 0}, 100, 50), "SC");
    db::SensorMeta ubi;
    ubi.sensorId = SensorId{"ubi-1"};
    ubi.sensorType = "Ubisense";
    ubi.errorSpec = quality::ubisenseSpec(1.0);
    ubi.scaleMisidentifyByArea = true;
    ubi.quality.ttl = sec(30);
    database.registerSensor(ubi);
    return database;
  }

  db::SensorReading reading(const std::string& person, geo::Point2 where) {
    db::SensorReading r;
    r.sensorId = SensorId{"ubi-1"};
    r.sensorType = "Ubisense";
    r.mobileObjectId = MobileObjectId{person};
    r.location = where;
    r.detectionRadius = 0.5;
    r.detectionTime = clock.now();
    return r;
  }
};

TEST(ContinuousQueryServiceTest, NotificationsMatchScratchOracleThroughEdgesAndChurn) {
  ServiceFixture f;
  ScratchOracle oracle;
  std::mutex firedMutex;
  std::vector<std::pair<std::uint64_t, std::string>> fired;
  auto record = [&](const core::Notification& n) {
    std::lock_guard lock(firedMutex);
    fired.emplace_back(n.id.value(), n.object.str());
  };

  const auto roomA = geo::Rect::fromOrigin({0, 0}, 20, 20);
  const auto roomB = geo::Rect::fromOrigin({40, 0}, 20, 20);
  auto install = [&](geo::Rect region, std::optional<MobileObjectId> subject, double threshold,
                     bool onlyOnEntry) {
    core::Subscription sub;
    sub.region = region;
    sub.subject = subject;
    sub.threshold = threshold;
    sub.onlyOnEntry = onlyOnEntry;
    sub.callback = record;
    const auto id = f.service.subscribe(std::move(sub));
    oracle.specs[id.value()] = {region, subject, threshold, onlyOnEntry};
    return id;
  };

  install(roomA, std::nullopt, 0.5, /*onlyOnEntry=*/true);
  install(roomA, MobileObjectId{"alice"}, 0.5, /*onlyOnEntry=*/false);
  const auto bSub = install(roomB, std::nullopt, 0.5, /*onlyOnEntry=*/true);

  auto step = [&](const std::string& person, geo::Point2 where) {
    const auto r = f.reading(person, where);
    {
      std::lock_guard lock(firedMutex);
      fired.clear();
    }
    f.service.ingest(r);
    // The oracle fuses through the same service state AFTER the ingest.
    const auto expected =
        oracle.onReading(f.service, MobileObjectId{person}, r.rect());
    std::lock_guard lock(firedMutex);
    EXPECT_EQ(fired, expected) << person << " at (" << where.x << "," << where.y << ")";
  };

  step("alice", {5, 5});     // enter A: both A-subs fire
  step("alice", {6, 5});     // still inside: level sub fires, edge sub doesn't
  step("bob", {5, 6});       // bob enters A: edge sub only (sub 2 is alice's)
  step("alice", {25, 25});   // exit A
  step("alice", {5, 5});     // re-enter A: rising edge again
  step("alice", {45, 5});    // leave A for B

  // Rule churn mid-stream: uninstall the B subscription, add a new one.
  ASSERT_TRUE(f.service.unsubscribe(bSub));
  oracle.specs.erase(bSub.value());
  for (auto it = oracle.inside.begin(); it != oracle.inside.end();) {
    it = it->first.first == bSub.value() ? oracle.inside.erase(it) : ++it;
  }
  install(roomB, std::nullopt, 0.4, /*onlyOnEntry=*/true);
  step("alice", {46, 5});    // the fresh sub sees alice's NEXT update as an entry
  step("bob", {45, 6});      // bob crosses into B

  // TTL expiry retraction: alice's evidence ages out; the next update for
  // her (a new reading far away) must fire the exits exactly like a scratch
  // recompute that no longer sees the expired evidence.
  f.clock.advance(sec(60));
  step("alice", {80, 40});   // stale B evidence gone; outside everything
  step("bob", {80, 40});

  const auto stats = f.service.standingRuleStats();
  EXPECT_EQ(stats.productions, 3u);
  EXPECT_EQ(stats.insidePairs, 0u) << "everyone ended outside";
}

TEST(ContinuousQueryServiceTest, UpdatesTouchOnlyAffectedRules) {
  ServiceFixture f;
  std::atomic<int> notified{0};
  // 500 standing rules over 25 distinct far-away regions (20 rules per
  // rect) plus one on the room alice is in. Shared-region rules collapse to
  // one alpha node per rect, and alice's update must fire exactly the one
  // rule that watches her room.
  for (int i = 0; i < 500; ++i) {
    core::Subscription sub;
    sub.region = geo::Rect::fromOrigin({60.0 + (i % 25), 30.0}, 2, 2);
    sub.threshold = 0.3;
    sub.callback = [&](const core::Notification&) { notified.fetch_add(1); };
    (void)f.service.subscribe(std::move(sub));
  }
  core::Subscription watched;
  watched.region = geo::Rect::fromOrigin({0, 0}, 20, 20);
  watched.threshold = 0.3;
  watched.callback = [&](const core::Notification&) { notified.fetch_add(1); };
  (void)f.service.subscribe(std::move(watched));

  const auto stats = f.service.standingRuleStats();
  EXPECT_EQ(stats.productions, 501u);
  EXPECT_EQ(stats.alphaNodes, 26u) << "25 shared far rects + alice's room";

  f.service.ingest(f.reading("alice", {5, 5}));
  EXPECT_EQ(notified.load(), 1) << "only the watching rule fires";
  EXPECT_EQ(f.service.standingRuleStats().insidePairs, 1u);
}

TEST(ContinuousQueryServiceTest, ConcurrentIngestAndRuleChurnStaysConsistent) {
  ServiceFixture f;
  const auto roomA = geo::Rect::fromOrigin({0, 0}, 20, 20);
  std::atomic<int> notifications{0};

  // A stable subscription that must observe every object's entry exactly
  // once (each object enters roomA once and stays).
  core::Subscription stable;
  stable.region = roomA;
  stable.threshold = 0.5;
  stable.onlyOnEntry = true;
  stable.callback = [&](const core::Notification&) { notifications.fetch_add(1); };
  (void)f.service.subscribe(std::move(stable));

  constexpr int kObjectsPerThread = 16;
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  workers.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kObjectsPerThread; ++i) {
        const std::string person = "p" + std::to_string(t) + "-" + std::to_string(i);
        // Two updates inside the room: one rising edge, one level-hold.
        f.service.ingest(f.reading(person, {2.0 + t * 4.0, 2.0 + i * 1.0}));
        f.service.ingest(f.reading(person, {2.5 + t * 4.0, 2.0 + i * 1.0}));
      }
    });
  }
  // Churn thread: install/uninstall rules on an UNRELATED region while
  // ingest runs — exercising the network's install/remove paths under load.
  workers.emplace_back([&] {
    for (int i = 0; i < 200; ++i) {
      core::Subscription sub;
      sub.region = geo::Rect::fromOrigin({70, 30}, 5, 5);
      sub.threshold = 0.5;
      sub.callback = [](const core::Notification&) {};
      const auto id = f.service.subscribe(std::move(sub));
      (void)f.service.unsubscribe(id);
    }
  });
  for (auto& w : workers) w.join();

  EXPECT_EQ(notifications.load(), kThreads * kObjectsPerThread)
      << "each object's rising edge fires exactly once";
  const auto stats = f.service.standingRuleStats();
  EXPECT_EQ(stats.productions, 1u) << "churned rules all uninstalled";
  EXPECT_EQ(stats.insidePairs, static_cast<std::size_t>(kThreads * kObjectsPerThread));
}

}  // namespace
}  // namespace mw

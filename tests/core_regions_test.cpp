// Symbolic-region lattice (§4.5), application-defined regions and usage
// regions (§4 tasks 4-5, §4.6.2b).
#include <gtest/gtest.h>

#include <array>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/location_service.hpp"
#include "core/region_lattice.hpp"
#include "lattice/rect_lattice.hpp"
#include "util/error.hpp"

namespace mw::core {
namespace {

using mw::util::MobileObjectId;
using mw::util::sec;
using mw::util::SensorId;
using mw::util::SpatialObjectId;
using mw::util::VirtualClock;

// --- RegionLattice in isolation --------------------------------------------------

RegionLattice buildingLattice() {
  RegionLattice lat;
  lat.add("SC", geo::Rect::fromOrigin({0, 0}, 100, 100));
  lat.add("SC/3", geo::Rect::fromOrigin({0, 0}, 100, 50));
  lat.add("SC/3/3216", geo::Rect::fromOrigin({10, 10}, 20, 20));
  lat.add("SC/3/3216/workarea", geo::Rect::fromOrigin({12, 12}, 5, 5));
  lat.add("SC/EastWing", geo::Rect::fromOrigin({60, 0}, 40, 100));
  return lat;
}

TEST(RegionLatticeTest, AddAndFind) {
  RegionLattice lat = buildingLattice();
  EXPECT_EQ(lat.size(), 5u);
  ASSERT_TRUE(lat.find("SC/3/3216").has_value());
  EXPECT_EQ(lat.find("nope"), std::nullopt);
  EXPECT_THROW(lat.add("SC", geo::Rect::fromOrigin({0, 0}, 1, 1)), mw::util::ContractError);
  EXPECT_THROW(lat.add("x", geo::Rect{}), mw::util::ContractError);
}

TEST(RegionLatticeTest, HasseStructureAndDepths) {
  RegionLattice lat = buildingLattice();
  auto root = *lat.find("SC");
  auto floor = *lat.find("SC/3");
  auto room = *lat.find("SC/3/3216");
  auto work = *lat.find("SC/3/3216/workarea");
  EXPECT_EQ(lat.node(root).depth, 0u);
  EXPECT_EQ(lat.node(floor).depth, 1u);
  EXPECT_EQ(lat.node(room).depth, 2u);
  EXPECT_EQ(lat.node(work).depth, 3u);
  EXPECT_EQ(lat.node(room).parents, (std::vector<std::size_t>{floor}));
  EXPECT_EQ(lat.node(work).parents, (std::vector<std::size_t>{room}));
  // The east wing sits directly under the building.
  auto wing = *lat.find("SC/EastWing");
  EXPECT_EQ(lat.node(wing).parents, (std::vector<std::size_t>{root}));
}

TEST(RegionLatticeTest, HasseEdgesMatchTheFusionLattice) {
  // Nested or disjoint rects, so the fusion lattice derives no intersection
  // nodes; two names share one rect.
  const std::vector<std::pair<std::string, geo::Rect>> regions = {
      {"SC", geo::Rect::fromOrigin({0, 0}, 100, 50)},
      {"SC/A", geo::Rect::fromOrigin({0, 0}, 50, 50)},
      {"SC/A/room", geo::Rect::fromOrigin({0, 0}, 20, 20)},
      {"SC/A/room-alias", geo::Rect::fromOrigin({0, 0}, 20, 20)},
      {"SC/A/room/desk", geo::Rect::fromOrigin({2, 2}, 5, 5)},
      {"SC/A/lab", geo::Rect::fromOrigin({25, 0}, 20, 20)},
      {"SC/B", geo::Rect::fromOrigin({50, 0}, 50, 50)},
      {"SC/B/office", geo::Rect::fromOrigin({60, 10}, 10, 10)},
  };
  RegionLattice named;
  lattice::RectLattice fusion(regions.front().second);
  for (const auto& [glob, rect] : regions) {
    named.add(glob, rect);
    fusion.insert(rect, glob);
  }
  ASSERT_EQ(fusion.size(), regions.size() - 1) << "the alias merges into the room's node";

  // Edges compared as rect sets: the fusion lattice holds one node per rect.
  using Corners = std::array<double, 4>;
  auto cornersOf = [](const geo::Rect& r) {
    return Corners{r.lo().x, r.lo().y, r.hi().x, r.hi().y};
  };
  auto rectsOf = [&](const auto& lat, const std::vector<std::size_t>& ids) {
    std::set<Corners> out;
    for (std::size_t id : ids) out.insert(cornersOf(lat.node(id).rect));
    return out;
  };
  for (std::size_t i = 0; i < named.size(); ++i) {
    const RegionLattice::Node& node = named.node(i);
    const std::size_t twin = fusion.find(node.rect);
    ASSERT_LT(twin, fusion.size()) << node.glob;
    const lattice::RectLattice::Node& other = fusion.node(twin);
    EXPECT_EQ(rectsOf(named, node.parents), rectsOf(fusion, other.parents)) << node.glob;
    EXPECT_EQ(rectsOf(named, node.children), rectsOf(fusion, other.children)) << node.glob;
  }
  // Equal rects are neither parent nor child of each other.
  const auto room = *named.find("SC/A/room");
  const auto alias = *named.find("SC/A/room-alias");
  const std::vector<std::size_t> desk{*named.find("SC/A/room/desk")};
  EXPECT_EQ(named.node(room).parents, named.node(alias).parents);
  EXPECT_EQ(named.node(room).children, desk);
  EXPECT_EQ(named.node(alias).children, desk);
  EXPECT_EQ(named.node(room).depth, named.node(alias).depth);
}

TEST(RegionLatticeTest, SmallestAtAndChain) {
  RegionLattice lat = buildingLattice();
  geo::Point2 inWorkArea{14, 14};
  auto smallest = lat.smallestAt(inWorkArea);
  ASSERT_TRUE(smallest.has_value());
  EXPECT_EQ(lat.node(*smallest).glob, "SC/3/3216/workarea");

  auto chain = lat.chainAt(inWorkArea);
  ASSERT_EQ(chain.size(), 4u);
  EXPECT_EQ(lat.node(chain[0]).glob, "SC");
  EXPECT_EQ(lat.node(chain[1]).glob, "SC/3");
  EXPECT_EQ(lat.node(chain[2]).glob, "SC/3/3216");
  EXPECT_EQ(lat.node(chain[3]).glob, "SC/3/3216/workarea");

  EXPECT_EQ(lat.smallestAt({200, 200}), std::nullopt);
  EXPECT_TRUE(lat.chainAt({200, 200}).empty());
}

TEST(RegionLatticeTest, GranularityCut) {
  // §4.5: reveal only up to a granularity level.
  RegionLattice lat = buildingLattice();
  geo::Point2 p{14, 14};
  auto atRoom = lat.atGranularity(p, 2);
  ASSERT_TRUE(atRoom.has_value());
  EXPECT_EQ(lat.node(*atRoom).glob, "SC/3/3216");
  auto atFloor = lat.atGranularity(p, 1);
  ASSERT_TRUE(atFloor.has_value());
  EXPECT_EQ(lat.node(*atFloor).glob, "SC/3");
  auto atBuilding = lat.atGranularity(p, 0);
  ASSERT_TRUE(atBuilding.has_value());
  EXPECT_EQ(lat.node(*atBuilding).glob, "SC");
}

TEST(RegionLatticeTest, OverlappingDerivedRegions) {
  // The east wing overlaps floor 3; a point in both chains through whichever
  // containment order applies (wing is not inside the floor, so both appear
  // with the building as common parent).
  RegionLattice lat = buildingLattice();
  auto chain = lat.chainAt({70, 25});  // inside SC, SC/3 and SC/EastWing
  std::vector<std::string> names;
  for (auto i : chain) names.push_back(lat.node(i).glob);
  EXPECT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "SC");
}

// --- LocationService integration ---------------------------------------------------

struct ServiceFixture {
  VirtualClock clock;
  db::SpatialDatabase db;
  LocationService service;

  ServiceFixture()
      : db(clock, geo::Rect::fromOrigin({0, 0}, 100, 50), "SC"), service(clock, db) {
    db::SpatialObjectRow building;
    building.id = SpatialObjectId{"SC"};
    building.globPrefix = "";
    building.objectType = db::ObjectType::Building;
    building.geometryType = db::GeometryType::Polygon;
    building.points = {{0, 0}, {100, 0}, {100, 50}, {0, 50}};
    db.addObject(building);

    db::SpatialObjectRow room;
    room.id = SpatialObjectId{"roomA"};
    room.globPrefix = "SC";
    room.objectType = db::ObjectType::Room;
    room.geometryType = db::GeometryType::Polygon;
    room.points = {{0, 0}, {20, 0}, {20, 20}, {0, 20}};
    db.addObject(room);

    db::SensorMeta ubi;
    ubi.sensorId = SensorId{"ubi-1"};
    ubi.sensorType = "Ubisense";
    ubi.errorSpec = quality::ubisenseSpec(1.0);
    ubi.scaleMisidentifyByArea = true;
    ubi.quality.ttl = sec(30);
    db.registerSensor(ubi);
  }

  void place(const char* person, geo::Point2 where) {
    db::SensorReading r;
    r.sensorId = SensorId{"ubi-1"};
    r.sensorType = "Ubisense";
    r.mobileObjectId = MobileObjectId{person};
    r.location = where;
    r.detectionRadius = 0.5;
    r.detectionTime = clock.now();
    service.ingest(r);
  }
};

TEST(ServiceRegionsTest, DefineRegionAppearsInLatticeAndDb) {
  ServiceFixture f;
  f.service.defineRegion("SC/roomA/deskzone", geo::Rect::fromOrigin({2, 2}, 6, 6),
                         {{"purpose", "focus"}});
  const auto& lat = f.service.regionLattice();
  auto idx = lat.find("SC/roomA/deskzone");
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(lat.node(*idx).properties.at("purpose"), "focus");
  // Stored as a database row too.
  auto row = f.service.database().objectByGlob("SC/roomA/deskzone");
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->properties.at("region"), "app");
}

TEST(ServiceRegionsTest, LocateSymbolicUsesAppRegions) {
  ServiceFixture f;
  f.service.defineRegion("SC/roomA/deskzone", geo::Rect::fromOrigin({2, 2}, 6, 6));
  f.place("alice", {4, 4});
  auto symbolic = f.service.locateSymbolic(MobileObjectId{"alice"});
  ASSERT_TRUE(symbolic.has_value());
  EXPECT_EQ(symbolic->str(), "SC/roomA/deskzone") << "most specific region wins";
}

TEST(ServiceRegionsTest, SymbolicChain) {
  ServiceFixture f;
  f.service.defineRegion("SC/roomA/deskzone", geo::Rect::fromOrigin({2, 2}, 6, 6));
  f.place("alice", {4, 4});
  auto chain = f.service.symbolicChainFor(MobileObjectId{"alice"});
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain[0], "SC");
  EXPECT_EQ(chain[1], "SC/roomA");
  EXPECT_EQ(chain[2], "SC/roomA/deskzone");
}

TEST(ServiceRegionsTest, ReindexAfterDirectDbMutation) {
  ServiceFixture f;
  f.place("alice", {30, 30});  // outside roomA, inside the building
  auto before = f.service.locateSymbolic(MobileObjectId{"alice"});
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(before->str(), "SC");
  // A new room added behind the service's back is invisible until reindex.
  db::SpatialObjectRow room;
  room.id = SpatialObjectId{"roomB"};
  room.globPrefix = "SC";
  room.objectType = db::ObjectType::Room;
  room.geometryType = db::GeometryType::Polygon;
  room.points = {{25, 25}, {40, 25}, {40, 40}, {25, 40}};
  f.service.database().addObject(room);
  EXPECT_EQ(f.service.locateSymbolic(MobileObjectId{"alice"})->str(), "SC");
  f.service.reindexRegions();
  EXPECT_EQ(f.service.locateSymbolic(MobileObjectId{"alice"})->str(), "SC/roomB");
}

TEST(ServiceRegionsTest, UsageRegions) {
  ServiceFixture f;
  db::SpatialObjectRow display;
  display.id = SpatialObjectId{"display1"};
  display.globPrefix = "SC";
  display.objectType = db::ObjectType::Display;
  display.geometryType = db::GeometryType::Point;
  display.points = {{10, 19}};
  // §4.6.2b: "he has to be within the usage region of the object".
  f.service.addStaticObject(display, geo::Rect::fromOrigin({6, 12}, 8, 7));

  ASSERT_TRUE(f.service.usageRegion(SpatialObjectId{"display1"}).has_value());
  EXPECT_EQ(f.service.usageRegion(SpatialObjectId{"ghost"}), std::nullopt);

  f.place("alice", {10, 15});  // inside the usage region
  f.place("bob", {3, 3});      // in roomA but outside it
  EXPECT_GT(f.service.usageProbability(MobileObjectId{"alice"}, SpatialObjectId{"display1"}),
            0.8);
  EXPECT_DOUBLE_EQ(
      f.service.usageProbability(MobileObjectId{"bob"}, SpatialObjectId{"display1"}), 0.0);
  EXPECT_DOUBLE_EQ(
      f.service.usageProbability(MobileObjectId{"alice"}, SpatialObjectId{"ghost"}), 0.0);
}

TEST(ServiceRegionsTest, SymbolicCoordinateConversion) {
  // §3: "MiddleWhere also allows easy conversion between the two forms of
  // location data."
  ServiceFixture f;
  auto rect = f.service.resolveRegion("SC/roomA");
  ASSERT_TRUE(rect.has_value());
  EXPECT_EQ(*rect, geo::Rect::fromOrigin({0, 0}, 20, 20));
  EXPECT_EQ(f.service.resolveRegion("SC/ghost"), std::nullopt);

  auto symbolic = f.service.symbolicAt({5, 5});
  ASSERT_TRUE(symbolic.has_value());
  EXPECT_EQ(symbolic->str(), "SC/roomA");
  EXPECT_EQ(f.service.symbolicAt({500, 500}), std::nullopt);
}

TEST(ServiceRegionsTest, DefineRegionValidation) {
  ServiceFixture f;
  EXPECT_THROW(f.service.defineRegion("SC/x", geo::Rect{}), mw::util::ContractError);
  EXPECT_THROW(f.service.defineRegion("SC/(1,2)", geo::Rect::fromOrigin({0, 0}, 1, 1)),
               mw::util::ContractError)
      << "coordinate GLOBs cannot name regions";
}

}  // namespace
}  // namespace mw::core

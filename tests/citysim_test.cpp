// City generator determinism, the log-linear histogram and the population
// engine.
#include <gtest/gtest.h>

#include "citysim/city.hpp"
#include "citysim/crowd_monitor.hpp"
#include "citysim/histogram.hpp"
#include "citysim/population.hpp"
#include "core/location_service.hpp"
#include "util/clock.hpp"

using namespace mw;
using namespace mw::citysim;

namespace {

CityConfig smallCity() {
  CityConfig config;
  config.name = "Test";
  config.rows = 2;
  config.cols = 2;
  config.building.floors = 2;
  config.building.roomsPerSide = 3;
  return config;
}

}  // namespace

TEST(CityGenerator, SameConfigYieldsByteIdenticalFingerprint) {
  const CityBlueprint a = generateCity(smallCity());
  const CityBlueprint b = generateCity(smallCity());
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_FALSE(a.fingerprint().empty());
}

TEST(CityGenerator, DifferentConfigChangesFingerprint) {
  CityConfig other = smallCity();
  other.cols = 3;
  EXPECT_NE(generateCity(smallCity()).fingerprint(), generateCity(other).fingerprint());
}

TEST(CityGenerator, LayoutIsCollisionFreeAndConnected) {
  const CityBlueprint city = generateCity(smallCity());
  ASSERT_EQ(city.buildings.size(), 4u);
  // 2 streets + (cols+1) plazas per row.
  ASSERT_EQ(city.outdoors.size(), 2u + 2u * 3u);

  const reasoning::ConnectivityGraph graph = city.connectivity();
  // Room of one building to a room of the diagonally opposite building,
  // through entrance doors, plazas and streets.
  const auto route = graph.route("B0-0-101", "B1-1-251");
  ASSERT_TRUE(route.has_value());
  EXPECT_GT(route->regions.size(), 4u);
  // Outdoor circulation is reachable from inside.
  EXPECT_TRUE(graph.route("B0-0-100", "street-0").has_value());
}

TEST(CityGenerator, PopulatesDatabaseWithFramesInstalled) {
  const CityBlueprint city = generateCity(smallCity());
  util::VirtualClock clock;
  db::SpatialDatabase database(clock, city.universe, city.frames());
  city.populate(database);
  // Rooms + floors + doors + outdoor rows + city passages all landed.
  std::size_t doors = 0;
  for (const CityBuilding& b : city.buildings) doors += b.blueprint.doors.size();
  const std::size_t floors = city.buildings.size() * 2;
  EXPECT_EQ(database.objectCount(), city.roomCount() + floors + doors + city.outdoors.size() +
                                        city.passages.size());
  // A room row is queryable at its city-frame location.
  const sim::BlueprintRoom* room = city.roomNamed("B1-0-102");
  ASSERT_NE(room, nullptr);
  const auto rows = database.objectsContaining(room->rect.center());
  EXPECT_FALSE(rows.empty());
}

TEST(LatencyHistogramTest, ExactBelowSixtyFourAndBoundedErrorAbove) {
  LatencyHistogram h;
  for (std::uint64_t v = 0; v < 64; ++v) h.record(v);
  EXPECT_EQ(h.count(), 64u);
  EXPECT_EQ(h.valueAtPercentile(100), 63u);
  EXPECT_EQ(h.min(), 0u);

  LatencyHistogram big;
  const std::uint64_t value = 1'000'000;
  big.record(value);
  const std::uint64_t reported = big.valueAtPercentile(99);
  EXPECT_GE(reported, value);  // conservative: never under-states
  EXPECT_LE(static_cast<double>(reported),
            static_cast<double>(value) * (1.0 + 1.0 / 32));  // log-linear precision
}

TEST(LatencyHistogramTest, MergeAndPercentiles) {
  LatencyHistogram a, b;
  for (int i = 1; i <= 900; ++i) a.record(100);
  for (int i = 1; i <= 100; ++i) b.record(100'000);
  a.merge(b);
  EXPECT_EQ(a.count(), 1000u);
  EXPECT_EQ(a.valueAtPercentile(50), 100u);
  EXPECT_GE(a.valueAtPercentile(99), 100'000u * 31 / 32);
  EXPECT_EQ(a.valueAtPercentile(100), a.max());
  EXPECT_NEAR(a.mean(), (900.0 * 100 + 100.0 * 100'000) / 1000, 1.0);
}

TEST(PopulationTest, DeterministicReplay) {
  const CityBlueprint city = generateCity(smallCity());
  PopulationConfig config;
  config.commuters = 50;
  config.crowd = 30;
  config.vehicles = 20;
  config.staff = 10;

  Population a(city, config);
  Population b(city, config);
  ASSERT_EQ(a.size(), 110u);

  util::TimePoint now{};
  std::vector<db::SensorReading> ra, rb;
  for (int tick = 0; tick < 20; ++tick) {
    now += util::sec(1);
    ra.clear();
    rb.clear();
    a.step(now, util::sec(1), ra);
    b.step(now, util::sec(1), rb);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].mobileObjectId, rb[i].mobileObjectId);
      EXPECT_EQ(ra[i].location, rb[i].location);
      EXPECT_EQ(ra[i].sensorId, rb[i].sensorId);
    }
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.positionOf(i), b.positionOf(i));
  }
}

TEST(PopulationTest, ModelsEmitTheirTechnology) {
  const CityBlueprint city = generateCity(smallCity());
  PopulationConfig config;
  config.commuters = 40;
  config.crowd = 40;
  config.vehicles = 40;
  config.staff = 40;
  Population pop(city, config);

  util::TimePoint now{};
  std::vector<db::SensorReading> readings;
  std::size_t uwb = 0, gps = 0, badge = 0;
  for (int tick = 0; tick < 60; ++tick) {
    now += util::sec(1);
    readings.clear();
    pop.step(now, util::sec(1), readings);
    for (const db::SensorReading& r : readings) {
      EXPECT_EQ(r.globPrefix, "Test");
      if (r.sensorType == "Ubisense") {
        ++uwb;
        EXPECT_FALSE(r.symbolicRegion.has_value());
      } else if (r.sensorType == "GPS") {
        ++gps;
        EXPECT_EQ(r.detectionRadius, 15.0);
      } else if (r.sensorType == "CardReader") {
        ++badge;
        // Badge readings are symbolic: the whole room, on entry only.
        EXPECT_TRUE(r.symbolicRegion.has_value());
      } else {
        ADD_FAILURE() << "unexpected sensor type " << r.sensorType;
      }
    }
  }
  EXPECT_GT(uwb, 0u);
  EXPECT_GT(gps, 0u);
  EXPECT_GT(badge, 0u);
  EXPECT_EQ(pop.emitted(), static_cast<std::uint64_t>(uwb + gps + badge));
}

TEST(PopulationTest, EventAnnouncementDrawsCrowd) {
  const CityBlueprint city = generateCity(smallCity());
  PopulationConfig config;
  config.commuters = 0;
  config.crowd = 100;
  config.vehicles = 0;
  config.staff = 0;
  config.walkingSpeed = 10;  // compress the walk so the test converges fast
  Population pop(city, config);

  const OutdoorRegion* venue = pop.size() ? city.outdoorNamed("plaza-0-1") : nullptr;
  ASSERT_NE(venue, nullptr);
  pop.announceEvent(venue->rect);

  util::TimePoint now{};
  std::vector<db::SensorReading> readings;
  for (int tick = 0; tick < 240; ++tick) {
    now += util::sec(1);
    readings.clear();
    pop.step(now, util::sec(1), readings);
  }
  std::size_t atVenue = 0;
  for (std::size_t i = 0; i < pop.size(); ++i) {
    if (venue->rect.inflated(30).contains(pop.positionOf(i))) ++atVenue;
  }
  EXPECT_GT(atVenue, 50u);
}

TEST(CrowdMonitorTest, FlowCountersTrackMembershipChanges) {
  std::vector<WatchedRegion> regions{{"left", geo::Rect::fromOrigin({0, 0}, 10, 10)},
                                     {"right", geo::Rect::fromOrigin({20, 0}, 10, 10)}};
  // Scripted populations: obj-1 moves left -> right between sweeps.
  int sweep = 0;
  CrowdMonitor monitor(
      regions,
      [&](const geo::Rect& rect, double) {
        std::vector<std::pair<util::MobileObjectId, double>> out;
        const bool left = rect.lo().x == 0;
        if ((sweep == 0) == left) out.emplace_back(util::MobileObjectId{"obj-1"}, 0.9);
        return out;
      });
  monitor.sweep();
  sweep = 1;
  monitor.sweep();
  EXPECT_EQ(monitor.population("right"), 1u);
  const auto flows = monitor.topFlows(5);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].from, "left");
  EXPECT_EQ(flows[0].to, "right");
  EXPECT_EQ(flows[0].count, 1u);

  core::DensityNotification alarm;
  alarm.edge = cq::CountEdge::Rose;
  monitor.onDensity(alarm);
  alarm.edge = cq::CountEdge::Fell;
  monitor.onDensity(alarm);
  EXPECT_EQ(monitor.alarmCount(), 1u);
  EXPECT_EQ(monitor.clearCount(), 1u);
}

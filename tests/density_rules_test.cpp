// Aggregate standing rules (subscribeDensity): incremental counting vs a
// full-recompute oracle under churn and under every evidence change that
// arrives without a reading (TTL expiry, degrading tdfs, forced expiry,
// drops, purges, sensor (de)registration, prior changes, imports), and
// alarm edges. Wire/cluster parity is covered by the continuous-query and
// cluster suites — this file is the oracle equivalence the crowd-monitoring
// workload rests on.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "citysim/city.hpp"
#include "citysim/population.hpp"
#include "core/location_service.hpp"
#include "fusion/prior.hpp"
#include "quality/error_model.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

using namespace mw;

namespace {

struct DensityLog {
  std::mutex mutex;
  std::vector<core::DensityNotification> events;

  void push(const core::DensityNotification& n) {
    std::lock_guard lock(mutex);
    events.push_back(n);
  }
  [[nodiscard]] std::vector<core::DensityNotification> snapshot() {
    std::lock_guard lock(mutex);
    return events;
  }
};

}  // namespace

// Every density notification's count must equal the full-recompute oracle
// (objectsInRegion at that instant), and the final count after arbitrary
// churn must match a fresh poll — byte-identical alarm state, incrementally
// maintained.
TEST(DensityRules, CountsMatchFullRecomputeOracleUnderChurn) {
  citysim::CityConfig cityConfig;
  cityConfig.name = "Test";
  cityConfig.rows = 1;
  cityConfig.cols = 2;
  cityConfig.building.roomsPerSide = 2;
  const citysim::CityBlueprint city = citysim::generateCity(cityConfig);

  util::VirtualClock clock;
  db::SpatialDatabase database(clock, city.universe, city.frames());
  city.populate(database);
  citysim::CitySensors::registerAll(database);
  core::LocationService service(clock, database);

  const citysim::OutdoorRegion* venue = city.outdoorNamed("plaza-0-1");
  ASSERT_NE(venue, nullptr);

  DensityLog log;
  core::DensitySubscription spec;
  spec.region = venue->rect;
  // A lone small-box reading fuses to ~0.49 under the uniform-area prior
  // (the region is tiny relative to the city), so the workload threshold
  // sits below that: corroborated members count, single stale hints don't.
  spec.minProbability = 0.4;
  spec.limit = 8;
  spec.callback = [&](const core::DensityNotification& n) {
    // Oracle check inside the callback: the service's own full poll at this
    // instant must agree with the incrementally maintained count.
    EXPECT_EQ(n.count, service.objectsInRegion(n.region, 0.4).size());
    log.push(n);
  };
  const auto handle = service.subscribeDensity(spec);
  EXPECT_EQ(handle.initialCount, 0u);

  citysim::PopulationConfig popConfig;
  popConfig.commuters = 10;
  popConfig.crowd = 40;
  popConfig.vehicles = 10;
  popConfig.staff = 5;
  popConfig.walkingSpeed = 12;
  citysim::Population population(city, popConfig);
  population.announceEvent(venue->rect);

  std::vector<db::SensorReading> readings;
  for (int tick = 0; tick < 120; ++tick) {
    clock.advance(util::sec(1));
    readings.clear();
    population.step(clock.now(), util::sec(1), readings);
    for (const db::SensorReading& reading : readings) service.ingest(reading);
  }

  const auto events = log.snapshot();
  ASSERT_FALSE(events.empty());

  // Final incremental count == fresh full recompute.
  const std::size_t oracle = service.objectsInRegion(venue->rect, 0.4).size();
  EXPECT_EQ(events.back().count, oracle);
  EXPECT_GE(oracle, 8u);  // the crowd actually gathered past the limit

  // Edge discipline: alarms and all-clears alternate, starting with Rose,
  // and every edge crosses the limit in the right direction.
  bool over = false;
  for (const core::DensityNotification& n : events) {
    EXPECT_EQ(n.limit, 8u);
    if (n.edge == cq::CountEdge::Rose) {
      EXPECT_FALSE(over);
      EXPECT_GE(n.count, 8u);
      over = true;
    } else if (n.edge == cq::CountEdge::Fell) {
      EXPECT_TRUE(over);
      EXPECT_LT(n.count, 8u);
      over = false;
    }
  }
  EXPECT_TRUE(over);  // ended overcrowded
  // Exactly the notifications a full recompute would emit: consecutive
  // counts always differ (no duplicate/no-op events).
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_TRUE(events[i].count != events[i - 1].count ||
                events[i].edge != cq::CountEdge::None);
  }
}

TEST(DensityRules, UnsubscribeStopsNotifications) {
  citysim::CityConfig cityConfig;
  cityConfig.name = "Test";
  cityConfig.rows = 1;
  cityConfig.cols = 1;
  const citysim::CityBlueprint city = citysim::generateCity(cityConfig);

  util::VirtualClock clock;
  db::SpatialDatabase database(clock, city.universe, city.frames());
  city.populate(database);
  citysim::CitySensors::registerAll(database);
  core::LocationService service(clock, database);

  const citysim::OutdoorRegion* venue = city.outdoorNamed("plaza-0-0");
  ASSERT_NE(venue, nullptr);

  DensityLog log;
  core::DensitySubscription spec;
  spec.region = venue->rect;
  spec.minProbability = 0.3;  // a single GPS fix fuses to ~0.49 (area prior)
  spec.limit = 1;
  spec.callback = [&](const core::DensityNotification& n) { log.push(n); };
  const auto handle = service.subscribeDensity(spec);
  EXPECT_EQ(service.subscriptionCount(), 1u);

  db::SensorReading reading;
  reading.sensorId = util::SensorId{citysim::CitySensors::kGpsId};
  reading.sensorType = "GPS";
  reading.globPrefix = "Test";
  reading.mobileObjectId = util::MobileObjectId{"walker"};
  reading.location = venue->rect.center();
  reading.detectionRadius = 5;
  reading.detectionTime = clock.now();
  service.ingest(reading);
  const std::size_t before = log.snapshot().size();
  EXPECT_GE(before, 1u);
  EXPECT_EQ(log.snapshot().back().edge, cq::CountEdge::Rose);

  EXPECT_TRUE(service.unsubscribe(handle.id));
  EXPECT_EQ(service.subscriptionCount(), 0u);
  clock.advance(util::sec(1));
  reading.detectionTime = clock.now();
  service.ingest(reading);
  EXPECT_EQ(log.snapshot().size(), before);
}

namespace {

struct ModelRule {
  geo::Rect region;
  double minProbability;
  std::size_t limit;
};

db::SensorMeta modelSensor(const char* id, util::Duration ttl,
                           std::shared_ptr<const quality::TemporalDegradation> tdf = nullptr) {
  db::SensorMeta meta;
  meta.sensorId = util::SensorId{id};
  meta.sensorType = "Ubisense";
  meta.errorSpec = quality::ubisenseSpec(1.0);
  meta.quality.ttl = ttl;
  if (tdf) meta.quality.tdf = std::move(tdf);
  return meta;
}

}  // namespace

// A seeded model run: random sequential ingest mixed with every change
// that moves evidence without a reading. The oracle is the service's own
// full poll. Every notification's count must equal objectsInRegion at that
// instant, and after every step a probe reading at each rule's center must
// reveal the count a fresh poll gives. Each seed is printed, and every
// failure names its seed and step.
TEST(DensityRules, SeededModelMatchesPollsThroughOutOfBandChanges) {
  constexpr int kObjects = 14;
  constexpr int kSteps = 500;
  const geo::Rect universe = geo::Rect::fromOrigin({0, 0}, 100, 100);
  const std::vector<ModelRule> rules{
      {geo::Rect::fromOrigin({20, 20}, 30, 30), 0.4, 4},
      {geo::Rect::fromOrigin({40, 30}, 30, 30), 0.2, 3},
      {geo::Rect::fromOrigin({20, 20}, 30, 30), 0.2, 2},  // shares rule 0's alpha node
      // minProbability 0: every object whose evidence box touches the region
      // counts, so box changes alone (purge, drop, forced expiry) move it.
      {geo::Rect::fromOrigin({10, 10}, 50, 50), 0.0, 6},
  };
  const auto degrading = std::make_shared<quality::LinearDegradation>(util::sec(20));

  for (const std::uint64_t seed : {1, 2, 3, 4}) {
    std::printf("DensityRules model seed=%llu\n", static_cast<unsigned long long>(seed));
    SCOPED_TRACE("seed=" + std::to_string(seed));
    util::Rng rng{seed};
    util::VirtualClock clock;
    db::SpatialDatabase database(clock, universe, "SC");
    database.registerSensor(modelSensor("uwb", util::sec(6)));
    database.registerSensor(modelSensor("gps", util::sec(15)));
    database.registerSensor(modelSensor("rf", util::sec(10), degrading));  // due every tick
    bool gpsRegistered = true;
    bool priorInstalled = false;
    core::LocationService service(clock, database);

    auto objectName = [&] { return "o" + std::to_string(rng.uniformInt(0, kObjects - 1)); };
    auto sensorName = [&] {
      const char* sensors[] = {"uwb", "gps", "rf"};
      const char* sensor = sensors[rng.uniformInt(0, 2)];
      return std::string(!gpsRegistered && sensor == std::string("gps") ? "uwb" : sensor);
    };
    auto randomReading = [&](const std::string& object) {
      db::SensorReading r;
      r.sensorId = util::SensorId{sensorName()};
      r.sensorType = "Ubisense";
      r.globPrefix = "SC";
      r.mobileObjectId = util::MobileObjectId{object};
      r.location = rng.uniformInt(0, 9) < 7
                       ? geo::Point2{rng.uniform(10, 80), rng.uniform(10, 80)}
                       : geo::Point2{rng.uniform(0, 100), rng.uniform(0, 100)};
      r.detectionRadius = rng.uniform(0.5, 6);
      r.detectionTime = clock.now() - util::msec(rng.uniformInt(0, 4000));
      return r;
    };

    // Some population before the rules exist, so the seed is exercised.
    for (int i = 0; i < 20; ++i) service.ingest(randomReading(objectName()));

    std::string step = "subscribe";
    std::vector<std::size_t> reported(rules.size());
    for (std::size_t i = 0; i < rules.size(); ++i) {
      core::DensitySubscription sub;
      sub.region = rules[i].region;
      sub.minProbability = rules[i].minProbability;
      sub.limit = rules[i].limit;
      sub.callback = [&, i](const core::DensityNotification& n) {
        EXPECT_EQ(n.count, service.objectsInRegion(n.region, rules[i].minProbability).size())
            << "seed " << seed << ", " << step << ": rule " << i << " notified";
        reported[i] = n.count;
      };
      reported[i] = service.subscribeDensity(std::move(sub)).initialCount;
      ASSERT_EQ(reported[i], service.objectsInRegion(rules[i].region, rules[i].minProbability).size())
          << "seed " << seed << ": rule " << i << " seeded";
    }
    // A plain subscription on rule 0's region shares its alpha node.
    core::Subscription plain;
    plain.region = rules[0].region;
    plain.threshold = 0.3;
    plain.callback = [](const core::Notification&) {};
    service.subscribe(std::move(plain));

    for (int s = 0; s < kSteps; ++s) {
      const std::int64_t op = rng.uniformInt(0, 99);
      std::string what;
      if (op < 45) {
        const db::SensorReading r = randomReading(objectName());
        what = "ingest " + r.mobileObjectId.str() + "/" + r.sensorId.str();
        step = "step " + std::to_string(s) + " (" + what + ")";
        service.ingest(r);
      } else if (op < 65) {
        const util::Duration dt = util::msec(rng.uniformInt(0, 5000));
        what = "advance " + std::to_string(dt.count()) + " ms";
        clock.advance(dt);
      } else if (op < 70) {
        const std::string object = objectName();
        const std::string sensor = sensorName();
        what = "expire " + object + "/" + sensor;
        database.expireReadings(util::MobileObjectId{object}, util::SensorId{sensor});
      } else if (op < 74) {
        const std::string object = objectName();
        what = "drop " + object;
        (void)database.dropMobileObject(util::MobileObjectId{object});
      } else if (op < 78) {
        what = "purge";
        database.purgeExpired();
      } else if (op < 82) {
        if (gpsRegistered) {
          what = "deregister gps";
          ASSERT_TRUE(database.deregisterSensor(util::SensorId{"gps"}));
        } else {
          what = "register gps";
          database.registerSensor(modelSensor("gps", util::sec(15)));
        }
        gpsRegistered = !gpsRegistered;
      } else if (op < 85) {
        priorInstalled = !priorInstalled;
        what = priorInstalled ? "install prior" : "clear prior";
        if (priorInstalled) {
          auto prior = std::make_shared<fusion::RegionDwellPrior>(
              universe, std::vector<fusion::RegionDwellPrior::Cell>{
                            {"west", geo::Rect::fromOrigin({0, 0}, 40, 100)},
                            {"east", geo::Rect::fromOrigin({40, 0}, 60, 100)}});
          prior->observe("west", util::sec(30));
          service.setMovementPrior(std::move(prior));
        } else {
          service.setMovementPrior(nullptr);
        }
      } else {
        // A migration's gaining side: an existing or a brand-new object.
        const std::string object = rng.uniformInt(0, 1) == 0
                                       ? objectName()
                                       : "m" + std::to_string(rng.uniformInt(0, 5));
        std::vector<db::SensorReading> log;
        for (std::int64_t i = rng.uniformInt(1, 3); i > 0; --i) log.push_back(randomReading(object));
        what = "import " + object;
        service.importBatch(log);
      }

      // Probe every rule: the reading hits the rule, so its count is read
      // and reported if it changed since the last report.
      for (std::size_t i = 0; i < rules.size(); ++i) {
        step = "step " + std::to_string(s) + " (" + what + "), probe of rule " +
               std::to_string(i);
        db::SensorReading probe;
        probe.sensorId = util::SensorId{"uwb"};
        probe.sensorType = "Ubisense";
        probe.globPrefix = "SC";
        probe.mobileObjectId = util::MobileObjectId{"probe"};
        probe.location = rules[i].region.center();
        probe.detectionRadius = 0.5;
        probe.detectionTime = clock.now();
        service.ingest(probe);
        ASSERT_EQ(reported[i],
                  service.objectsInRegion(rules[i].region, rules[i].minProbability).size())
            << "seed " << seed << ", " << step;
      }
    }
  }
}

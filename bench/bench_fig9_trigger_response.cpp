// Figure 9 reproduction: trigger response time.
//
// "Figure 9 shows the time taken for a trigger to be notified by
// MiddleWhere. The graph shows the trigger response times for 10 different
// updates to the location service. The various curves indicate the number
// of trigger notifications programmed into the location service. We
// expected the response time to increase with the number of programmed
// triggers but we found that the response time was almost independent of
// it. ... the first update requires a higher trigger response time than
// subsequent updates. This is due to the initial setup time."
//
// Setup mirrors the paper's: the Location Service runs behind the MicroOrb
// over TCP loopback (their Orbacus/CORBA); an adapter client pushes a
// location update; the response time is measured from the ingest call to
// the arrival of the notification event at a subscribed application client.
// N "programmed triggers" = N-1 region subscriptions the update does not
// satisfy plus 1 on the target region.
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <vector>

#include "core/middlewhere.hpp"
#include "sim/blueprint.hpp"

using namespace mw;
using Clock = std::chrono::steady_clock;

namespace {

struct Waiter {
  std::mutex m;
  std::condition_variable cv;
  int seen = 0;
  void notify() {
    {
      std::lock_guard lock(m);
      ++seen;
    }
    cv.notify_all();
  }
  void await(int target) {
    std::unique_lock lock(m);
    cv.wait(lock, [&] { return seen >= target; });
  }
};

}  // namespace

int main() {
  std::printf("# Figure 9: trigger response time per location update\n");
  std::printf("# stack: adapter -> TCP MicroOrb -> spatial DB -> fusion -> trigger -> TCP event\n");
  std::printf("%-18s %-8s %s\n", "triggers", "update", "response_us");

  util::SystemClock clock;
  const std::vector<int> triggerCounts{1, 10, 100, 1000, 10000};
  constexpr int kUpdates = 10;

  std::vector<std::vector<double>> series;
  for (int triggers : triggerCounts) {
    // Fresh stack per curve, so update #1 pays the paper's setup cost
    // (first-call marshalling paths, lattice/page warm-up).
    sim::Blueprint building =
        sim::generateBlueprint({.building = "SC", .floors = 1, .roomsPerSide = 8});
    core::Middlewhere mw(clock, building.universe, building.frames());
    building.populate(mw.database());

    db::SensorMeta ubi;
    ubi.sensorId = util::SensorId{"ubi-1"};
    ubi.sensorType = "Ubisense";
    ubi.errorSpec = quality::ubisenseSpec(1.0);
    ubi.scaleMisidentifyByArea = true;
    ubi.quality.ttl = util::sec(30);
    mw.database().registerSensor(ubi);

    std::uint16_t port = mw.listen();
    auto appClient = core::Middlewhere::connectRemote("127.0.0.1", port);
    auto adapterClient = core::Middlewhere::connectRemote("127.0.0.1", port);

    Waiter waiter;
    const geo::Rect target = building.roomNamed("101")->rect;
    // The live trigger: fires on every update into room 101.
    appClient->subscribe(target, std::nullopt, 0.1,
                         [&](const core::Notification&) { waiter.notify(); });
    // The other programmed triggers watch far-away slivers the update never
    // touches (the paper scales the number of *programmed* triggers, not the
    // number that fire).
    for (int t = 1; t < triggers; ++t) {
      double x = building.universe.hi().x - 1.0 - 0.001 * t;
      appClient->subscribe(geo::Rect::fromOrigin({x, 60.0}, 0.5, 0.5), std::nullopt, 0.99,
                           [](const core::Notification&) {});
    }

    std::vector<double> responses;
    for (int update = 1; update <= kUpdates; ++update) {
      db::SensorReading r;
      r.sensorId = util::SensorId{"ubi-1"};
      r.sensorType = "Ubisense";
      r.mobileObjectId = util::MobileObjectId{"alice"};
      r.location = target.center() + geo::Point2{0.01 * update, 0};
      r.detectionRadius = 0.5;
      r.detectionTime = clock.now();

      auto start = Clock::now();
      adapterClient->ingest(r);
      waiter.await(update);
      auto us = std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
                    Clock::now() - start)
                    .count();
      responses.push_back(us);
      std::printf("%-18d %-8d %.1f\n", triggers, update, us);
    }
    series.push_back(responses);
  }

  // Shape summary: independence from trigger count and first-update spike.
  std::printf("\n# summary (mean of updates 2..10, us)\n");
  std::printf("%-18s %-14s %-14s\n", "triggers", "first_update", "steady_mean");
  for (std::size_t i = 0; i < series.size(); ++i) {
    double steady = 0;
    for (int u = 1; u < kUpdates; ++u) steady += series[i][static_cast<std::size_t>(u)];
    steady /= (kUpdates - 1);
    std::printf("%-18d %-14.1f %-14.1f\n", triggerCounts[i], series[i][0], steady);
  }

  // Beyond the paper: trigger response under batch ingest. 64 people report
  // at once through ingestBatch; the live trigger watches one of them.
  // Response time = ingestBatch call to notification arrival, in-process (no
  // ORB hop) so the number isolates the fusion/trigger path.
  std::printf("\n# batch ingest: 64 people x 2 readings, trigger on 1 region\n");
  std::printf("%-8s %s\n", "update", "batch_us");
  {
    sim::Blueprint building =
        sim::generateBlueprint({.building = "SC", .floors = 1, .roomsPerSide = 8});
    core::Middlewhere mw(clock, building.universe, building.frames());
    building.populate(mw.database());

    db::SensorMeta ubi;
    ubi.sensorId = util::SensorId{"ubi-1"};
    ubi.sensorType = "Ubisense";
    ubi.errorSpec = quality::ubisenseSpec(1.0);
    ubi.scaleMisidentifyByArea = true;
    ubi.quality.ttl = util::sec(30);
    mw.database().registerSensor(ubi);
    db::SensorMeta ubi2 = ubi;
    ubi2.sensorId = util::SensorId{"ubi-2"};
    mw.database().registerSensor(ubi2);

    core::LocationService& service = mw.locationService();

    Waiter waiter;
    const geo::Rect target = building.roomNamed("101")->rect;
    service.subscribe({target, util::MobileObjectId{"p0"}, 0.1, std::nullopt, false,
                       [&](const core::Notification&) { waiter.notify(); }});

    for (int update = 1; update <= kUpdates; ++update) {
      std::vector<db::SensorReading> batch;
      for (int p = 0; p < 64; ++p) {
        geo::Point2 where = p == 0 ? target.center()
                                   : geo::Point2{1.0 + (p % 30) * 2.0, 1.0 + (p / 30) * 2.0};
        for (int s = 1; s <= 2; ++s) {
          db::SensorReading r;
          r.sensorId = util::SensorId{"ubi-" + std::to_string(s)};
          r.sensorType = "Ubisense";
          r.mobileObjectId = util::MobileObjectId{"p" + std::to_string(p)};
          r.location = where + geo::Point2{0.01 * update, 0.005 * s};
          r.detectionRadius = 0.5;
          r.detectionTime = clock.now();
          batch.push_back(std::move(r));
        }
      }
      auto start = Clock::now();
      service.ingestBatch(batch);
      waiter.await(update);
      auto us = std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
                    Clock::now() - start)
                    .count();
      std::printf("%-8d %.1f\n", update, us);
    }
  }
  return 0;
}

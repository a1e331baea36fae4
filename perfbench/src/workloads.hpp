// The three workloads and the per-layer ladder they share in traced runs.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "city.hpp"
#include "common.hpp"

namespace perfbench {

Result runCityRush(const Args& args);
Result runCityLookup(const Args& args);
Result runVenueRules(const Args& args);

/// Sampled requests of each kind a traced run replays through the ladder.
inline constexpr std::size_t kLadderRequests = 300;

/// What a traced run replays through the layer ladder: the data every depth
/// holds, the sampled requests, and the standing-rule regions of the
/// workload (for the direct cq::TriggerNetwork::match timing).
struct LadderInputs {
  const CityWorld* world = nullptr;
  const std::vector<db::SensorReading>* preload = nullptr;
  std::vector<db::SensorReading> ingests;
  std::vector<util::MobileObjectId> locates;
  std::vector<geo::Rect> regions;
  /// The workload's standing rules: region and optional subject.
  std::vector<std::pair<geo::Rect, std::optional<std::string>>> rules;
  /// Report the cluster counters from the ladder's own cluster (for a
  /// workload that runs no cluster itself).
  bool clusterCounters = false;
};

/// Replays the sampled requests, one request id per request, through the
/// cluster router, a RemoteLocationClient to one ShardHost, and an
/// in-process LocationService, all holding the same data; times the inner
/// layers directly. Adds the cluster/orb/core/spatialdb/cq/fusion timing
/// metrics and writes every span to `spans`.
void runLadder(const LadderInputs& inputs, SpanRecorder& spans, Result& result);

/// Counter metrics read from a cluster's public getters after a run.
/// `baselineConnections` is what the shards served after warm-up.
void addClusterCounters(Cluster& cluster, std::size_t baselineConnections, Result& result);
/// Counter metrics read from one or more services after a run; ratios are
/// over the summed counters. `readings` is what was ingested into them.
void addServiceCounters(const std::vector<core::LocationService*>& services,
                        std::uint64_t readings, std::uint64_t fusionMissesDuringIngest,
                        std::size_t residentObjects, Result& result);

/// Writes a traced run's spans where --spans-out points.
void writeSpans(const Args& args, const SpanRecorder& spans, Result& result);
/// The tracing overhead on the primary class's median, against an untraced
/// run of the same phase.
void addOverhead(double untracedMs, double tracedMs, Result& result);

}  // namespace perfbench

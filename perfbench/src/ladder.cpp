// The layer ladder of a traced run: the same sampled requests, one request
// id each, through three depths holding the same data —
//   1. ClusterLocationService (router + ORB + shard core),
//   2. RemoteLocationClient to one ShardHost (ORB + core),
//   3. an in-process LocationService (core),
// so differences between depths give each layer's self time. The inner
// layers below core are timed by calling them directly.
#include <algorithm>
#include <cstdio>
#include <string>

#include "cq/trigger_network.hpp"
#include "orb/rpc.hpp"
#include "orb/tcp.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

double medianUs(const std::vector<double>& ns) { return median(ns) / 1e3; }

/// Per-depth call durations of one request kind, in nanoseconds.
struct DepthTimes {
  std::vector<double> cluster, orb, core;
};

/// Times one request at the three depths, recording a root span and one
/// child span per depth under request id `request`.
template <typename C, typename O, typename L>
void climb(SpanRecorder& spans, std::uint64_t request, const std::string& op, DepthTimes& times,
           C&& viaCluster, O&& viaOrb, L&& inProcess) {
  const std::int64_t rootStart = nowNs();
  const std::int64_t t0 = nowNs();
  viaCluster();
  const std::int64_t t1 = nowNs();
  viaOrb();
  const std::int64_t t2 = nowNs();
  inProcess();
  const std::int64_t t3 = nowNs();
  const std::uint64_t root = spans.record(request, 0, "ladder." + op, rootStart, t3);
  spans.record(request, root, "cluster." + op, t0, t1);
  spans.record(request, root, "orb." + op, t1, t2);
  spans.record(request, root, "core." + op, t2, t3);
  times.cluster.push_back(static_cast<double>(t1 - t0));
  times.orb.push_back(static_cast<double>(t2 - t1));
  times.core.push_back(static_cast<double>(t3 - t2));
}

}  // namespace

void runLadder(const LadderInputs& in, SpanRecorder& spans, Result& result) {
  const CityWorld& world = *in.world;
  Cluster cluster(world, kShards);
  preload(*cluster.router, *in.preload);
  const std::size_t baselineConnections = cluster.servedConnections();

  // One shard on the cluster's transport (TCP loopback, see Cluster).
  core::RegistryServer registry;
  cluster::ShardHost::Options hostOptions;
  hostOptions.enableShm = false;
  cluster::ShardHost host(world.clock, world.city.universe, world.city.name, "127.0.0.1",
                          registry.port(), hostOptions);
  installCity(world.city, host.core().database());
  host.start();
  core::RemoteLocationClient remote(
      std::make_shared<mw::orb::RpcClient>(mw::orb::tcpConnect("127.0.0.1", host.port())));
  for (std::size_t i = 0; i < in.preload->size(); i += 1024) {
    const std::size_t n = std::min<std::size_t>(1024, in.preload->size() - i);
    remote.ingestBatch(std::span<const db::SensorReading>(in.preload->data() + i, n));
  }

  LocalService local(world);
  for (const auto& reading : *in.preload) local.service.ingest(reading);

  std::uint64_t request = 0;
  DepthTimes ingest, locate, region;
  for (const auto& reading : in.ingests) {
    climb(
        spans, ++request, "ingest", ingest, [&] { cluster.router->ingest(reading); },
        [&] { remote.ingest(reading); }, [&] { local.service.ingest(reading); });
  }
  for (const auto& object : in.locates) {
    climb(
        spans, ++request, "locate", locate, [&] { (void)cluster.router->locate(object); },
        [&] { (void)remote.locate(object); }, [&] { (void)local.service.locateObject(object); });
  }
  for (const auto& rect : in.regions) {
    climb(
        spans, ++request, "region", region,
        [&] { (void)cluster.router->objectsInRegion(rect, kMinProbability); },
        [&] { (void)remote.objectsInRegion(rect, kMinProbability); },
        [&] { (void)local.service.objectsInRegion(rect, kMinProbability); });
  }
  std::vector<double> pings;
  for (int i = 0; i < 200; ++i) pings.push_back(static_cast<double>(timeNs([&] { remote.ping(); })));

  // Inner layers, called directly.
  db::SpatialDatabase scratch(world.clock, world.city.universe, world.city.name);
  installCity(world.city, scratch);
  for (const auto& reading : *in.preload) (void)scratch.insertReading(reading);
  std::vector<double> inserts;
  for (const auto& reading : in.ingests) {
    inserts.push_back(static_cast<double>(timeNs([&] { (void)scratch.insertReading(reading); })));
  }

  mw::cq::TriggerNetwork network;
  for (std::size_t i = 0; i < in.rules.size(); ++i) {
    network.installProduction(i + 1, in.rules[i].first, in.rules[i].second);
  }
  std::vector<double> matches;
  std::vector<mw::cq::ProductionId> matched;
  std::size_t matchedTotal = 0;
  for (const auto& reading : in.ingests) {
    const geo::Rect box = reading.rect();
    const std::string& object = reading.mobileObjectId.str();
    matches.push_back(
        static_cast<double>(timeNs([&] { network.match(box, object, matched); })));
    matchedTotal += matched.size();
  }

  std::vector<double> fuses;
  for (const auto& object : in.locates) {
    local.service.invalidateFusionCache();
    fuses.push_back(
        static_cast<double>(timeNs([&] { (void)local.service.fusedStateFor(object); })));
  }

  result.metric("cluster.ingest_self_us", medianUs(ingest.cluster) - medianUs(ingest.orb), "us");
  result.metric("cluster.locate_self_us", medianUs(locate.cluster) - medianUs(locate.orb), "us");
  result.metric("cluster.region_self_us", medianUs(region.cluster) - medianUs(region.orb), "us");
  result.metric("orb.ping_us", medianUs(pings), "us");
  result.metric("orb.ingest_self_us", medianUs(ingest.orb) - medianUs(ingest.core), "us");
  result.metric("orb.locate_self_us", medianUs(locate.orb) - medianUs(locate.core), "us");
  result.metric("orb.region_self_us", medianUs(region.orb) - medianUs(region.core), "us");
  result.metric("core.ingest_us", medianUs(ingest.core), "us");
  result.metric("core.locate_us", medianUs(locate.core), "us");
  result.metric("core.region_us", medianUs(region.core), "us");
  result.metric("spatialdb.insert_us", medianUs(inserts), "us");
  result.metric("cq.match_us", medianUs(matches), "us");
  result.metric("cq.matches_per_ingest",
                in.ingests.empty() ? 0
                                   : static_cast<double>(matchedTotal) /
                                         static_cast<double>(in.ingests.size()),
                "count");
  result.metric("fusion.fuse_us", medianUs(fuses), "us");
  result.linef("  ladder: %zu ingests, %zu locates, %zu region polls, %zu spans", in.ingests.size(),
               in.locates.size(), in.regions.size(), spans.size());
  if (in.clusterCounters) addClusterCounters(cluster, baselineConnections, result);
}

void writeSpans(const Args& args, const SpanRecorder& spans, Result& result) {
  if (args.spansOut.empty()) return;
  if (spans.write(args.spansOut)) {
    result.linef("  %zu spans written to %s", spans.size(), args.spansOut.c_str());
  } else {
    result.linef("  could not write spans to %s", args.spansOut.c_str());
  }
}

void addOverhead(double untracedMs, double tracedMs, Result& result) {
  result.metric("trace.overhead_pct", untracedMs > 0 ? (tracedMs / untracedMs - 1) * 100 : 0,
                "%");
}

void addClusterCounters(Cluster& cluster, std::size_t baselineConnections, Result& result) {
  const auto stats = cluster.router->stats();
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  for (const auto& shard : stats.shards) {
    retries += shard.retries;
    timeouts += shard.timeouts;
  }
  std::uint64_t dispatched = 0;
  std::uint64_t inlined = 0;
  for (auto& host : cluster.hosts) {
    const auto rpc = host->core().rpcServer().stats();
    dispatched += rpc.dispatchedRequests;
    inlined += rpc.inlineRequests;
  }
  result.metric("cluster.object_migrations", static_cast<double>(stats.objectMigrations), "count");
  result.metric("cluster.handoff_sessions",
                static_cast<double>(cluster.servedConnections() - baselineConnections), "count");
  result.metric("cluster.shard_skew", cluster.shardSkew(), "ratio");
  result.metric("cluster.shards_per_region_query",
                stats.targetedRegionQueries == 0
                    ? 0
                    : static_cast<double>(stats.regionShardsQueried) /
                          static_cast<double>(stats.targetedRegionQueries),
                "count");
  result.metric("cluster.scatter_gathers", static_cast<double>(stats.scatterGathers), "count");
  result.metric("cluster.retries", static_cast<double>(retries), "count");
  result.metric("cluster.timeouts", static_cast<double>(timeouts), "count");
  result.metric("orb.dispatched_requests", static_cast<double>(dispatched), "count");
  result.metric("orb.inline_requests", static_cast<double>(inlined), "count");
}

void addServiceCounters(const std::vector<core::LocationService*>& services,
                        std::uint64_t readings, std::uint64_t fusionMissesDuringIngest,
                        std::size_t residentObjects, Result& result) {
  double hits = 0, misses = 0, regionHits = 0, regionMisses = 0, revalidations = 0;
  double contentions = 0, retries = 0, productions = 0, inside = 0;
  for (core::LocationService* service : services) {
    hits += static_cast<double>(service->fusionCacheHits());
    misses += static_cast<double>(service->fusionCacheMisses());
    regionHits += static_cast<double>(service->regionCacheHits());
    regionMisses += static_cast<double>(service->regionCacheMisses());
    revalidations += static_cast<double>(service->regionCacheRevalidations());
    contentions += static_cast<double>(service->ingestWriterContentions());
    retries += static_cast<double>(service->ingestSnapshotRetries());
    const auto rules = service->standingRuleStats();
    productions += static_cast<double>(rules.productions);
    inside += static_cast<double>(rules.insidePairs);
  }
  auto ratio = [](double a, double b) { return a + b == 0 ? 0 : a / (a + b); };
  result.metric("core.fusion_cache_hit_ratio", ratio(hits, misses), "ratio");
  result.metric("core.region_cache_hit_ratio", ratio(regionHits, regionMisses), "ratio");
  result.metric("core.region_cache_revalidations", revalidations, "count");
  result.metric("core.writer_contentions", contentions, "count");
  result.metric("core.snapshot_retries", retries, "count");
  result.metric("spatialdb.resident_objects", static_cast<double>(residentObjects), "count");
  result.metric("cq.productions", productions, "count");
  result.metric("cq.inside_pairs", inside, "count");
  result.metric("fusion.fuses_per_ingest",
                readings == 0 ? 0
                              : static_cast<double>(fusionMissesDuringIngest) /
                                    static_cast<double>(readings),
                "ratio");
}

}  // namespace perfbench

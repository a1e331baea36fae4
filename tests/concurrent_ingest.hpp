// Concurrent callers for the ingest oracle tests. ingestBatch applies its
// readings in order on the calling thread, so parallel ingest comes from
// callers (ORB dispatcher lanes, adapters); these tests drive it that way and
// compare the result with a sequential replay.
#pragma once

#include <algorithm>
#include <cstddef>
#include <latch>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/location_service.hpp"

namespace mw::core::testing {

/// Deals `readings` out by object over `callers` threads — objects go
/// round-robin in order of first appearance, so callers hold disjoint
/// objects and each object's readings keep their relative order — then
/// releases every caller at once to ingestBatch its share, `chunk` readings
/// per call. Returns when all callers have finished.
inline void ingestFromCallers(LocationService& service,
                              std::span<const db::SensorReading> readings,
                              std::size_t callers, std::size_t chunk = 16) {
  std::vector<std::vector<db::SensorReading>> shares(callers);
  std::unordered_map<std::string, std::size_t> callerOf;
  for (const auto& r : readings) {
    const std::size_t next = callerOf.size() % callers;
    shares[callerOf.try_emplace(r.mobileObjectId.str(), next).first->second].push_back(r);
  }
  std::latch start(static_cast<std::ptrdiff_t>(callers));
  std::vector<std::thread> threads;
  for (const auto& share : shares) {
    threads.emplace_back([&service, &share, &start, chunk] {
      start.arrive_and_wait();
      for (std::size_t i = 0; i < share.size(); i += chunk) {
        const std::size_t n = std::min(chunk, share.size() - i);
        service.ingestBatch(std::span(share).subspan(i, n));
      }
    });
  }
  for (auto& t : threads) t.join();
}

}  // namespace mw::core::testing

// WorkerPool: fixed lane-pinned threads behind the ORB request dispatcher.
#include "util/worker_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <latch>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace mw::util {
namespace {

TEST(WorkerPoolTest, RunsEveryJobExactlyOnce) {
  std::vector<std::atomic<int>> counts(64);
  {
    WorkerPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);
    for (std::size_t i = 0; i < counts.size(); ++i) {
      pool.post(i, [&counts, i] { counts[i].fetch_add(1); });
    }
  }  // destruction drains every lane
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(WorkerPoolTest, SequentialBatchesReuseThreads) {
  std::mutex m;
  std::set<std::thread::id> workers;
  WorkerPool pool(2);
  for (int batch = 0; batch < 10; ++batch) {
    std::latch done(4);
    for (std::size_t lane = 0; lane < 4; ++lane) {
      pool.post(lane, [&] {
        {
          std::lock_guard lock(m);
          workers.insert(std::this_thread::get_id());
        }
        done.count_down();
      });
    }
    done.wait();
  }
  std::lock_guard lock(m);
  EXPECT_EQ(workers.size(), pool.threadCount());  // four lanes, two threads
}

TEST(WorkerPoolTest, RejectsZeroThreads) { EXPECT_THROW(WorkerPool{0}, ContractError); }

TEST(WorkerPoolTest, PostedJobsOnOneLaneRunInFifoOrder) {
  WorkerPool pool(4);
  std::vector<int> seen;
  std::mutex m;
  std::promise<void> done;
  for (int i = 0; i < 100; ++i) {
    pool.post(2, [&, i] {
      std::lock_guard lock(m);
      seen.push_back(i);
      if (i == 99) done.set_value();
    });
  }
  done.get_future().wait();
  std::vector<int> expected(100);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(seen, expected);
}

TEST(WorkerPoolTest, LaneIndexWrapsModuloThreadCount) {
  WorkerPool pool(2);
  std::atomic<int> hits{0};
  std::promise<void> done;
  pool.post(0, [&] { hits.fetch_add(1); });
  pool.post(5, [&] { hits.fetch_add(1); });          // lane 5 % 2 == 1
  pool.post(1'000'003, [&] {                          // any index is legal
    hits.fetch_add(1);
    done.set_value();
  });
  done.get_future().wait();
  EXPECT_GE(hits.load(), 2);
}

TEST(WorkerPoolTest, PostedJobsDrainOnDestruction) {
  std::atomic<int> hits{0};
  {
    WorkerPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.post(static_cast<std::size_t>(i), [&hits] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        hits.fetch_add(1);
      });
    }
  }
  EXPECT_EQ(hits.load(), 64);
}

TEST(WorkerPoolTest, LanesRunInParallel) {
  // The job on lane 0 waits for one posted later to lane 1; that only
  // completes if lane 1 does not queue behind lane 0. Bounded wait, so a
  // serialized pool fails instead of hanging.
  WorkerPool pool(2);
  std::promise<void> laneOneRan;
  std::promise<bool> laneZeroSawIt;
  pool.post(0, [&] {
    laneZeroSawIt.set_value(laneOneRan.get_future().wait_for(std::chrono::seconds(10)) ==
                            std::future_status::ready);
  });
  pool.post(1, [&] { laneOneRan.set_value(); });
  EXPECT_TRUE(laneZeroSawIt.get_future().get());
}

TEST(WorkerPoolTest, EachLaneRunsOnOneThread) {
  // Lane pinning: every job of a lane runs on one worker, and lanes that
  // are equal modulo the thread count share it.
  constexpr std::size_t kLanes = 6;
  std::mutex m;
  std::vector<std::set<std::thread::id>> ranOn(kLanes);
  {
    WorkerPool pool(3);
    for (int round = 0; round < 20; ++round) {
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        pool.post(lane, [&m, &ranOn, lane] {
          std::lock_guard lock(m);
          ranOn[lane].insert(std::this_thread::get_id());
        });
      }
    }
  }
  for (const auto& ids : ranOn) ASSERT_EQ(ids.size(), 1u);
  for (std::size_t lane = 0; lane < 3; ++lane) {
    EXPECT_EQ(ranOn[lane], ranOn[lane + 3]);
    EXPECT_NE(ranOn[lane], ranOn[(lane + 1) % 3]);
  }
}

TEST(WorkerPoolTest, PostRejectsNullJob) {
  WorkerPool pool(1);
  EXPECT_THROW(pool.post(0, nullptr), ContractError);
}

}  // namespace
}  // namespace mw::util

#include "util/worker_pool.hpp"

#include "util/error.hpp"

namespace mw::util {

WorkerPool::WorkerPool(std::size_t threads) {
  require(threads >= 1, "WorkerPool: thread count must be >= 1");
  lanes_.resize(threads);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { workerLoop(i); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard lock(m_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

void WorkerPool::post(std::size_t lane, std::function<void()> fn) {
  require(static_cast<bool>(fn), "WorkerPool::post: null job");
  {
    std::lock_guard lock(m_);
    lanes_[lane % lanes_.size()].push_back(std::move(fn));
  }
  wake_.notify_all();
}

void WorkerPool::workerLoop(std::size_t index) {
  auto& lane = lanes_[index];
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock lock(m_);
      wake_.wait(lock, [&] { return stopping_ || !lane.empty(); });
      if (lane.empty()) return;  // stopping_ and the lane drained
      job = std::move(lane.front());
      lane.pop_front();
    }
    job();  // posted jobs must not throw (see header)
  }
}

}  // namespace mw::util

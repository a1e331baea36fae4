// Fixed set of lane-pinned worker threads behind the MicroOrb's request
// dispatcher (RpcServer::enableDispatcher). Deliberately minimal: threads
// created once, each draining its own FIFO lane, so requests posted to one
// lane run in order and lanes run in parallel — without an async framework.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mw::util {

class WorkerPool {
 public:
  /// Spawns `threads` workers (>= 1). Threads live until destruction.
  explicit WorkerPool(std::size_t threads);
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;
  ~WorkerPool();

  [[nodiscard]] std::size_t threadCount() const noexcept { return workers_.size(); }

  /// Asynchronous lane-pinned submission: `fn` runs on worker
  /// `lane % threadCount()`, after every job previously posted to that lane
  /// (FIFO per lane, no ordering across lanes). Returns as soon as the job
  /// is enqueued; jobs already posted when the destructor runs are drained
  /// before the threads exit. Posted jobs must not throw — there is no
  /// caller left to rethrow to, so an escaping exception terminates.
  void post(std::size_t lane, std::function<void()> fn);

 private:
  void workerLoop(std::size_t index);

  std::mutex m_;
  std::condition_variable wake_;
  /// One FIFO per worker.
  std::vector<std::deque<std::function<void()>>> lanes_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace mw::util

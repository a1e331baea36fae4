#include "orb/transport.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace mw::orb {

void Transport::sendv(util::ByteView header, util::ByteView payload) {
  util::Bytes frame;
  frame.reserve(header.size() + payload.size());
  frame.insert(frame.end(), header.data(), header.data() + header.size());
  frame.insert(frame.end(), payload.data(), payload.data() + payload.size());
  send(frame);
}

namespace {

/// Handler-install replays running on this thread, over all in-process
/// transports. A thread inside a replay never waits for another replay.
thread_local int tlsReplays = 0;

/// One endpoint of an in-process pair. Sending locks only the peer's state,
/// so a handler on side A may send back to side B without self-deadlock.
class InProcTransport final : public Transport,
                              public std::enable_shared_from_this<InProcTransport> {
 public:
  void send(const util::Bytes& frame) override {
    std::shared_ptr<InProcTransport> peer;
    {
      std::lock_guard lock(mutex_);
      if (!open_) throw util::TransportError("InProcTransport: closed");
      peer = peer_.lock();
    }
    if (!peer) throw util::TransportError("InProcTransport: peer gone");
    peer->deliver(frame);
  }

  void onReceive(Handler handler) override {
    // Replay the backlog in order while new deliveries wait for it to end
    // (see deliver()), so handler invocations stay serialized and in
    // arrival order, and the replay ends once the backlog is drained.
    std::unique_lock lock(mutex_);
    handler_ = std::move(handler);
    if (replaying_) return;  // an earlier install is already draining
    replaying_ = true;
    ++tlsReplays;
    inFlight_.push_back(std::this_thread::get_id());
    while (open_ && !pending_.empty() && handler_) {
      util::Bytes frame = std::move(pending_.front());
      pending_.pop_front();
      Handler h = handler_;
      lock.unlock();
      h(frame);
      lock.lock();
    }
    replaying_ = false;
    --tlsReplays;
    eraseInFlightLocked();
    lock.unlock();
    cv_.notify_all();
  }

  void close() override {
    std::unique_lock lock(mutex_);
    open_ = false;
    handler_ = nullptr;
    // Transport contract: after close() returns the handler is not invoked
    // again, so wait out invocations already in flight on other threads.
    // An entry for THIS thread means close() was called from inside the
    // handler — that invocation finishes by returning, not by waiting.
    const auto self = std::this_thread::get_id();
    cv_.wait(lock, [&] {
      return std::none_of(inFlight_.begin(), inFlight_.end(),
                          [&](std::thread::id id) { return id != self; });
    });
  }

  [[nodiscard]] bool isOpen() const override {
    std::lock_guard lock(mutex_);
    return open_ && !peer_.expired();
  }

  void bind(std::shared_ptr<InProcTransport> peer) {
    std::lock_guard lock(mutex_);
    peer_ = std::move(peer);
  }

 private:
  void deliver(util::ByteView frame) {
    Handler handler;
    {
      std::unique_lock lock(mutex_);
      // Back-pressure: a sender waits out a handler-install replay instead
      // of queueing behind it, or a sender faster than the handler would
      // keep the replay (and the installer) going forever. A thread that is
      // itself replaying queues instead: its own handler may send back here,
      // and two crossed replays must not wait on each other.
      if (tlsReplays == 0) cv_.wait(lock, [&] { return !replaying_ || !open_; });
      if (!open_) return;  // dropped silently, like a closed socket
      if (!handler_ || replaying_) {
        pending_.push_back(frame.toBytes());
        return;
      }
      handler = handler_;
      inFlight_.push_back(std::this_thread::get_id());
    }
    handler(frame);
    {
      std::lock_guard lock(mutex_);
      eraseInFlightLocked();
    }
    cv_.notify_all();
  }

  /// Removes one inFlight_ entry for the calling thread (mutex_ held).
  void eraseInFlightLocked() {
    const auto it = std::find(inFlight_.begin(), inFlight_.end(), std::this_thread::get_id());
    if (it != inFlight_.end()) inFlight_.erase(it);
  }

  mutable std::mutex mutex_;
  std::condition_variable cv_;  ///< close() waiting for in-flight handlers
  bool open_ = true;
  bool replaying_ = false;  ///< onReceive is draining pending_
  Handler handler_;
  std::deque<util::Bytes> pending_;
  std::vector<std::thread::id> inFlight_;  ///< threads inside the handler
  std::weak_ptr<InProcTransport> peer_;
};

}  // namespace

std::pair<std::shared_ptr<Transport>, std::shared_ptr<Transport>> makeInProcPair() {
  auto a = std::make_shared<InProcTransport>();
  auto b = std::make_shared<InProcTransport>();
  a->bind(b);
  b->bind(a);
  return {a, b};
}

}  // namespace mw::orb

#include "orb/event_loop.hpp"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/error.hpp"
#include "util/logging.hpp"

namespace mw::orb {

using mw::util::TransportError;

namespace {

/// Sanity cap on a frame: a length prefix beyond this is a protocol error
/// (or an attack), never a legitimate frame.
constexpr std::uint32_t kMaxFrame = 64 * 1024 * 1024;
/// Bytes buffered per connection before senders block (the flow control the
/// old blocking sendAll provided implicitly). The loop itself never blocks —
/// inline replies past the cap buffer unboundedly rather than deadlock the
/// loop that must flush them.
constexpr std::size_t kMaxSendBacklog = 8 * 1024 * 1024;
/// Receive chunk per readiness event; level-triggered epoll re-signals, so
/// one bounded read per event keeps delivery fair across connections.
constexpr std::size_t kReadChunk = 64 * 1024;

void closeFd(int fd) {
  if (fd >= 0) ::close(fd);
}

void setNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw TransportError("EventLoop: fcntl(O_NONBLOCK) failed");
  }
}

struct GroupCounters {
  std::atomic<std::uint64_t> framesIn{0};
  std::atomic<std::uint64_t> framesOut{0};
  std::atomic<std::uint64_t> bytesIn{0};
  std::atomic<std::uint64_t> bytesOut{0};
  std::atomic<std::uint64_t> oversizedFrames{0};
};

class EventLoop;

/// A reactor-owned connection. The receive buffer is touched only by the
/// loop thread; sends are serialized by sendMutex_ and try the socket
/// inline (one writev), spilling the remainder into backlog_ for the loop
/// to flush on EPOLLOUT. The fd is immutable and closed only by the
/// destructor, after the loop has dropped the connection — no thread can
/// race a recycled descriptor.
class EpollConn final : public Transport, public std::enable_shared_from_this<EpollConn> {
 public:
  EpollConn(EventLoop* loop, int fd, std::string peer, GroupCounters* counters)
      : loop_(loop), fd_(fd), peer_(std::move(peer)), counters_(counters) {}

  ~EpollConn() override { closeFd(fd_); }

  void send(const util::Bytes& frame) override { sendv(frame, {}); }
  void sendv(util::ByteView header, util::ByteView payload) override;
  bool trySend(const util::Bytes& frame) override;

  void onReceive(Handler handler) override {
    {
      std::lock_guard lock(handlerMutex_);
      handler_ = std::move(handler);
    }
    // The socket is read only from the first install on: earlier frames
    // are still in the kernel buffer, so the loop thread delivers them in
    // order and this thread never runs the handler.
    std::lock_guard lock(sendMutex_);
    if (reading_.exchange(true)) return;
    rearmLocked();
  }

  void close() override;

  [[nodiscard]] bool isOpen() const override { return open_.load(std::memory_order_acquire); }

  [[nodiscard]] std::uint64_t oversizedFrames() const override {
    return oversized_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] const std::string& peer() const noexcept { return peer_; }

  /// Loop thread: socket readable. Returns false when the connection died
  /// (EOF, error, oversized frame) and must be removed.
  bool handleReadable();
  /// Loop thread: socket writable — flush the backlog.
  void handleWritable();
  /// Marks the connection dead and wakes blocked senders. Loop thread or
  /// close().
  void markClosed();

  /// Loop thread: adds the fd to `epollFd`. Under sendMutex_, so an
  /// interest change made before registration (rearmLocked's
  /// EPOLL_CTL_MOD failed with ENOENT) is picked up here, and every later
  /// one finds the fd registered.
  [[nodiscard]] bool registerWith(int epollFd) {
    std::lock_guard lock(sendMutex_);
    writeArmed_ = backlogPos_ < backlog_.size();
    epoll_event ev{};
    ev.events = interestLocked();
    ev.data.fd = fd_;
    return ::epoll_ctl(epollFd, EPOLL_CTL_ADD, fd_, &ev) == 0;
  }

 private:
  void deliver(util::ByteView frame) {
    Handler handler;
    {
      std::lock_guard lock(handlerMutex_);
      handler = handler_;
    }
    handler(frame);
  }

  /// Appends to backlog_ and arms EPOLLOUT (sendMutex_ held).
  void spill(const std::uint8_t* data, std::size_t n);
  /// EPOLLIN once a handler is installed, EPOLLOUT while the backlog is
  /// unflushed (sendMutex_ held).
  [[nodiscard]] std::uint32_t interestLocked() const {
    return (reading_.load() ? EPOLLIN : 0u) | (writeArmed_ ? EPOLLOUT : 0u);
  }
  /// Applies interestLocked() to the registered fd (sendMutex_ held).
  /// False when the fd is not registered: registerWith() has not run yet
  /// and will apply the interest itself, or the loop already dropped it.
  bool rearmLocked();
  void armWriteLocked();
  /// One framed gather-send: socket fast path, spilling leftovers to the
  /// backlog (sendMutex_ held; caller has settled backpressure).
  void transmitLocked(util::ByteView header, util::ByteView payload);

  EventLoop* const loop_;
  const int fd_;
  const std::string peer_;
  GroupCounters* const counters_;

  std::atomic<bool> open_{true};

  std::mutex sendMutex_;
  std::condition_variable sendCv_;       ///< senders blocked on backlog_ room
  std::vector<std::uint8_t> backlog_;    ///< unflushed outbound bytes, in order
  std::size_t backlogPos_ = 0;           ///< flushed prefix of backlog_
  bool writeArmed_ = false;

  std::mutex handlerMutex_;
  Handler handler_;
  /// Set by the first onReceive; the socket is not read before.
  std::atomic<bool> reading_{false};

  // Receive state: loop thread only.
  std::vector<std::uint8_t> rbuf_;
  std::size_t rpos_ = 0;  ///< parse offset
  std::size_t rend_ = 0;  ///< filled bytes

  std::atomic<std::uint64_t> oversized_{0};
};

/// One epoll thread. Connections register/deregister through tasks executed
/// on the loop thread, so the fd->connection map needs no lock; foreign
/// threads wake the loop through an eventfd.
class EventLoop {
 public:
  explicit EventLoop(GroupCounters* counters) : counters_(counters) {
    epollFd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epollFd_ < 0) throw TransportError("EventLoop: epoll_create1 failed");
    wakeFd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (wakeFd_ < 0) {
      closeFd(epollFd_);
      throw TransportError("EventLoop: eventfd failed");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = wakeFd_;
    ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, wakeFd_, &ev);
    thread_ = std::thread([this] { run(); });
  }

  ~EventLoop() {
    {
      std::lock_guard lock(taskMutex_);
      stopping_ = true;
    }
    wake();
    if (thread_.joinable()) thread_.join();
    closeFd(wakeFd_);
    closeFd(epollFd_);
  }

  [[nodiscard]] GroupCounters* counters() const noexcept { return counters_; }
  [[nodiscard]] int epollFd() const noexcept { return epollFd_; }
  [[nodiscard]] bool onLoopThread() const noexcept {
    return std::this_thread::get_id() == thread_.get_id();
  }

  void add(std::shared_ptr<EpollConn> conn) {
    post([this, conn = std::move(conn)] {
      if (stopped_) {
        conn->markClosed();
        return;
      }
      if (!conn->registerWith(epollFd_)) {
        conn->markClosed();
        return;
      }
      conns_.emplace(conn->fd(), std::move(conn));
      connCount_.fetch_add(1, std::memory_order_relaxed);
    });
  }

  /// Removes the connection and returns only when no further handler
  /// invocation can happen — the synchronization close() promises.
  void removeSync(const std::shared_ptr<EpollConn>& conn) {
    if (onLoopThread()) {
      removeNow(conn->fd(), conn.get());
      return;
    }
    auto done = std::make_shared<std::atomic<bool>>(false);
    const bool posted = post([this, fd = conn->fd(), raw = conn.get(), done] {
      removeNow(fd, raw);
      done->store(true, std::memory_order_release);
      std::lock_guard lock(taskMutex_);
      taskCv_.notify_all();
    });
    if (!posted) return;  // loop already stopped and drained — nothing runs
    std::unique_lock lock(taskMutex_);
    taskCv_.wait(lock, [&] { return done->load(std::memory_order_acquire); });
  }

  /// Queues a task for the loop thread. False when the loop has stopped.
  bool post(std::function<void()> task) {
    {
      std::lock_guard lock(taskMutex_);
      if (stopping_) return false;
      tasks_.push_back(std::move(task));
    }
    wake();
    return true;
  }

  void wake() {
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wakeFd_, &one, sizeof(one));
  }

  [[nodiscard]] std::size_t connectionCount() const {
    return connCount_.load(std::memory_order_relaxed);
  }

 private:
  void run() {
    std::vector<epoll_event> events(64);
    for (;;) {
      int n = ::epoll_wait(epollFd_, events.data(), static_cast<int>(events.size()), -1);
      if (n < 0) {
        if (errno == EINTR) continue;  // signals are not shutdown
        break;
      }
      for (int i = 0; i < n; ++i) {
        const epoll_event& ev = events[i];
        if (ev.data.fd == wakeFd_) {
          std::uint64_t buf;
          while (::read(wakeFd_, &buf, sizeof(buf)) > 0) {
          }
          continue;
        }
        // Pin by fd: an earlier event in this batch may have removed the
        // connection, so the map lookup is the validity check.
        auto it = conns_.find(ev.data.fd);
        if (it == conns_.end()) continue;
        std::shared_ptr<EpollConn> conn = it->second;
        if ((ev.events & EPOLLOUT) != 0) conn->handleWritable();
        if ((ev.events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) {
          if (!conn->handleReadable()) removeNow(conn->fd(), conn.get());
        }
      }
      // Tasks drain only AFTER the wakeFd counter has been consumed above.
      // The reverse order loses wakeups: a task posted between the drain
      // and the eventfd read would have its signal swallowed with the task
      // still queued — stranded until some unrelated event arrives.
      drainTasks();
      if (stoppingRequested()) break;
    }
    // Shutdown: run straggler tasks (registrations mark their connection
    // closed via the stopped_ flag), then drop every connection.
    stopped_ = true;
    drainTasks();
    for (auto& [fd, conn] : conns_) {
      ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, fd, nullptr);
      conn->markClosed();
    }
    connCount_.store(0, std::memory_order_relaxed);
    conns_.clear();
  }

  bool stoppingRequested() {
    std::lock_guard lock(taskMutex_);
    return stopping_;
  }

  void drainTasks() {
    std::deque<std::function<void()>> tasks;
    {
      std::lock_guard lock(taskMutex_);
      tasks.swap(tasks_);
    }
    for (auto& task : tasks) task();
  }

  void removeNow(int fd, const EpollConn* expected) {
    auto it = conns_.find(fd);
    if (it == conns_.end() || it->second.get() != expected) return;  // already gone
    ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, fd, nullptr);
    it->second->markClosed();
    conns_.erase(it);
    connCount_.fetch_sub(1, std::memory_order_relaxed);
  }

  GroupCounters* const counters_;
  int epollFd_ = -1;
  int wakeFd_ = -1;

  std::mutex taskMutex_;
  std::condition_variable taskCv_;
  std::deque<std::function<void()>> tasks_;
  bool stopping_ = false;

  /// Loop thread only (reads and writes); stopped_ likewise.
  std::unordered_map<int, std::shared_ptr<EpollConn>> conns_;
  bool stopped_ = false;
  std::atomic<std::size_t> connCount_{0};

  std::thread thread_;
};

void EpollConn::sendv(util::ByteView header, util::ByteView payload) {
  std::unique_lock lock(sendMutex_);
  if (!open_.load(std::memory_order_acquire)) throw TransportError("EpollConn: closed");

  // Backpressure: block until the loop has drained the backlog below the
  // cap — except on the loop thread itself, which is the drainer.
  if (backlog_.size() - backlogPos_ > kMaxSendBacklog && !loop_->onLoopThread()) {
    sendCv_.wait(lock, [&] {
      return backlog_.size() - backlogPos_ <= kMaxSendBacklog ||
             !open_.load(std::memory_order_acquire);
    });
    if (!open_.load(std::memory_order_acquire)) throw TransportError("EpollConn: closed");
  }
  transmitLocked(header, payload);
}

bool EpollConn::trySend(const util::Bytes& frame) {
  std::lock_guard lock(sendMutex_);
  if (!open_.load(std::memory_order_acquire)) throw TransportError("EpollConn: closed");
  // Where sendv would wait on the cv for backlog room, refuse: the caller
  // (broadcast fan-out) drops this frame rather than stalling on one slow
  // peer.
  if (backlog_.size() - backlogPos_ > kMaxSendBacklog && !loop_->onLoopThread()) {
    return false;
  }
  transmitLocked(frame, {});
  return true;
}

void EpollConn::transmitLocked(util::ByteView header, util::ByteView payload) {
  const std::uint32_t len = static_cast<std::uint32_t>(header.size() + payload.size());
  std::uint8_t prefix[4];
  for (int i = 0; i < 4; ++i) prefix[i] = static_cast<std::uint8_t>(len >> (8 * i));

  counters_->framesOut.fetch_add(1, std::memory_order_relaxed);
  counters_->bytesOut.fetch_add(4 + len, std::memory_order_relaxed);

  if (!backlog_.empty()) {
    // Earlier bytes still queued: preserve order, let the loop flush.
    spill(prefix, 4);
    spill(header.data(), header.size());
    spill(payload.data(), payload.size());
    return;
  }

  // Fast path: one gathering write straight to the socket (sendmsg rather
  // than writev for MSG_NOSIGNAL — a dead peer must surface as EPIPE, not
  // kill the process).
  iovec iov[3];
  iov[0] = {prefix, 4};
  iov[1] = {const_cast<std::uint8_t*>(header.data()), header.size()};
  iov[2] = {const_cast<std::uint8_t*>(payload.data()), payload.size()};
  int iovIdx = 0;
  int iovCount = 3;
  while (iovCount > iovIdx) {
    msghdr msg{};
    msg.msg_iov = &iov[iovIdx];
    msg.msg_iovlen = static_cast<std::size_t>(iovCount - iovIdx);
    ssize_t sent = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        for (int i = iovIdx; i < iovCount; ++i) {
          spill(static_cast<const std::uint8_t*>(iov[i].iov_base), iov[i].iov_len);
        }
        return;
      }
      open_.store(false, std::memory_order_release);
      sendCv_.notify_all();
      throw TransportError("EpollConn: send to " + peer_ + " failed");
    }
    std::size_t left = static_cast<std::size_t>(sent);
    while (left > 0 && iovIdx < iovCount) {
      if (left >= iov[iovIdx].iov_len) {
        left -= iov[iovIdx].iov_len;
        ++iovIdx;
      } else {
        iov[iovIdx].iov_base = static_cast<std::uint8_t*>(iov[iovIdx].iov_base) + left;
        iov[iovIdx].iov_len -= left;
        left = 0;
      }
    }
    while (iovIdx < iovCount && iov[iovIdx].iov_len == 0) ++iovIdx;
  }
}

void EpollConn::spill(const std::uint8_t* data, std::size_t n) {
  if (n == 0) return;
  backlog_.insert(backlog_.end(), data, data + n);
  armWriteLocked();
}

bool EpollConn::rearmLocked() {
  epoll_event ev{};
  ev.events = interestLocked();
  ev.data.fd = fd_;
  return ::epoll_ctl(loop_->epollFd(), EPOLL_CTL_MOD, fd_, &ev) == 0 || errno != ENOENT;
}

void EpollConn::armWriteLocked() {
  if (writeArmed_) return;
  writeArmed_ = true;
  // Not registered yet or already removed: leaving writeArmed_ set would
  // make every later spill a no-op and strand the backlog forever;
  // clearing it lets registerWith() see the pending bytes instead.
  if (!rearmLocked()) writeArmed_ = false;
}

void EpollConn::handleWritable() {
  std::lock_guard lock(sendMutex_);
  while (backlogPos_ < backlog_.size()) {
    ssize_t sent = ::send(fd_, backlog_.data() + backlogPos_, backlog_.size() - backlogPos_,
                          MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      open_.store(false, std::memory_order_release);
      break;
    }
    backlogPos_ += static_cast<std::size_t>(sent);
  }
  if (backlogPos_ == backlog_.size()) {
    backlog_.clear();
    backlogPos_ = 0;
    if (writeArmed_) {
      writeArmed_ = false;
      rearmLocked();
    }
    sendCv_.notify_all();  // close() may be waiting for the drain
  } else if (backlog_.size() - backlogPos_ <= kMaxSendBacklog) {
    sendCv_.notify_all();
  }
}

bool EpollConn::handleReadable() {
  // Without a handler only EPOLLERR/EPOLLHUP can fire: the connection died
  // before anyone listened.
  if (!reading_.load()) return false;
  if (rbuf_.size() < rend_ + kReadChunk) rbuf_.resize(rend_ + kReadChunk);
  for (;;) {
    ssize_t got = ::recv(fd_, rbuf_.data() + rend_, rbuf_.size() - rend_, 0);
    if (got > 0) {
      rend_ += static_cast<std::size_t>(got);
      counters_->bytesIn.fetch_add(static_cast<std::uint64_t>(got), std::memory_order_relaxed);
      break;
    }
    if (got == 0) return false;  // orderly EOF
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return open_.load(std::memory_order_acquire);
    return false;
  }

  // Decode every complete frame in place — the handler sees a view over
  // rbuf_, valid for the duration of the call.
  while (rend_ - rpos_ >= 4) {
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) len |= static_cast<std::uint32_t>(rbuf_[rpos_ + i]) << (8 * i);
    if (len > kMaxFrame) {
      oversized_.fetch_add(1, std::memory_order_relaxed);
      counters_->oversizedFrames.fetch_add(1, std::memory_order_relaxed);
      util::logWarn("EventLoop", "oversized frame from ", peer_, ": ", len,
                    " bytes (cap ", kMaxFrame, "); closing connection");
      return false;
    }
    if (rend_ - rpos_ - 4 < len) {
      if (rbuf_.size() < rpos_ + 4 + len) rbuf_.resize(rpos_ + 4 + len);
      break;  // frame incomplete; wait for more bytes
    }
    counters_->framesIn.fetch_add(1, std::memory_order_relaxed);
    deliver(util::ByteView(rbuf_.data() + rpos_ + 4, len));
    rpos_ += 4 + static_cast<std::size_t>(len);
  }
  if (rpos_ == rend_) {
    rpos_ = rend_ = 0;
  } else if (rpos_ >= kReadChunk) {
    std::memmove(rbuf_.data(), rbuf_.data() + rpos_, rend_ - rpos_);
    rend_ -= rpos_;
    rpos_ = 0;
  }
  return open_.load(std::memory_order_acquire);
}

void EpollConn::markClosed() {
  {
    std::lock_guard lock(sendMutex_);
    open_.store(false, std::memory_order_release);
  }
  // The peer must see the FIN now: the fd itself is closed by the
  // destructor, which can lag arbitrarily (RpcServer prunes dead
  // connections lazily), and a peer blocked in recv would hang until then.
  ::shutdown(fd_, SHUT_RDWR);
  sendCv_.notify_all();
}

void EpollConn::close() {
  if (open_.exchange(false, std::memory_order_acq_rel)) {
    // Drain the backlog before the FIN: with the old blocking transport,
    // every byte a completed send() accepted was in the kernel by now, and
    // callers rely on that (oneway ingest followed by client destruction).
    // Bounded wait — a peer that stopped reading forfeits the courtesy.
    if (!loop_->onLoopThread()) {
      std::unique_lock lock(sendMutex_);
      sendCv_.wait_for(lock, std::chrono::seconds(1),
                       [&] { return backlogPos_ == backlog_.size(); });
    }
    ::shutdown(fd_, SHUT_RDWR);
    sendCv_.notify_all();
  }
  // Synchronize with the loop: after this returns no handler runs, so the
  // caller may tear down whatever the handler captured. Safe to repeat.
  loop_->removeSync(std::static_pointer_cast<EpollConn>(shared_from_this()));
}

}  // namespace

// ---------------------------------------------------------------------------

struct EventLoopGroup::Impl {
  GroupCounters counters;
  std::vector<std::unique_ptr<EventLoop>> loops;
  std::atomic<std::size_t> next{0};
};

EventLoopGroup::EventLoopGroup(std::size_t loops) : impl_(std::make_unique<Impl>()) {
  if (loops == 0) loops = defaultLoopCount();
  impl_->loops.reserve(loops);
  for (std::size_t i = 0; i < loops; ++i) {
    impl_->loops.push_back(std::make_unique<EventLoop>(&impl_->counters));
  }
}

EventLoopGroup::~EventLoopGroup() = default;

std::size_t EventLoopGroup::defaultLoopCount() {
  const std::size_t cores = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(cores, 1, 4);
}

const std::shared_ptr<EventLoopGroup>& EventLoopGroup::shared() {
  static const std::shared_ptr<EventLoopGroup> group = std::make_shared<EventLoopGroup>();
  return group;
}

std::size_t EventLoopGroup::loopCount() const noexcept { return impl_->loops.size(); }

std::shared_ptr<Transport> EventLoopGroup::adopt(int fd, std::string peer) {
  setNonBlocking(fd);
  const std::size_t slot =
      impl_->next.fetch_add(1, std::memory_order_relaxed) % impl_->loops.size();
  EventLoop* loop = impl_->loops[slot].get();
  auto conn = std::make_shared<EpollConn>(loop, fd, std::move(peer), &impl_->counters);
  loop->add(conn);
  return conn;
}

std::size_t EventLoopGroup::connectionCount() const {
  std::size_t n = 0;
  for (const auto& loop : impl_->loops) n += loop->connectionCount();
  return n;
}

EventLoopStats EventLoopGroup::stats() const {
  EventLoopStats s;
  s.framesIn = impl_->counters.framesIn.load(std::memory_order_relaxed);
  s.framesOut = impl_->counters.framesOut.load(std::memory_order_relaxed);
  s.bytesIn = impl_->counters.bytesIn.load(std::memory_order_relaxed);
  s.bytesOut = impl_->counters.bytesOut.load(std::memory_order_relaxed);
  s.oversizedFrames = impl_->counters.oversizedFrames.load(std::memory_order_relaxed);
  return s;
}

}  // namespace mw::orb

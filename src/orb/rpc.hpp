// Request/reply RPC over a Transport, plus asynchronous event delivery.
//
// Server side: register named methods, then serve any number of transports.
// By default a request executes inline on the delivering thread (an event
// loop for reactor transports). With enableDispatcher(N) the delivering
// threads only decode and enqueue: decoded requests are handed to N executor
// lanes (a util::WorkerPool), each lane a FIFO, and replies are written back
// through the owning transport. A per-method LaneSelector chooses the lane —
// same lane means same execution order, so ordering-sensitive methods (e.g.
// sensor ingest keyed by object) route deterministically while order-free
// reads spread round-robin across every lane. A connection is pinned to one
// event loop, so its frames reach handleFrame in order and the lane routing
// (and with it the reading-store stripe invariant) holds end to end.
// Client side: a request is started — its correlation id registered and its
// frame sent — and later waited on against a deadline; call() is start
// followed by wait. Keeping several starts in flight before the first wait
// is how one thread fans a query out over many connections. Event handlers
// receive server-push Event messages (trigger notifications, §4.3).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "orb/message.hpp"
#include "orb/transport.hpp"
#include "util/clock.hpp"
#include "util/worker_pool.hpp"

namespace mw::orb {

class RpcServer {
 public:
  /// A method takes the request payload and returns the reply payload.
  /// Exceptions become Error replies carrying the exception text.
  using Method = std::function<util::Bytes(const util::Bytes&)>;

  /// Picks the executor lane for a dispatched request. `connection` is an
  /// opaque key identifying the transport the request arrived on (stable for
  /// the connection's lifetime). The returned value is taken modulo the lane
  /// count. Requests routed to the same lane execute in arrival order; a
  /// selector that throws falls back to the per-connection default.
  using LaneSelector =
      std::function<std::size_t(const util::Bytes& payload, std::uintptr_t connection)>;

  /// Serving-path observability. All counters are cumulative since
  /// construction; handleFrame used to drop every one of these silently.
  struct Stats {
    std::uint64_t undecodableFrames = 0;   ///< junk frames dropped before dispatch
    std::uint64_t unknownMethodErrors = 0; ///< requests naming no registered method
    std::uint64_t onewayExceptions = 0;    ///< exceptions swallowed by oneway semantics
    std::uint64_t dispatchedRequests = 0;  ///< requests executed on a lane
    std::uint64_t inlineRequests = 0;      ///< requests executed on the reader thread
    std::uint64_t oversizedFrames = 0;     ///< frames over the 64 MiB cap; the
                                           ///< transport logged the peer and closed
    std::uint64_t droppedEvents = 0;       ///< publishes refused by a subscriber's
                                           ///< full send backlog (trySend said no)
  };

  RpcServer() = default;
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  void registerMethod(const std::string& name, Method method);
  /// Registers a method with an explicit lane routing rule (used only while
  /// the dispatcher is enabled).
  void registerMethod(const std::string& name, Method method, LaneSelector lane);

  /// Switches the serving path from inline execution to `lanes` executor
  /// threads. Safe to call while serving; passing 0 restores inline
  /// execution. Methods without a LaneSelector route by connection, so one
  /// client's pipelined requests keep their order while different clients
  /// run in parallel.
  void enableDispatcher(std::size_t lanes);
  [[nodiscard]] std::size_t dispatchLanes() const;

  /// A selector that spreads requests round-robin over all lanes — for
  /// thread-safe, order-free methods (pull queries) that should never queue
  /// behind one another.
  [[nodiscard]] static LaneSelector roundRobinLanes();

  /// Starts serving requests arriving on this transport. The server keeps
  /// the transport alive; events published via publish() go to every served
  /// transport.
  void serve(std::shared_ptr<Transport> transport);

  /// Pushes an event to all connected clients.
  void publish(const std::string& topic, const util::Bytes& payload);

  [[nodiscard]] std::size_t connectionCount() const;

  [[nodiscard]] Stats stats() const;

 private:
  void handleFrame(Transport* transport, const std::weak_ptr<Transport>& weak,
                   util::ByteView frame);
  /// Executes one decoded request and writes the reply (two-way) through
  /// `transport`. Shared by the inline and dispatched paths.
  void execute(Transport* transport, const Message& request, const Method& method);

  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::pair<Method, LaneSelector>> methods_;
  /// Owns served transports. Declared after the method table so ~RpcServer
  /// tears connections down (close() guarantees handler quiescence) before
  /// the method table dies.
  std::vector<std::shared_ptr<Transport>> connections_;
  /// Executor lanes; null = inline execution. Torn down explicitly by
  /// ~RpcServer after every connection is closed.
  std::unique_ptr<util::WorkerPool> dispatcher_;

  std::atomic<std::uint64_t> undecodableFrames_{0};
  std::atomic<std::uint64_t> unknownMethodErrors_{0};
  std::atomic<std::uint64_t> onewayExceptions_{0};
  std::atomic<std::uint64_t> dispatchedRequests_{0};
  std::atomic<std::uint64_t> inlineRequests_{0};
  /// Oversized-frame counts carried over from pruned connections, so the
  /// Stats total survives the transports that produced it.
  std::atomic<std::uint64_t> prunedOversized_{0};
  std::atomic<std::uint64_t> droppedEvents_{0};
};

class RpcClient {
 public:
  using EventHandler = std::function<void(const std::string& topic, const util::Bytes& payload)>;

  explicit RpcClient(std::shared_ptr<Transport> transport);

  /// Closes the transport first (close() guarantees the receive handler is
  /// not invoked again), so the client's mutex/cv/pending state outlives
  /// every delivery.
  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  using Deadline = std::chrono::steady_clock::time_point;

  /// A request on the wire whose reply has not been collected yet.
  struct Call {
    std::uint64_t id = 0;
    std::string method;
  };

  /// Registers a correlation id and sends the request without waiting.
  /// Throws util::TransportError when the send fails (nothing stays
  /// registered). Every started call must be passed to wait() once.
  [[nodiscard]] Call start(const std::string& method, const util::Bytes& args);

  /// Blocks until `call`'s reply arrives or `deadline` passes, then forgets
  /// the call (a reply arriving later is dropped). Throws
  /// util::TimeoutError past the deadline and util::MwError when the server
  /// replied with an Error message.
  util::Bytes wait(const Call& call, Deadline deadline);

  /// start() then wait(). Without an explicit timeout the per-client
  /// deadline (setCallTimeout, default 5 s) applies. Calls multiplex: any
  /// number of threads may call() concurrently over the one connection —
  /// each request carries a correlation id, the transport interleaves
  /// frames, and replies resolve whichever caller they answer, in whatever
  /// order the server's lanes finish.
  util::Bytes call(const std::string& method, const util::Bytes& args);
  util::Bytes call(const std::string& method, const util::Bytes& args, util::Duration timeout);

  /// Calls started and not yet waited out.
  [[nodiscard]] std::size_t pendingCalls() const;

  /// Per-client default deadline used by call() when none is passed. Routers
  /// shrink this so a dead shard costs a bounded wait instead of 5 s.
  void setCallTimeout(util::Duration timeout);
  [[nodiscard]] util::Duration callTimeout() const;

  /// Fire-and-forget invocation (CORBA "oneway"): the request carries id 0,
  /// the server executes the method but sends no reply, and errors are
  /// swallowed server-side. Use for high-rate sensor ingest where the
  /// round-trip would dominate (§7 push model).
  void notify(const std::string& method, const util::Bytes& args);

  /// Installs the handler for server-push events. The swap synchronizes with
  /// delivery: once onEvent returns, the previously installed handler is not
  /// running and will never run again — so a handler that captures `this`
  /// can be safely uninstalled (onEvent(nullptr)) from its owner's
  /// destructor. Do not call onEvent from inside a handler; it self-locks.
  void onEvent(EventHandler handler);

  [[nodiscard]] bool isOpen() const { return transport_ && transport_->isOpen(); }

 private:
  struct Pending {
    bool done = false;
    bool isError = false;
    util::Bytes payload;
  };

  void handleFrame(util::ByteView frame);

  std::shared_ptr<Transport> transport_;
  std::atomic<util::Duration::rep> callTimeoutMs_{5000};
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::uint64_t nextId_ = 0;
  std::unordered_map<std::uint64_t, Pending> pending_;
  // Held across event-handler invocation so onEvent() swaps quiesce; kept
  // separate from mutex_ so a long handler never blocks call()/reply paths.
  std::mutex eventMutex_;
  EventHandler eventHandler_;
};

}  // namespace mw::orb

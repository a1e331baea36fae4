#include "orb/rpc.hpp"

#include <chrono>
#include <utility>

#include "util/error.hpp"

namespace mw::orb {

using mw::util::MwError;
using mw::util::TransportError;

namespace {

/// Finalizer of splitmix64. Connection keys are pointer values, whose low
/// bits are constant under alignment — mixed, they spread evenly over any
/// lane count.
std::size_t mixConnectionKey(std::uintptr_t key) {
  std::uint64_t x = static_cast<std::uint64_t>(key);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<std::size_t>(x);
}

}  // namespace

RpcServer::~RpcServer() {
  // Quiesce every connection first: after close() returns the transport's
  // handler is never invoked again (an in-flight handleFrame completes —
  // and may still enqueue onto the dispatcher — before close() returns).
  // Dropping the references alone would not do it: a queued dispatch pins
  // its transport, keeping a reactor connection's deliveries live.
  std::vector<std::shared_ptr<Transport>> conns;
  {
    std::lock_guard lock(mutex_);
    conns.swap(connections_);
  }
  for (const auto& t : conns) t->close();
  conns.clear();
  // No delivery is left; drain and join the lanes. Queued requests still
  // execute (their owners pin the transports), and late frames from
  // still-open in-process peers fall back to inline execution.
  std::unique_ptr<util::WorkerPool> lanes;
  {
    std::lock_guard lock(mutex_);
    lanes = std::move(dispatcher_);
  }
  lanes.reset();
}

void RpcServer::registerMethod(const std::string& name, Method method) {
  registerMethod(name, std::move(method), nullptr);
}

void RpcServer::registerMethod(const std::string& name, Method method, LaneSelector lane) {
  mw::util::require(!name.empty(), "RpcServer::registerMethod: empty name");
  mw::util::require(static_cast<bool>(method), "RpcServer::registerMethod: null method");
  std::lock_guard lock(mutex_);
  methods_[name] = {std::move(method), std::move(lane)};
}

void RpcServer::enableDispatcher(std::size_t lanes) {
  std::unique_ptr<util::WorkerPool> old;
  {
    std::lock_guard lock(mutex_);
    old = std::move(dispatcher_);
    if (lanes > 0) dispatcher_ = std::make_unique<util::WorkerPool>(lanes);
  }
  // The old pool drains outside the lock: its queued requests may publish
  // events, which re-enter the server mutex.
  old.reset();
}

std::size_t RpcServer::dispatchLanes() const {
  std::lock_guard lock(mutex_);
  return dispatcher_ ? dispatcher_->threadCount() : 0;
}

RpcServer::LaneSelector RpcServer::roundRobinLanes() {
  auto next = std::make_shared<std::atomic<std::size_t>>(0);
  return [next](const util::Bytes&, std::uintptr_t) {
    return next->fetch_add(1, std::memory_order_relaxed);
  };
}

void RpcServer::serve(std::shared_ptr<Transport> transport) {
  {
    std::lock_guard lock(mutex_);
    connections_.push_back(transport);
  }
  // The handler captures a raw pointer for the inline path, NOT a
  // shared_ptr: a delivery must never hold (and thus never drop the last)
  // reference to its own transport, or the destructor would tear the
  // transport down from inside its delivery path. The connection list owns
  // the transport and ~RpcServer close()s every connection (quiescing
  // deliveries) before anything else dies, so the raw pointer stays valid
  // for every inline delivery. Dispatched requests instead lock the
  // weak_ptr at enqueue time, pinning the transport until their lane
  // executes them (a pruned connection's queued requests find the weak_ptr
  // expired and are dropped).
  Transport* raw = transport.get();
  std::weak_ptr<Transport> weak = transport;
  transport->onReceive([this, raw, weak = std::move(weak)](util::ByteView frame) {
    handleFrame(raw, weak, frame);
  });
}

void RpcServer::handleFrame(Transport* transport, const std::weak_ptr<Transport>& weak,
                            util::ByteView frame) {
  Message request;
  try {
    request = Message::decode(frame);
  } catch (const MwError&) {
    undecodableFrames_.fetch_add(1, std::memory_order_relaxed);
    return;  // drop undecodable frames, like an ORB would drop junk
  }
  if (request.type != MessageType::Request) return;

  Method method;
  {
    std::lock_guard lock(mutex_);
    LaneSelector* selector = nullptr;
    auto it = methods_.find(request.target);
    if (it != methods_.end()) {
      method = it->second.first;
      if (it->second.second) selector = &it->second.second;
    }
    if (dispatcher_) {
      // Decode-and-enqueue path: pick the lane, pin the transport, hand off.
      const auto connection = reinterpret_cast<std::uintptr_t>(transport);
      std::size_t lane = mixConnectionKey(connection);
      if (selector) {
        try {
          lane = (*selector)(request.payload, connection);
        } catch (...) {
          // Malformed payload: keep the connection default; the method
          // itself will produce the decode error for the caller.
        }
      }
      std::shared_ptr<Transport> owner = weak.lock();
      if (!owner) return;  // connection already dismantled
      dispatchedRequests_.fetch_add(1, std::memory_order_relaxed);
      dispatcher_->post(lane % dispatcher_->threadCount(),
                        [this, owner = std::move(owner), request = std::move(request),
                         method = std::move(method)] { execute(owner.get(), request, method); });
      return;
    }
  }
  // Inline path (no dispatcher): execute on the reader thread, outside the
  // server lock so methods may publish events.
  inlineRequests_.fetch_add(1, std::memory_order_relaxed);
  execute(transport, request, method);
}

void RpcServer::execute(Transport* transport, const Message& request, const Method& method) {
  // Oneway invocation (requestId 0): execute, send nothing back.
  if (request.requestId == 0) {
    if (!method) {
      unknownMethodErrors_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    try {
      method(request.payload);
    } catch (const std::exception&) {
      // Oneway semantics: the caller asked not to hear about it.
      onewayExceptions_.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }

  Message reply;
  reply.requestId = request.requestId;
  reply.target = request.target;
  if (!method) {
    unknownMethodErrors_.fetch_add(1, std::memory_order_relaxed);
    reply.type = MessageType::Error;
    util::ByteWriter w;
    w.str("unknown method: " + request.target);
    reply.payload = w.take();
  } else {
    try {
      reply.payload = method(request.payload);
      reply.type = MessageType::Reply;
    } catch (const std::exception& e) {
      reply.type = MessageType::Error;
      util::ByteWriter w;
      w.str(e.what());
      reply.payload = w.take();
    }
  }
  try {
    // Gather-send: header and payload go out as one frame without being
    // concatenated first — on reactor transports, a single writev.
    transport->sendv(reply.encodeHeader(), reply.payload);
  } catch (const TransportError&) {
    // Client went away between request and reply; nothing to do.
  }
}

void RpcServer::publish(const std::string& topic, const util::Bytes& payload) {
  Message event;
  event.type = MessageType::Event;
  event.target = topic;
  event.payload = payload;
  util::Bytes frame = event.encode();

  std::vector<std::shared_ptr<Transport>> snapshot;
  {
    std::lock_guard lock(mutex_);
    std::erase_if(connections_, [this](const auto& t) {
      if (t->isOpen()) return false;
      prunedOversized_.fetch_add(t->oversizedFrames(), std::memory_order_relaxed);
      return true;
    });
    snapshot = connections_;
  }
  for (const auto& t : snapshot) {
    try {
      // Non-blocking fan-out: a subscriber whose send backlog is full gets
      // this event dropped (and counted) instead of stalling delivery to
      // every subscriber after it in the snapshot.
      if (!t->trySend(frame)) {
        droppedEvents_.fetch_add(1, std::memory_order_relaxed);
      }
    } catch (const TransportError&) {
      // Connection died mid-publish; it will be pruned next round.
    }
  }
}

std::size_t RpcServer::connectionCount() const {
  std::lock_guard lock(mutex_);
  return connections_.size();
}

RpcServer::Stats RpcServer::stats() const {
  Stats s;
  s.undecodableFrames = undecodableFrames_.load(std::memory_order_relaxed);
  s.unknownMethodErrors = unknownMethodErrors_.load(std::memory_order_relaxed);
  s.onewayExceptions = onewayExceptions_.load(std::memory_order_relaxed);
  s.dispatchedRequests = dispatchedRequests_.load(std::memory_order_relaxed);
  s.inlineRequests = inlineRequests_.load(std::memory_order_relaxed);
  s.oversizedFrames = prunedOversized_.load(std::memory_order_relaxed);
  s.droppedEvents = droppedEvents_.load(std::memory_order_relaxed);
  std::lock_guard lock(mutex_);
  for (const auto& t : connections_) s.oversizedFrames += t->oversizedFrames();
  return s;
}

RpcClient::RpcClient(std::shared_ptr<Transport> transport) : transport_(std::move(transport)) {
  mw::util::require(static_cast<bool>(transport_), "RpcClient: null transport");
  transport_->onReceive([this](util::ByteView frame) { handleFrame(frame); });
}

RpcClient::~RpcClient() {
  // close() guarantees the handler is not invoked again once it returns, so
  // no frame arriving during destruction can touch a dead mutex.
  transport_->close();
  transport_.reset();
}

void RpcClient::handleFrame(util::ByteView frame) {
  Message m;
  try {
    m = Message::decode(frame);
  } catch (const MwError&) {
    return;
  }
  if (m.type == MessageType::Event) {
    // Invoked while holding eventMutex_ so onEvent() can quiesce: once a
    // handler swap returns, the previous handler is guaranteed not to be
    // mid-invocation (callers uninstall this-capturing handlers on teardown).
    std::lock_guard lock(eventMutex_);
    if (eventHandler_) eventHandler_(m.target, m.payload);
    return;
  }
  std::lock_guard lock(mutex_);
  auto it = pending_.find(m.requestId);
  if (it == pending_.end()) return;  // late reply after timeout
  it->second.done = true;
  it->second.isError = (m.type == MessageType::Error);
  it->second.payload = m.payload;
  cv_.notify_all();
}

util::Bytes RpcClient::call(const std::string& method, const util::Bytes& args) {
  return call(method, args, callTimeout());
}

void RpcClient::setCallTimeout(util::Duration timeout) {
  mw::util::require(timeout.count() > 0, "RpcClient::setCallTimeout: timeout must be positive");
  callTimeoutMs_.store(timeout.count(), std::memory_order_relaxed);
}

util::Duration RpcClient::callTimeout() const {
  return util::Duration{callTimeoutMs_.load(std::memory_order_relaxed)};
}

util::Bytes RpcClient::call(const std::string& method, const util::Bytes& args,
                            util::Duration timeout) {
  Call started = start(method, args);
  return wait(started, std::chrono::steady_clock::now() + timeout);
}

RpcClient::Call RpcClient::start(const std::string& method, const util::Bytes& args) {
  Call call{0, method};
  {
    std::lock_guard lock(mutex_);
    call.id = ++nextId_;
    pending_.emplace(call.id, Pending{});
  }
  Message request;
  request.type = MessageType::Request;
  request.requestId = call.id;
  request.target = method;
  request.payload = args;
  try {
    transport_->sendv(request.encodeHeader(), request.payload);
  } catch (const TransportError&) {
    std::lock_guard lock(mutex_);
    pending_.erase(call.id);
    throw;
  }
  return call;
}

util::Bytes RpcClient::wait(const Call& call, Deadline deadline) {
  std::unique_lock lock(mutex_);
  bool ok = cv_.wait_until(lock, deadline, [&] { return pending_.at(call.id).done; });
  Pending result = std::move(pending_.at(call.id));
  pending_.erase(call.id);
  if (!ok) throw mw::util::TimeoutError("RpcClient::call: timeout on " + call.method);
  if (result.isError) {
    util::ByteReader r(result.payload);
    throw MwError("RpcClient::call: remote error: " + r.str());
  }
  return result.payload;
}

std::size_t RpcClient::pendingCalls() const {
  std::lock_guard lock(mutex_);
  return pending_.size();
}

void RpcClient::notify(const std::string& method, const util::Bytes& args) {
  Message request;
  request.type = MessageType::Request;
  request.requestId = 0;  // oneway marker
  request.target = method;
  request.payload = args;
  transport_->sendv(request.encodeHeader(), request.payload);
}

void RpcClient::onEvent(EventHandler handler) {
  std::lock_guard lock(eventMutex_);
  eventHandler_ = std::move(handler);
}

}  // namespace mw::orb

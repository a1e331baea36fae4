// Transport abstraction: a bidirectional channel carrying whole frames.
//
// Two implementations: an in-process pair (deterministic, used by tests and
// same-process wiring) and TCP on an epoll reactor (tcp.hpp +
// event_loop.hpp), the only cross-process transport. Handlers may be
// invoked on arbitrary threads; implementations serialize delivery per
// transport. Received frames arrive as util::ByteView over the transport's
// receive buffer — valid only for the duration of the handler call.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "util/bytes.hpp"

namespace mw::orb {

class Transport {
 public:
  using Handler = std::function<void(util::ByteView frame)>;

  virtual ~Transport() = default;

  /// Sends one frame. Throws util::TransportError when the channel is down.
  virtual void send(const util::Bytes& frame) = 0;

  /// Gather-send: `header` immediately followed by `payload` goes on the
  /// wire as ONE frame. The reactor transports implement this with a single
  /// writev (no payload copy); the base implementation concatenates and
  /// delegates to send().
  virtual void sendv(util::ByteView header, util::ByteView payload);

  /// Non-blocking send for fan-out paths: where send() would WAIT for a
  /// slow peer (the reactor transport blocks once its backlog cap is hit),
  /// trySend returns false and drops the frame instead. Broadcast callers
  /// (RpcServer::publish) use this so one wedged subscriber cannot stall
  /// delivery to every other one. Transports without backpressure inherit
  /// the blocking behavior (they never report a drop). Still throws
  /// util::TransportError when the channel is down.
  virtual bool trySend(const util::Bytes& frame) {
    send(frame);
    return true;
  }

  /// Installs the receive handler. Frames arriving before the first handler
  /// is set are not lost; they are delivered in order once it is. The
  /// reactor transport does not read its socket until then, so early
  /// frames wait in the kernel (TCP's window holds the peer back) and the
  /// loop thread delivers them — never the installing thread. The
  /// in-process pair buffers them and replays them on the installing
  /// thread.
  virtual void onReceive(Handler handler) = 0;

  /// Closes the channel. After close() returns, the receive handler is not
  /// invoked again (reactor transports synchronize with in-flight delivery),
  /// so owners may safely destroy handler state.
  virtual void close() = 0;
  [[nodiscard]] virtual bool isOpen() const = 0;

  /// Frames refused because their length prefix exceeded the 64 MiB sanity
  /// cap (the connection is closed when this trips). Cumulative.
  [[nodiscard]] virtual std::uint64_t oversizedFrames() const { return 0; }
};

/// Creates a connected in-process transport pair: frames sent on one side
/// are delivered synchronously to the other side's handler.
std::pair<std::shared_ptr<Transport>, std::shared_ptr<Transport>> makeInProcPair();

}  // namespace mw::orb

// Epoll reactor for the MicroOrb: N event loops, each owning M non-blocking
// connections.
//
// The thread-per-connection TcpTransport scaled reader threads O(connections)
// — a thread explosion at the connection counts the cluster roadmap targets.
// The reactor inverts that: a small fixed group of event loops (default
// clamp(cores, 1, 4)) multiplexes every TCP connection through epoll. A
// connection is pinned to exactly one loop for its lifetime, so frames on one
// connection are decoded and delivered in arrival order by a single thread —
// the same ordering domain the reader thread used to provide, preserved for
// the RpcServer's lane selectors and the per-object stripe invariant
// downstream. A connection joins the loop's read interest only when its
// receive handler is installed; until then frames wait in the socket.
//
// Zero-copy framing: received frames are handed to the Transport handler as
// util::ByteView slices of the loop's per-connection receive buffer (no
// util::Bytes materialized per frame); sends gather the 4-byte length prefix,
// message header and payload with one writev. When the socket would block,
// the remainder lands in a bounded per-connection backlog flushed by the loop
// on EPOLLOUT; senders beyond the backlog cap block (the flow control the
// old blocking sendAll provided implicitly).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "orb/transport.hpp"

namespace mw::orb {

/// Reactor-wide counters (cumulative across every connection of the group,
/// including connections already closed).
struct EventLoopStats {
  std::uint64_t framesIn = 0;
  std::uint64_t framesOut = 0;
  std::uint64_t bytesIn = 0;
  std::uint64_t bytesOut = 0;
  /// Frames whose length prefix exceeded the 64 MiB sanity cap; the
  /// offending connection is closed and the event logged at warn.
  std::uint64_t oversizedFrames = 0;
};

class EventLoopGroup {
 public:
  /// Spawns `loops` event-loop threads (0 = defaultLoopCount()).
  explicit EventLoopGroup(std::size_t loops = 0);
  ~EventLoopGroup();

  EventLoopGroup(const EventLoopGroup&) = delete;
  EventLoopGroup& operator=(const EventLoopGroup&) = delete;

  /// clamp(hardware_concurrency, 1, 4).
  [[nodiscard]] static std::size_t defaultLoopCount();

  /// The process-wide group every TCP transport registers with unless an
  /// explicit group is passed. Created on first use, lives until exit.
  [[nodiscard]] static const std::shared_ptr<EventLoopGroup>& shared();

  [[nodiscard]] std::size_t loopCount() const noexcept;

  /// Adopts a connected socket: switches it to non-blocking, pins it to the
  /// least-recently-assigned loop and returns the framed transport. `peer`
  /// labels the connection in logs ("host:port"). Takes ownership of `fd`.
  [[nodiscard]] std::shared_ptr<Transport> adopt(int fd, std::string peer);

  /// Open connections currently registered across all loops.
  [[nodiscard]] std::size_t connectionCount() const;

  [[nodiscard]] EventLoopStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mw::orb

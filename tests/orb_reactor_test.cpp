// Reactor-era transport tests: the epoll event-loop group (O(loops) reader
// threads, multiplexed calls, oversized-frame accounting, reads deferred
// until a handler is installed). The EventLoopTest suite name is matched by
// the sanitizer regexes in scripts/reproduce.sh and CI.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "orb/event_loop.hpp"
#include "orb/rpc.hpp"
#include "orb/tcp.hpp"
#include "util/error.hpp"

namespace mw::orb {
namespace {

using mw::util::Bytes;

/// Live thread count of this process, from /proc/self/status.
std::size_t processThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return static_cast<std::size_t>(std::stoul(line.substr(8)));
    }
  }
  return 0;
}

/// A raw blocking TCP socket connected to 127.0.0.1:`port`; -1 on failure.
int connectLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Polls `cond` until true or ~2 s elapse.
bool eventually(const std::function<bool()>& cond) {
  for (int i = 0; i < 400; ++i) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return cond();
}

// --- event-loop group -------------------------------------------------------------

TEST(EventLoopTest, DefaultLoopCountIsClamped) {
  const std::size_t n = EventLoopGroup::defaultLoopCount();
  EXPECT_GE(n, 1u);
  EXPECT_LE(n, 4u);
}

TEST(EventLoopTest, SixtyFourClientsAddNoReaderThreads) {
  // The whole point of the reactor: server + client connections together
  // must run on the group's fixed loop threads, not one thread per socket.
  auto group = std::make_shared<EventLoopGroup>(2);
  RpcServer server;
  server.registerMethod("echo", [](const Bytes& in) { return in; });
  TcpListener listener(
      0, [&](std::shared_ptr<Transport> t) { server.serve(std::move(t)); },
      {.backlog = 128, .group = group});

  const std::size_t before = processThreadCount();
  std::vector<std::unique_ptr<RpcClient>> clients;
  clients.reserve(64);
  for (int i = 0; i < 64; ++i) {
    clients.push_back(
        std::make_unique<RpcClient>(tcpConnect("127.0.0.1", listener.port(), group)));
  }
  for (auto& c : clients) EXPECT_EQ(c->call("echo", {7}), Bytes{7});
  const std::size_t after = processThreadCount();

  // 128 sockets (64 server-side + 64 client-side) were created between the
  // two samples; thread-per-connection would add 128 threads. The reactor
  // adds none — allow a little slack for unrelated runtime threads.
  EXPECT_LE(after, before + 4) << "reader threads scale with connections";
  EXPECT_TRUE(eventually([&] { return group->connectionCount() == 128; }));
}

TEST(EventLoopTest, ListenerBacklogOptionIsHonored) {
  RpcServer server;
  server.registerMethod("echo", [](const Bytes& in) { return in; });
  TcpListener listener(
      0, [&](std::shared_ptr<Transport> t) { server.serve(std::move(t)); }, {.backlog = 512});
  RpcClient client(tcpConnect("127.0.0.1", listener.port()));
  EXPECT_EQ(client.call("echo", {1, 2}), (Bytes{1, 2}));
}

TEST(EventLoopTest, CallsMultiplexOverOneConnection) {
  // One connection, two in-flight calls: the fast reply must overtake the
  // slow one. Impossible unless requests interleave on the wire and the
  // correlation ids resolve the right callers.
  RpcServer server;
  server.enableDispatcher(2);

  // The slow handler parks until the fast call has completed; it returns 1
  // only if released by that completion (0 = gave up). No sleep-based
  // timing: if the fast call could not overlap the slow one, the fast call
  // would block until the slow handler's bounded wait expires and the slow
  // reply would carry 0.
  std::mutex m;
  std::condition_variable cv;
  bool fastFinished = false;
  std::atomic<bool> slowEntered{false};
  // One selector shared by both methods: each roundRobinLanes() carries its
  // own counter, and two independent counters would both start at lane 0.
  auto lanes = RpcServer::roundRobinLanes();
  server.registerMethod(
      "slow",
      [&](const Bytes&) {
        slowEntered.store(true);
        std::unique_lock lock(m);
        const bool released =
            cv.wait_for(lock, std::chrono::seconds(10), [&] { return fastFinished; });
        return Bytes{released ? std::uint8_t{1} : std::uint8_t{0}};
      },
      lanes);
  server.registerMethod(
      "fast", [](const Bytes& in) { return in; }, lanes);
  TcpListener listener(0, [&](std::shared_ptr<Transport> t) { server.serve(std::move(t)); });
  RpcClient client(tcpConnect("127.0.0.1", listener.port()));

  auto slowCall =
      std::async(std::launch::async, [&] { return client.call("slow", {1}, util::sec(30)); });
  ASSERT_TRUE(eventually([&] { return slowEntered.load(); }));

  Bytes fast = client.call("fast", {2}, util::sec(10));
  EXPECT_EQ(fast, Bytes{2});
  {
    std::lock_guard lock(m);
    fastFinished = true;
  }
  cv.notify_all();
  EXPECT_EQ(slowCall.get(), Bytes{1}) << "fast call queued behind slow on one connection";
}

TEST(EventLoopTest, OversizedFrameIsCountedAndClosesConnection) {
  RpcServer server;
  server.registerMethod("echo", [](const Bytes& in) { return in; });
  TcpListener listener(0, [&](std::shared_ptr<Transport> t) { server.serve(std::move(t)); });

  // Raw socket: claim a 100 MiB frame follows. The server must refuse the
  // length prefix (not allocate), count it, and drop the connection.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(listener.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::uint32_t huge = 100 * 1024 * 1024;
  std::uint8_t prefix[4];
  for (int i = 0; i < 4; ++i) prefix[i] = static_cast<std::uint8_t>(huge >> (8 * i));
  ASSERT_EQ(::send(fd, prefix, 4, 0), 4);

  EXPECT_TRUE(eventually([&] { return server.stats().oversizedFrames == 1; }));
  // The server hung up on us: recv drains to EOF.
  std::uint8_t buf[16];
  ssize_t got;
  do {
    got = ::recv(fd, buf, sizeof(buf), 0);
  } while (got > 0);
  EXPECT_EQ(got, 0);
  ::close(fd);
}

TEST(EventLoopTest, GroupCountsFramesAndBytes) {
  auto group = std::make_shared<EventLoopGroup>(1);
  RpcServer server;
  server.registerMethod("echo", [](const Bytes& in) { return in; });
  TcpListener listener(
      0, [&](std::shared_ptr<Transport> t) { server.serve(std::move(t)); },
      {.backlog = 128, .group = group});
  RpcClient client(tcpConnect("127.0.0.1", listener.port(), group));
  client.call("echo", Bytes(100, 0x42));
  const EventLoopStats s = group->stats();
  EXPECT_GE(s.framesIn, 2u);   // request (server side) + reply (client side)
  EXPECT_GE(s.framesOut, 2u);
  EXPECT_GE(s.bytesIn, 200u);
  EXPECT_EQ(s.oversizedFrames, 0u);
}

TEST(EventLoopTest, ManyConcurrentCallersOnOneClientAllComplete) {
  RpcServer server;
  server.enableDispatcher(2);
  server.registerMethod(
      "echo", [](const Bytes& in) { return in; }, RpcServer::roundRobinLanes());
  TcpListener listener(0, [&](std::shared_ptr<Transport> t) { server.serve(std::move(t)); });
  RpcClient client(tcpConnect("127.0.0.1", listener.port()));
  std::vector<std::future<bool>> futures;
  futures.reserve(16);
  for (int i = 0; i < 16; ++i) {
    futures.push_back(std::async(std::launch::async, [&client, i] {
      for (int j = 0; j < 25; ++j) {
        const auto b = static_cast<std::uint8_t>(i * 25 + j);
        if (client.call("echo", {b}, util::sec(10)) != Bytes{b}) return false;
      }
      return true;
    }));
  }
  for (auto& f : futures) EXPECT_TRUE(f.get());
}

TEST(EventLoopTest, SpillBeforeRegistrationStillFlushes) {
  // Regression: a send that hits EAGAIN before the loop has run the
  // registration task used to arm EPOLLOUT against an unregistered fd
  // (EPOLL_CTL_MOD → ENOENT) and leave writeArmed_ set, stranding the
  // backlog forever. Tiny send buffers plus an immediate burst after
  // adopt() race the registration task on every round.
  auto group = std::make_shared<EventLoopGroup>(1);
  const Bytes frame(64 * 1024, 0xAB);
  for (int round = 0; round < 20; ++round) {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const int sndbuf = 4096;
    ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
    auto conn = group->adopt(fds[0], "spill-test");
    conn->send(frame);  // far beyond the socket buffer: must spill

    // Every byte (4-byte prefix + payload) must come out the peer end.
    timeval tv{2, 0};
    ::setsockopt(fds[1], SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    std::size_t total = 0;
    std::uint8_t buf[8192];
    while (total < 4 + frame.size()) {
      const ssize_t got = ::recv(fds[1], buf, sizeof(buf), 0);
      if (got <= 0) break;  // timeout = the stranded-backlog bug
      total += static_cast<std::size_t>(got);
    }
    EXPECT_EQ(total, 4 + frame.size()) << "backlog stranded on round " << round;
    conn->close();
    ::close(fds[1]);
  }
}

TEST(EventLoopTest, SlowSubscriberDoesNotStallPublishFanOut) {
  // Broker fan-out runs on the reactor's non-blocking path: a subscriber
  // that stops reading fills its send backlog and gets events DROPPED
  // (counted in stats) instead of wedging publish() — which would starve
  // every subscriber after it in the snapshot.
  auto group = std::make_shared<EventLoopGroup>(1);
  RpcServer server;
  TcpListener listener(
      0, [&](std::shared_ptr<Transport> t) { server.serve(std::move(t)); },
      {.backlog = 16, .group = group});

  // A healthy subscriber counting events, and a wedged one: a raw socket
  // that connects and then never reads a byte.
  std::atomic<std::uint64_t> healthyGot{0};
  RpcClient healthy(tcpConnect("127.0.0.1", listener.port(), group));
  healthy.onEvent([&](const std::string&, const Bytes&) {
    healthyGot.fetch_add(1, std::memory_order_relaxed);
  });
  const int wedged = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(wedged, 0);
  {
    const int rcvbuf = 4096;
    ::setsockopt(wedged, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(listener.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(wedged, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  }
  ASSERT_TRUE(eventually([&] { return server.connectionCount() == 2; }));

  // 1 MiB events: the wedged connection's socket buffer fills, then its
  // 8 MiB backlog cap, then trySend starts refusing. The loop must finish
  // promptly — each publish is at worst one memcpy into the backlog — and
  // the healthy subscriber must keep receiving throughout.
  const Bytes payload(1024 * 1024, 0x5A);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 64 && server.stats().droppedEvents == 0; ++i) {
    server.publish("firehose", payload);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GT(server.stats().droppedEvents, 0u) << "backlog cap never refused a publish";
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(), 20)
      << "publish fan-out stalled on the wedged subscriber";

  // Delivery to the healthy subscriber survives the wedged peer: a fresh
  // event still arrives after the drops started.
  const std::uint64_t before = healthyGot.load(std::memory_order_relaxed);
  server.publish("after", {1});
  EXPECT_TRUE(eventually([&] { return healthyGot.load(std::memory_order_relaxed) > before; }));
  ::close(wedged);
}

TEST(EventLoopTest, HandlerInstalledUnderFloodRunsNoFrameOnInstaller) {
  // A raw client floods an accepted connection before and while its handler
  // is installed. Frames that arrive first must wait in the socket, not in
  // a queue the installing thread replays: onReceive returns at once, the
  // loop thread runs every handler call, and each frame arrives once, in
  // order.
  auto group = std::make_shared<EventLoopGroup>(1);
  std::promise<std::shared_ptr<Transport>> accepted;
  TcpListener listener(
      0, [&](std::shared_ptr<Transport> t) { accepted.set_value(std::move(t)); },
      {.backlog = 16, .group = group});

  const int fd = connectLoopback(listener.port());
  ASSERT_GE(fd, 0);
  auto conn = accepted.get_future().get();

  // Frames carry a 4-byte sequence number; batches of 256 per send.
  constexpr std::uint32_t kTotal = 128 * 1024;
  constexpr std::uint32_t kBatch = 256;
  std::atomic<std::uint32_t> sent{0};
  std::thread flood([&] {
    std::vector<std::uint8_t> batch(kBatch * 8);
    for (std::uint32_t seq = 0; seq < kTotal; seq += kBatch) {
      for (std::uint32_t k = 0; k < kBatch; ++k) {
        for (int i = 0; i < 4; ++i) {
          batch[k * 8 + i] = static_cast<std::uint8_t>(4u >> (8 * i));
          batch[k * 8 + 4 + i] = static_cast<std::uint8_t>((seq + k) >> (8 * i));
        }
      }
      std::size_t off = 0;
      while (off < batch.size()) {
        const ssize_t n = ::send(fd, batch.data() + off, batch.size() - off, MSG_NOSIGNAL);
        if (n <= 0) return;
        off += static_cast<std::size_t>(n);
      }
      sent.store(seq + kBatch);
    }
  });

  // Let frames pile up unhandled, then give the loop a moment to read them
  // (it must not: nothing is decoded before a handler exists).
  EXPECT_TRUE(eventually([&] { return sent.load() >= 4 * kBatch; }));
  for (int i = 0; i < 20 && group->stats().framesIn == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(group->stats().framesIn, 0u) << "frames were read before a handler was installed";

  const auto installer = std::this_thread::get_id();
  std::atomic<std::uint32_t> onInstaller{0};
  std::atomic<std::uint32_t> received{0};
  std::atomic<std::uint32_t> outOfOrder{0};
  const auto start = std::chrono::steady_clock::now();
  conn->onReceive([&](util::ByteView f) {
    if (std::this_thread::get_id() == installer) onInstaller.fetch_add(1);
    std::uint32_t seq = 0;
    for (int i = 0; i < 4 && i < static_cast<int>(f.size()); ++i) {
      seq |= static_cast<std::uint32_t>(f.data()[i]) << (8 * i);
    }
    if (f.size() != 4 || seq != received.load()) outOfOrder.fetch_add(1);
    received.fetch_add(1);
  });
  const auto installTook = std::chrono::steady_clock::now() - start;

  EXPECT_LT(installTook, std::chrono::milliseconds(200)) << "onReceive drained the flood";
  EXPECT_EQ(onInstaller.load(), 0u) << "a handler call ran on the installing thread";
  flood.join();
  ASSERT_EQ(sent.load(), kTotal);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (received.load() < kTotal && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(received.load(), kTotal) << "frames lost or delivered twice";
  EXPECT_EQ(outOfOrder.load(), 0u);
  conn->close();
  ::close(fd);
}

TEST(EventLoopTest, FramesSentBeforePeerClosesArriveOnceHandlerInstalled) {
  // Deferred reads must not turn an orderly close into data loss: the
  // frames and the FIN both wait in the socket, so the first handler still
  // sees every frame, in order, and only then does the connection close.
  auto group = std::make_shared<EventLoopGroup>(1);
  std::promise<std::shared_ptr<Transport>> accepted;
  TcpListener listener(
      0, [&](std::shared_ptr<Transport> t) { accepted.set_value(std::move(t)); },
      {.backlog = 16, .group = group});
  const int fd = connectLoopback(listener.port());
  ASSERT_GE(fd, 0);
  auto conn = accepted.get_future().get();

  // Frame n (1..5) is n bytes of value n.
  std::vector<std::uint8_t> wire;
  for (std::uint8_t n = 1; n <= 5; ++n) {
    wire.insert(wire.end(), {n, 0, 0, 0});
    wire.insert(wire.end(), std::size_t{n}, n);
  }
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  ::close(fd);
  ASSERT_TRUE(eventually([&] { return group->connectionCount() == 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(conn->isOpen()) << "the peer's FIN was consumed before a handler existed";

  std::mutex m;
  std::vector<Bytes> frames;
  conn->onReceive([&](util::ByteView f) {
    std::lock_guard lock(m);
    frames.push_back(f.toBytes());
  });
  EXPECT_TRUE(eventually([&] { return !conn->isOpen(); })) << "EOF not seen after the frames";
  std::lock_guard lock(m);
  ASSERT_EQ(frames.size(), 5u);
  for (std::uint8_t n = 1; n <= 5; ++n) {
    EXPECT_EQ(frames[n - 1], Bytes(n, n)) << "frame " << int{n};
  }
}

TEST(EventLoopTest, PeerResetBeforeHandlerInstalledDropsConnection) {
  // With no read interest the loop still hears EPOLLERR/EPOLLHUP. A reset
  // before any handler exists drops the connection from the loop; a handler
  // installed afterwards is never called and sends fail.
  auto group = std::make_shared<EventLoopGroup>(1);
  std::promise<std::shared_ptr<Transport>> accepted;
  TcpListener listener(
      0, [&](std::shared_ptr<Transport> t) { accepted.set_value(std::move(t)); },
      {.backlog = 16, .group = group});
  const int fd = connectLoopback(listener.port());
  ASSERT_GE(fd, 0);
  auto conn = accepted.get_future().get();
  ASSERT_TRUE(eventually([&] { return group->connectionCount() == 1; }));

  const linger abortive{1, 0};  // close() sends RST instead of FIN
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &abortive, sizeof(abortive));
  ::close(fd);
  EXPECT_TRUE(eventually([&] { return !conn->isOpen(); }));
  EXPECT_TRUE(eventually([&] { return group->connectionCount() == 0; }));

  std::atomic<int> calls{0};
  conn->onReceive([&](util::ByteView) { calls.fetch_add(1); });
  EXPECT_THROW(conn->send(Bytes{1}), util::TransportError);
  conn->close();
  EXPECT_EQ(calls.load(), 0);
}

TEST(EventLoopTest, InstallingHandlerKeepsPendingBacklogFlushing) {
  // A connection that spilled a send backlog before its handler existed
  // is waiting on EPOLLOUT only. Installing the handler adds EPOLLIN to
  // that interest: the peer's frame must arrive AND the backlog must still
  // drain.
  auto group = std::make_shared<EventLoopGroup>(1);
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const int sndbuf = 4096;
  ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
  auto conn = group->adopt(fds[0], "backlog-then-install");
  ASSERT_TRUE(eventually([&] { return group->connectionCount() == 1; }));

  const Bytes big(256 * 1024, 0xCD);
  conn->send(big);  // far beyond the socket buffer: spills, arms EPOLLOUT
  const std::uint8_t ping[] = {2, 0, 0, 0, 7, 7};
  ASSERT_EQ(::send(fds[1], ping, sizeof(ping), MSG_NOSIGNAL), static_cast<ssize_t>(sizeof(ping)));

  std::atomic<int> pings{0};
  conn->onReceive([&](util::ByteView f) {
    if (f.size() == 2 && f.data()[0] == 7 && f.data()[1] == 7) pings.fetch_add(1);
  });
  EXPECT_TRUE(eventually([&] { return pings.load() == 1; })) << "frame not read after install";

  timeval tv{2, 0};
  ::setsockopt(fds[1], SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::size_t total = 0;
  std::uint8_t buf[8192];
  while (total < 4 + big.size()) {
    const ssize_t got = ::recv(fds[1], buf, sizeof(buf), 0);
    if (got <= 0) break;  // timeout = backlog stranded by the install
    total += static_cast<std::size_t>(got);
  }
  EXPECT_EQ(total, 4 + big.size());
  conn->close();
  ::close(fds[1]);
}

TEST(EventLoopTest, CloseBeforeAnyHandlerHangsUpAndUnregisters) {
  // A connection nobody ever read from still closes the way close()
  // promises: it leaves the loop before close() returns, the peer sees
  // EOF, and a handler installed afterwards never runs.
  auto group = std::make_shared<EventLoopGroup>(1);
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  auto conn = group->adopt(fds[0], "never-read");
  ASSERT_TRUE(eventually([&] { return group->connectionCount() == 1; }));
  const std::uint8_t frame[] = {1, 0, 0, 0, 9};
  ASSERT_EQ(::send(fds[1], frame, sizeof(frame), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(frame)));

  conn->close();
  EXPECT_FALSE(conn->isOpen());
  EXPECT_EQ(group->connectionCount(), 0u);
  timeval tv{2, 0};
  ::setsockopt(fds[1], SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::uint8_t buf[8];
  EXPECT_EQ(::recv(fds[1], buf, sizeof(buf), 0), 0) << "peer did not see EOF";

  std::atomic<int> calls{0};
  conn->onReceive([&](util::ByteView) { calls.fetch_add(1); });
  (void)::send(fds[1], frame, sizeof(frame), MSG_NOSIGNAL);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(calls.load(), 0) << "a handler ran after close()";
  ::close(fds[1]);
}

TEST(TransportConcurrencyTest, InProcCloseSynchronizesWithInFlightDelivery) {
  // Regression: close() promises the handler is not invoked again after it
  // returns, but the in-proc pair used to invoke a copied handler after
  // releasing its lock — a peer send racing close() could touch handler
  // state freed by the owner (the ~RpcClient teardown pattern).
  for (int round = 0; round < 50; ++round) {
    auto [a, b] = makeInProcPair();
    auto state = std::make_unique<std::atomic<int>>(0);
    b->onReceive([p = state.get()](util::ByteView) { p->fetch_add(1); });
    std::thread sender([t = a] {
      try {
        for (int i = 0; i < 200; ++i) t->send(Bytes{1});
      } catch (const util::TransportError&) {
        // Peer closed mid-burst; expected.
      }
    });
    b->close();     // must wait out any delivery already in flight
    state.reset();  // a handler invocation after this point is a UAF
    sender.join();
  }
}

TEST(TransportConcurrencyTest, HandlerInstallReplayPreservesOrder) {
  // Regression: installing a handler used to replay buffered frames on the
  // installer's thread while new arrivals went straight to the handler —
  // concurrent, possibly out-of-order invocations. Delivery must stay
  // serialized and in arrival order across the install.
  auto [a, b] = makeInProcPair();
  std::atomic<bool> stop{false};
  std::atomic<std::uint32_t> sent{0};
  std::thread sender([&] {
    std::uint32_t n = 0;
    while (!stop.load()) {
      Bytes frame(4);
      for (int i = 0; i < 4; ++i) frame[i] = static_cast<std::uint8_t>(n >> (8 * i));
      a->send(frame);
      sent.store(++n);
    }
  });
  // Let frames pile up unhandled, then install mid-stream.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  std::mutex m;
  std::vector<std::uint32_t> seen;
  b->onReceive([&](util::ByteView f) {
    ASSERT_EQ(f.size(), 4u);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(f.data()[i]) << (8 * i);
    std::lock_guard lock(m);
    seen.push_back(v);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  stop.store(true);
  sender.join();
  std::lock_guard lock(m);
  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen.size(), sent.load()) << "every frame sent is delivered";
  for (std::size_t i = 0; i < seen.size(); ++i) {
    ASSERT_EQ(seen[i], i) << "frame replayed out of order";
  }
}

}  // namespace
}  // namespace mw::orb

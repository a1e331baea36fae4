// Reactor-era transport tests: the epoll event-loop group (O(loops) reader
// threads, multiplexed calls, oversized-frame accounting) and the
// shared-memory ring transport (rendezvous, chunked large frames, parity
// with TCP). Suite names EventLoopTest / ShmRingTest are matched by the
// sanitizer regexes in scripts/reproduce.sh and CI.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "orb/event_loop.hpp"
#include "orb/rpc.hpp"
#include "orb/shm.hpp"
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

// --- shared-memory ring transport -------------------------------------------------

TEST(ShmRingTest, AvailabilityProbeRuns) {
  // /dev/shm is mounted everywhere we run tests; mostly assert no throw/leak.
  EXPECT_TRUE(shmAvailable());
}

TEST(ShmRingTest, EchoRoundTrip) {
  if (!shmAvailable()) GTEST_SKIP() << "POSIX shm unavailable";
  RpcServer server;
  server.registerMethod("echo", [](const Bytes& in) { return in; });
  ShmListener listener("mw.test.echo." + std::to_string(::getpid()),
                       [&](std::shared_ptr<Transport> t) { server.serve(std::move(t)); });
  RpcClient client(shmConnect(listener.name()));
  EXPECT_EQ(client.call("echo", {9, 8, 7}), (Bytes{9, 8, 7}));
}

TEST(ShmRingTest, FrameLargerThanRingStreamsThrough) {
  if (!shmAvailable()) GTEST_SKIP() << "POSIX shm unavailable";
  RpcServer server;
  server.registerMethod("echo", [](const Bytes& in) { return in; });
  ShmListener listener("mw.test.big." + std::to_string(::getpid()),
                       [&](std::shared_ptr<Transport> t) { server.serve(std::move(t)); });
  RpcClient client(shmConnect(listener.name()));
  // 3 MiB payload against 1 MiB rings: both directions must chunk.
  Bytes big(3 * 1024 * 1024);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::uint8_t>(i * 131);
  EXPECT_EQ(client.call("echo", big, util::sec(30)), big);
}

TEST(ShmRingTest, ConnectToMissingListenerThrows) {
  EXPECT_THROW(shmConnect("mw.test.no-such-listener"), util::TransportError);
}

TEST(ShmRingTest, ConnectAfterStopThrows) {
  if (!shmAvailable()) GTEST_SKIP() << "POSIX shm unavailable";
  RpcServer server;
  ShmListener listener("mw.test.stopped." + std::to_string(::getpid()),
                       [&](std::shared_ptr<Transport> t) { server.serve(std::move(t)); });
  listener.stop();
  EXPECT_THROW(shmConnect(listener.name()), util::TransportError);
}

TEST(ShmRingTest, RepliesAreByteIdenticalToTcp) {
  if (!shmAvailable()) GTEST_SKIP() << "POSIX shm unavailable";
  // One server, both lanes: every reply must be byte-identical regardless
  // of the transport that carried it.
  RpcServer server;
  server.registerMethod("twice", [](const Bytes& in) {
    Bytes out = in;
    out.insert(out.end(), in.begin(), in.end());
    return out;
  });
  TcpListener tcp(0, [&](std::shared_ptr<Transport> t) { server.serve(std::move(t)); });
  ShmListener shm("mw.test.parity." + std::to_string(::getpid()),
                  [&](std::shared_ptr<Transport> t) { server.serve(std::move(t)); });
  RpcClient viaTcp(tcpConnect("127.0.0.1", tcp.port()));
  RpcClient viaShm(shmConnect(shm.name()));
  for (std::size_t len : {0UL, 1UL, 57UL, 4096UL, 100000UL}) {
    Bytes args(len);
    for (std::size_t i = 0; i < len; ++i) args[i] = static_cast<std::uint8_t>(i * 37);
    EXPECT_EQ(viaTcp.call("twice", args), viaShm.call("twice", args)) << "len=" << len;
  }
}

TEST(ShmRingTest, ManyConcurrentCallersAllComplete) {
  if (!shmAvailable()) GTEST_SKIP() << "POSIX shm unavailable";
  RpcServer server;
  server.enableDispatcher(2);
  server.registerMethod(
      "echo", [](const Bytes& in) { return in; }, RpcServer::roundRobinLanes());
  ShmListener listener("mw.test.mux." + std::to_string(::getpid()),
                       [&](std::shared_ptr<Transport> t) { server.serve(std::move(t)); });
  RpcClient client(shmConnect(listener.name()));
  std::vector<std::future<bool>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(std::async(std::launch::async, [&client, i] {
      for (int j = 0; j < 50; ++j) {
        const auto b = static_cast<std::uint8_t>(i * 50 + j);
        if (client.call("echo", {b}, util::sec(10)) != Bytes{b}) return false;
      }
      return true;
    }));
  }
  for (auto& f : futures) EXPECT_TRUE(f.get());
}

}  // namespace
}  // namespace mw::orb

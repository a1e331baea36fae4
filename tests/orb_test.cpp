// MicroOrb tests: wire codec, in-process and TCP transports, RPC, pub/sub.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "orb/message.hpp"
#include "orb/pubsub.hpp"
#include "orb/rpc.hpp"
#include "orb/tcp.hpp"
#include "orb/transport.hpp"
#include "util/error.hpp"

namespace mw::orb {
namespace {

using mw::util::ByteReader;
using mw::util::Bytes;
using mw::util::ByteWriter;

// --- message codec --------------------------------------------------------------

TEST(MessageTest, RoundTrip) {
  Message m;
  m.type = MessageType::Request;
  m.requestId = 42;
  m.target = "locateObject";
  m.payload = {1, 2, 3};
  Message back = Message::decode(m.encode());
  EXPECT_EQ(back, m);
}

TEST(MessageTest, AllTypesRoundTrip) {
  for (auto t : {MessageType::Request, MessageType::Reply, MessageType::Error,
                 MessageType::Event}) {
    Message m;
    m.type = t;
    m.target = "x";
    EXPECT_EQ(Message::decode(m.encode()).type, t);
  }
}

TEST(MessageTest, RejectsBadMagicAndType) {
  Message m;
  m.target = "x";
  Bytes frame = m.encode();
  frame[0] ^= 0xFF;
  EXPECT_THROW(Message::decode(frame), util::ParseError);
  frame = m.encode();
  frame[2] = 99;  // invalid type
  EXPECT_THROW(Message::decode(frame), util::ParseError);
}

TEST(MessageTest, RejectsTrailingBytes) {
  Message m;
  m.target = "x";
  Bytes frame = m.encode();
  frame.push_back(0);
  EXPECT_THROW(Message::decode(frame), util::ParseError);
}

// --- in-proc transport -----------------------------------------------------------

TEST(InProcTransportTest, DeliversBothDirections) {
  auto [a, b] = makeInProcPair();
  Bytes gotAtB, gotAtA;
  b->onReceive([&](util::ByteView f) { gotAtB = f.toBytes(); });
  a->onReceive([&](util::ByteView f) { gotAtA = f.toBytes(); });
  a->send({1, 2});
  b->send({3, 4});
  EXPECT_EQ(gotAtB, (Bytes{1, 2}));
  EXPECT_EQ(gotAtA, (Bytes{3, 4}));
}

TEST(InProcTransportTest, BuffersUntilHandlerInstalled) {
  auto [a, b] = makeInProcPair();
  a->send({7});
  a->send({8});
  std::vector<Bytes> got;
  b->onReceive([&](util::ByteView f) { got.push_back(f.toBytes()); });
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], Bytes{7});
  EXPECT_EQ(got[1], Bytes{8});
}

TEST(InProcTransportTest, SendAfterCloseThrows) {
  auto [a, b] = makeInProcPair();
  a->close();
  EXPECT_THROW(a->send({1}), util::TransportError);
  EXPECT_FALSE(a->isOpen());
}

TEST(InProcTransportTest, PeerDestructionDetected) {
  auto pair = makeInProcPair();
  auto a = pair.first;
  pair.second.reset();
  EXPECT_FALSE(a->isOpen());
  EXPECT_THROW(a->send({1}), util::TransportError);
}

// --- RPC ------------------------------------------------------------------------

TEST(RpcTest, EchoCall) {
  auto [clientSide, serverSide] = makeInProcPair();
  RpcServer server;
  server.registerMethod("echo", [](const Bytes& in) { return in; });
  server.serve(serverSide);
  RpcClient client(clientSide);
  EXPECT_EQ(client.call("echo", {1, 2, 3}), (Bytes{1, 2, 3}));
}

TEST(RpcTest, UnknownMethodIsRemoteError) {
  auto [clientSide, serverSide] = makeInProcPair();
  RpcServer server;
  server.serve(serverSide);
  RpcClient client(clientSide);
  EXPECT_THROW(client.call("nope", {}), util::MwError);
}

TEST(RpcTest, MethodExceptionPropagatesAsError) {
  auto [clientSide, serverSide] = makeInProcPair();
  RpcServer server;
  server.registerMethod("boom", [](const Bytes&) -> Bytes {
    throw std::runtime_error("kapow");
  });
  server.serve(serverSide);
  RpcClient client(clientSide);
  try {
    client.call("boom", {});
    FAIL() << "expected MwError";
  } catch (const util::MwError& e) {
    EXPECT_NE(std::string(e.what()).find("kapow"), std::string::npos);
  }
}

TEST(RpcTest, ConcurrentCallsCorrelate) {
  auto [clientSide, serverSide] = makeInProcPair();
  RpcServer server;
  server.registerMethod("inc", [](const Bytes& in) {
    ByteReader r(in);
    ByteWriter w;
    w.u32(r.u32() + 1);
    return w.take();
  });
  server.serve(serverSide);
  RpcClient client(clientSide);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint32_t i = 0; i < 50; ++i) {
        ByteWriter w;
        w.u32(i + static_cast<std::uint32_t>(t) * 1000);
        Bytes reply = client.call("inc", w.take());
        ByteReader r(reply);
        if (r.u32() != i + static_cast<std::uint32_t>(t) * 1000 + 1) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(RpcTest, OnewayNotifyExecutesWithoutReply) {
  auto [clientSide, serverSide] = makeInProcPair();
  RpcServer server;
  int hits = 0;
  server.registerMethod("ingest", [&](const Bytes& in) -> Bytes {
    hits += static_cast<int>(in.size());
    return {};
  });
  server.serve(serverSide);
  RpcClient client(clientSide);
  client.notify("ingest", {1, 2, 3});
  client.notify("ingest", {4});
  EXPECT_EQ(hits, 4) << "both oneway requests executed (in-proc is synchronous)";
  // The client still works for two-way calls afterwards (no stray replies
  // corrupted its correlation state).
  server.registerMethod("echo", [](const Bytes& in) { return in; });
  EXPECT_EQ(client.call("echo", {9}), Bytes{9});
}

TEST(RpcTimeoutTest, SlowCallHitsDeadlineWithDistinctError) {
  auto [clientSide, serverSide] = makeInProcPair();
  RpcServer server;
  std::atomic<bool> release{false};
  server.registerMethod("slow", [&](const Bytes&) -> Bytes {
    while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return {};
  });
  // Off-thread execution: the in-proc transport delivers synchronously, so
  // without the dispatcher the spin-wait handler would run ON the caller's
  // thread and the deadline could never fire.
  server.enableDispatcher(2);
  server.serve(serverSide);
  RpcClient client(clientSide);

  // The timeout error is a TransportError subtype, so existing catch sites
  // keep working — but a router can tell "slow" from "gone".
  EXPECT_THROW(client.call("slow", {}, std::chrono::milliseconds(30)), util::TimeoutError);
  release.store(true);
}

TEST(RpcTimeoutTest, PerClientDefaultDeadlineApplies) {
  auto [clientSide, serverSide] = makeInProcPair();
  RpcServer server;
  std::atomic<bool> release{false};
  server.registerMethod("slow", [&](const Bytes&) -> Bytes {
    while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return {};
  });
  server.registerMethod("echo", [](const Bytes& in) { return in; });
  server.enableDispatcher(2);
  server.serve(serverSide);
  RpcClient client(clientSide);

  EXPECT_EQ(client.callTimeout(), std::chrono::milliseconds(5000)) << "default deadline";
  client.setCallTimeout(std::chrono::milliseconds(25));
  EXPECT_EQ(client.callTimeout(), std::chrono::milliseconds(25));
  EXPECT_THROW(client.call("slow", {}), util::TimeoutError);
  release.store(true);
  // A fast call under the same tight deadline still succeeds.
  EXPECT_EQ(client.call("echo", {7}), Bytes{7});
  EXPECT_THROW(client.setCallTimeout(std::chrono::milliseconds(0)), util::ContractError);
}

TEST(RpcTimeoutTest, LateReplyAfterTimeoutIsDiscarded) {
  auto [clientSide, serverSide] = makeInProcPair();
  RpcServer server;
  std::atomic<bool> release{false};
  server.registerMethod("slow", [&](const Bytes&) -> Bytes {
    while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return {1};
  });
  server.registerMethod("echo", [](const Bytes& in) { return in; });
  server.enableDispatcher(2);
  server.serve(serverSide);
  RpcClient client(clientSide);

  EXPECT_THROW(client.call("slow", {}, std::chrono::milliseconds(20)), util::TimeoutError);
  release.store(true);
  // The abandoned reply must not be delivered to a later call.
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(client.call("echo", {static_cast<std::uint8_t>(i)}),
              Bytes{static_cast<std::uint8_t>(i)});
  }
}

// --- RPC start/wait pipelining ---------------------------------------------------

/// A server whose "hold" method parks until its tag is released. The payload
/// is {lane, tag}: the first byte picks the executor lane, so two holds on
/// different lanes run at once and their replies can leave in either order.
class RpcPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_.registerMethod(
        "hold",
        [this](const Bytes& in) -> Bytes {
          while (!released_[in[1]].load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          return {in[1]};
        },
        [](const Bytes& payload, std::uintptr_t) { return std::size_t{payload[0]}; });
    server_.registerMethod(
        "echo", [](const Bytes& in) { return in; },
        [](const Bytes&, std::uintptr_t) { return std::size_t{0}; });
    server_.enableDispatcher(2);
    server_.serve(serverSide_);
  }

  void TearDown() override {
    for (auto& gate : released_) gate.store(true);
  }

  static RpcClient::Deadline in(int ms) {
    return std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  }

  std::pair<std::shared_ptr<Transport>, std::shared_ptr<Transport>> pair_ = makeInProcPair();
  std::shared_ptr<Transport> serverSide_ = pair_.second;
  std::array<std::atomic<bool>, 3> released_{};
  RpcServer server_;
  RpcClient client_{pair_.first};
};

TEST_F(RpcPipelineTest, OutOfOrderRepliesResolveTheirOwnCalls) {
  RpcClient::Call first = client_.start("hold", {0, 0});
  RpcClient::Call second = client_.start("hold", {1, 1});
  EXPECT_EQ(client_.pendingCalls(), 2u);
  released_[1].store(true);
  EXPECT_EQ(client_.wait(second, in(2000)), Bytes{1}) << "the later call answers first";
  EXPECT_EQ(client_.pendingCalls(), 1u);
  released_[0].store(true);
  EXPECT_EQ(client_.wait(first, in(2000)), Bytes{0});
  EXPECT_EQ(client_.pendingCalls(), 0u);
}

TEST_F(RpcPipelineTest, OneCallTimingOutLeavesTheOthersOnTheConnection) {
  released_[1].store(true);
  RpcClient::Call slow = client_.start("hold", {0, 0});
  RpcClient::Call fast = client_.start("hold", {1, 1});
  EXPECT_THROW(client_.wait(slow, in(30)), util::TimeoutError);
  EXPECT_EQ(client_.wait(fast, in(2000)), Bytes{1});
  RpcClient::Call later = client_.start("hold", {1, 2});
  released_[2].store(true);
  EXPECT_EQ(client_.wait(later, in(2000)), Bytes{2});
  EXPECT_EQ(client_.pendingCalls(), 0u);
}

TEST_F(RpcPipelineTest, LateReplyIsDroppedAndLeavesNoPendingEntry) {
  RpcClient::Call slow = client_.start("hold", {0, 0});
  EXPECT_THROW(client_.wait(slow, in(20)), util::TimeoutError);
  EXPECT_EQ(client_.pendingCalls(), 0u) << "a timed-out call is forgotten";
  released_[0].store(true);
  // "echo" shares lane 0 with the held call, so its reply arrives after the
  // late one.
  EXPECT_EQ(client_.call("echo", {7}), Bytes{7});
  EXPECT_EQ(client_.pendingCalls(), 0u) << "the late reply registered nothing";
}

TEST_F(RpcPipelineTest, SendFailureAtStartLeavesNoPendingEntry) {
  pair_.first->close();
  EXPECT_THROW((void)client_.start("echo", {1}), util::TransportError);
  EXPECT_EQ(client_.pendingCalls(), 0u);
}

TEST(RpcTest, OnewayErrorsAreSwallowed) {
  auto [clientSide, serverSide] = makeInProcPair();
  RpcServer server;
  server.registerMethod("boom", [](const Bytes&) -> Bytes {
    throw std::runtime_error("kapow");
  });
  server.serve(serverSide);
  RpcClient client(clientSide);
  EXPECT_NO_THROW(client.notify("boom", {}));
  EXPECT_NO_THROW(client.notify("unknown-method", {}));
}

TEST(RpcTest, ServerPushEvents) {
  auto [clientSide, serverSide] = makeInProcPair();
  RpcServer server;
  server.serve(serverSide);
  RpcClient client(clientSide);
  std::vector<std::string> topics;
  client.onEvent([&](const std::string& topic, const Bytes&) { topics.push_back(topic); });
  server.publish("trigger.42", {});
  server.publish("trigger.43", {});
  ASSERT_EQ(topics.size(), 2u);
  EXPECT_EQ(topics[0], "trigger.42");
  EXPECT_EQ(topics[1], "trigger.43");
}

// --- TCP ------------------------------------------------------------------------

TEST(TcpTest, LoopbackRpcRoundTrip) {
  RpcServer server;
  server.registerMethod("echo", [](const Bytes& in) { return in; });
  TcpListener listener(0, [&](std::shared_ptr<Transport> t) { server.serve(std::move(t)); });

  auto transport = tcpConnect("127.0.0.1", listener.port());
  RpcClient client(transport);
  EXPECT_EQ(client.call("echo", {9, 9, 9}), (Bytes{9, 9, 9}));
  // Empty, one-byte, odd, page-sized and multi-read payloads.
  for (std::size_t len : {0UL, 1UL, 57UL, 4096UL, 100000UL}) {
    Bytes args(len);
    for (std::size_t i = 0; i < len; ++i) args[i] = static_cast<std::uint8_t>(i * 37);
    EXPECT_EQ(client.call("echo", args), args) << "len=" << len;
  }
}

TEST(TcpTest, MultipleClients) {
  RpcServer server;
  server.registerMethod("id", [](const Bytes& in) { return in; });
  TcpListener listener(0, [&](std::shared_ptr<Transport> t) { server.serve(std::move(t)); });

  std::vector<std::unique_ptr<RpcClient>> clients;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(std::make_unique<RpcClient>(tcpConnect("127.0.0.1", listener.port())));
  }
  for (int i = 0; i < 4; ++i) {
    Bytes payload{static_cast<std::uint8_t>(i)};
    EXPECT_EQ(clients[static_cast<std::size_t>(i)]->call("id", payload), payload);
  }
}

TEST(TcpTest, EventsOverTcp) {
  RpcServer server;
  TcpListener listener(0, [&](std::shared_ptr<Transport> t) { server.serve(std::move(t)); });
  auto transport = tcpConnect("127.0.0.1", listener.port());
  RpcClient client(transport);

  std::atomic<int> events{0};
  client.onEvent([&](const std::string&, const Bytes&) { events.fetch_add(1); });
  // Wait for the server to register the accepted connection.
  for (int i = 0; i < 100 && server.connectionCount() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(server.connectionCount(), 1u);
  server.publish("t", {});
  for (int i = 0; i < 200 && events.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(events.load(), 1);
}

TEST(TcpTest, LargePayloadRoundTrip) {
  RpcServer server;
  server.registerMethod("echo", [](const Bytes& in) { return in; });
  TcpListener listener(0, [&](std::shared_ptr<Transport> t) { server.serve(std::move(t)); });
  RpcClient client(tcpConnect("127.0.0.1", listener.port()));
  // 4 MB payload: exercises multi-chunk send/recv loops on both sides.
  Bytes big(4 * 1024 * 1024);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::uint8_t>(i * 31);
  Bytes reply = client.call("echo", big, util::sec(30));
  EXPECT_EQ(reply, big);
}

TEST(TcpTest, ConnectToClosedPortThrows) {
  // Grab an ephemeral port and close the listener; connecting should fail.
  std::uint16_t port;
  {
    TcpListener listener(0, [](std::shared_ptr<Transport>) {});
    port = listener.port();
  }
  EXPECT_THROW(tcpConnect("127.0.0.1", port), util::TransportError);
}

TEST(TcpTest, ConnectAfterListenerStopThrows) {
  // stop() refuses new connections; ones already accepted keep serving.
  RpcServer server;
  server.registerMethod("echo", [](const Bytes& in) { return in; });
  TcpListener listener(0, [&](std::shared_ptr<Transport> t) { server.serve(std::move(t)); });
  RpcClient open(tcpConnect("127.0.0.1", listener.port()));
  EXPECT_EQ(open.call("echo", {1}), Bytes{1});
  listener.stop();
  EXPECT_THROW(tcpConnect("127.0.0.1", listener.port()), util::TransportError);
  EXPECT_EQ(open.call("echo", {2}), Bytes{2});
}

TEST(TcpTest, RepliesMatchInProcessTransport) {
  // One server behind both transports: the carrier must never show in a
  // reply.
  RpcServer server;
  server.registerMethod("twice", [](const Bytes& in) {
    Bytes out = in;
    out.insert(out.end(), in.begin(), in.end());
    return out;
  });
  TcpListener listener(0, [&](std::shared_ptr<Transport> t) { server.serve(std::move(t)); });
  auto [clientSide, serverSide] = makeInProcPair();
  server.serve(serverSide);
  RpcClient viaInProc(clientSide);
  RpcClient viaTcp(tcpConnect("127.0.0.1", listener.port()));
  for (std::size_t len : {0UL, 1UL, 57UL, 4096UL, 100000UL}) {
    Bytes args(len);
    for (std::size_t i = 0; i < len; ++i) args[i] = static_cast<std::uint8_t>(i * 37);
    const Bytes tcpReply = viaTcp.call("twice", args);
    EXPECT_EQ(tcpReply.size(), 2 * len) << "len=" << len;
    EXPECT_EQ(tcpReply, viaInProc.call("twice", args)) << "len=" << len;
  }
}

// --- serving stats ----------------------------------------------------------------

TEST(RpcStatsTest, CountsUndecodableFrames) {
  auto [clientSide, serverSide] = makeInProcPair();
  RpcServer server;
  server.serve(serverSide);
  clientSide->send({0xde, 0xad, 0xbe, 0xef});  // not a Message frame
  clientSide->send({0x01});
  EXPECT_EQ(server.stats().undecodableFrames, 2u);
}

TEST(RpcStatsTest, CountsUnknownMethodErrors) {
  auto [clientSide, serverSide] = makeInProcPair();
  RpcServer server;
  server.serve(serverSide);
  RpcClient client(clientSide);
  EXPECT_THROW(client.call("nope", {}), util::MwError);
  client.notify("also-nope", {});
  EXPECT_EQ(server.stats().unknownMethodErrors, 2u);
}

TEST(RpcStatsTest, CountsSwallowedOnewayExceptions) {
  auto [clientSide, serverSide] = makeInProcPair();
  RpcServer server;
  server.registerMethod("boom", [](const Bytes&) -> Bytes {
    throw std::runtime_error("kapow");
  });
  server.serve(serverSide);
  RpcClient client(clientSide);
  client.notify("boom", {});
  client.notify("boom", {});
  EXPECT_EQ(server.stats().onewayExceptions, 2u);
  // Two-way errors travel back to the caller instead of being counted here.
  EXPECT_THROW(client.call("boom", {}), util::MwError);
  EXPECT_EQ(server.stats().onewayExceptions, 2u);
}

TEST(RpcStatsTest, SplitsInlineFromDispatchedRequests) {
  auto [clientSide, serverSide] = makeInProcPair();
  RpcServer server;
  server.registerMethod("echo", [](const Bytes& in) { return in; });
  server.serve(serverSide);
  RpcClient client(clientSide);
  client.call("echo", {1});
  EXPECT_EQ(server.stats().inlineRequests, 1u);
  EXPECT_EQ(server.stats().dispatchedRequests, 0u);
  server.enableDispatcher(2);
  client.call("echo", {2});
  EXPECT_EQ(server.stats().inlineRequests, 1u);
  EXPECT_EQ(server.stats().dispatchedRequests, 1u);
}

// --- dispatcher -------------------------------------------------------------------

TEST(RpcDispatcherTest, ExecutesOffTheReaderThread) {
  // With an in-proc transport the "reader thread" is the caller itself; a
  // dispatched request must therefore run on some other thread.
  auto [clientSide, serverSide] = makeInProcPair();
  RpcServer server;
  server.enableDispatcher(2);
  EXPECT_EQ(server.dispatchLanes(), 2u);
  std::thread::id executedOn;
  server.registerMethod("who", [&](const Bytes&) -> Bytes {
    executedOn = std::this_thread::get_id();
    return {};
  });
  server.serve(serverSide);
  RpcClient client(clientSide);
  client.call("who", {});
  EXPECT_NE(executedOn, std::this_thread::get_id());
}

TEST(RpcDispatcherTest, SlowLaneDoesNotStallOtherLane) {
  auto [clientSide, serverSide] = makeInProcPair();
  RpcServer server;
  server.enableDispatcher(2);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  server.registerMethod(
      "slow",
      [released](const Bytes&) -> Bytes {
        released.wait();
        return {};
      },
      [](const Bytes&, std::uintptr_t) { return std::size_t{0}; });
  server.registerMethod(
      "fast", [](const Bytes& in) { return in; },
      [](const Bytes&, std::uintptr_t) { return std::size_t{1}; });
  server.serve(serverSide);
  RpcClient client(clientSide);

  std::thread blocked([&] { client.call("slow", {}, util::sec(30)); });
  // While lane 0 is parked inside "slow", lane 1 still serves "fast".
  EXPECT_EQ(client.call("fast", {7}), Bytes{7});
  release.set_value();
  blocked.join();
}

TEST(RpcDispatcherTest, SameLanePreservesRequestOrder) {
  auto [clientSide, serverSide] = makeInProcPair();
  RpcServer server;
  server.enableDispatcher(4);
  std::mutex m;
  std::vector<std::uint32_t> seen;
  server.registerMethod(
      "append",
      [&](const Bytes& in) -> Bytes {
        ByteReader r(in);
        std::lock_guard lock(m);
        seen.push_back(r.u32());
        return {};
      },
      [](const Bytes&, std::uintptr_t) { return std::size_t{0}; });
  server.serve(serverSide);
  RpcClient client(clientSide);
  for (std::uint32_t i = 0; i < 64; ++i) {
    ByteWriter w;
    w.u32(i);
    client.notify("append", w.take());
  }
  server.enableDispatcher(0);  // drains the old lanes before returning
  std::vector<std::uint32_t> expected(64);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(seen, expected);
}

TEST(RpcDispatcherTest, DisablingRestoresInlineExecution) {
  auto [clientSide, serverSide] = makeInProcPair();
  RpcServer server;
  server.enableDispatcher(2);
  server.enableDispatcher(0);
  EXPECT_EQ(server.dispatchLanes(), 0u);
  std::thread::id executedOn;
  server.registerMethod("who", [&](const Bytes&) -> Bytes {
    executedOn = std::this_thread::get_id();
    return {};
  });
  server.serve(serverSide);
  RpcClient client(clientSide);
  client.call("who", {});
  EXPECT_EQ(executedOn, std::this_thread::get_id());
}

TEST(RpcDispatcherTest, ServerDestructionDrainsQueuedOnewayRequests) {
  auto [clientSide, serverSide] = makeInProcPair();
  std::atomic<int> hits{0};
  {
    RpcServer server;
    server.enableDispatcher(2);
    server.registerMethod("ingest", [&](const Bytes&) -> Bytes {
      hits.fetch_add(1);
      return {};
    });
    server.serve(serverSide);
    RpcClient client(clientSide);
    for (int i = 0; i < 32; ++i) client.notify("ingest", {});
  }
  EXPECT_EQ(hits.load(), 32);
}

// --- event bus --------------------------------------------------------------------

TEST(EventBusTest, TopicFiltering) {
  EventBus bus;
  int a = 0, b = 0;
  bus.subscribe("alpha", [&](const std::string&, const Bytes&) { ++a; });
  bus.subscribe("beta", [&](const std::string&, const Bytes&) { ++b; });
  bus.publish("alpha", {});
  bus.publish("alpha", {});
  bus.publish("beta", {});
  EXPECT_EQ(a, 2);
  EXPECT_EQ(b, 1);
}

TEST(EventBusTest, WildcardSubscriber) {
  EventBus bus;
  std::vector<std::string> seen;
  bus.subscribeAll([&](const std::string& topic, const Bytes&) { seen.push_back(topic); });
  bus.publish("x", {});
  bus.publish("y", {});
  EXPECT_EQ(seen, (std::vector<std::string>{"x", "y"}));
}

TEST(EventBusTest, Unsubscribe) {
  EventBus bus;
  int n = 0;
  auto token = bus.subscribe("t", [&](const std::string&, const Bytes&) { ++n; });
  bus.publish("t", {});
  EXPECT_TRUE(bus.unsubscribe(token));
  EXPECT_FALSE(bus.unsubscribe(token));
  bus.publish("t", {});
  EXPECT_EQ(n, 1);
  EXPECT_EQ(bus.subscriberCount(), 0u);
}

TEST(EventBusTest, ExactAndWildcardInterleaveInSubscriptionOrder) {
  // The exact-topic index must not reorder delivery relative to wildcard
  // subscribers registered in between.
  EventBus bus;
  std::vector<int> order;
  bus.subscribe("t", [&](const std::string&, const Bytes&) { order.push_back(1); });
  bus.subscribeAll([&](const std::string&, const Bytes&) { order.push_back(2); });
  bus.subscribe("t", [&](const std::string&, const Bytes&) { order.push_back(3); });
  bus.subscribe("other", [&](const std::string&, const Bytes&) { order.push_back(99); });
  bus.subscribeAll([&](const std::string&, const Bytes&) { order.push_back(4); });
  bus.publish("t", {});
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventBusTest, ManyTopicsFanOutOnlyToMatches) {
  // With the per-topic index, publish touches the matching bucket only; the
  // observable contract is that no handler for another topic ever fires.
  EventBus bus;
  std::vector<int> counts(64, 0);
  for (int i = 0; i < 64; ++i) {
    bus.subscribe("topic." + std::to_string(i), [&counts, i](const std::string&, const Bytes&) {
      ++counts[static_cast<std::size_t>(i)];
    });
  }
  bus.publish("topic.7", {});
  bus.publish("topic.7", {});
  bus.publish("topic.63", {});
  bus.publish("topic.nope", {});
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(counts[static_cast<std::size_t>(i)], i == 7 ? 2 : (i == 63 ? 1 : 0)) << i;
  }
}

TEST(EventBusTest, UnsubscribeFromTopicIndex) {
  EventBus bus;
  int exact = 0, all = 0;
  auto t1 = bus.subscribe("t", [&](const std::string&, const Bytes&) { ++exact; });
  auto t2 = bus.subscribeAll([&](const std::string&, const Bytes&) { ++all; });
  EXPECT_TRUE(bus.unsubscribe(t1));
  bus.publish("t", {});
  EXPECT_EQ(exact, 0);
  EXPECT_EQ(all, 1);
  EXPECT_TRUE(bus.unsubscribe(t2));
  EXPECT_FALSE(bus.unsubscribe(t2));
  EXPECT_EQ(bus.subscriberCount(), 0u);
}

TEST(EventBusTest, Validation) {
  EventBus bus;
  EXPECT_THROW(bus.subscribe("", [](const std::string&, const Bytes&) {}),
               util::ContractError);
  EXPECT_THROW(bus.subscribe("t", nullptr), util::ContractError);
}

}  // namespace
}  // namespace mw::orb

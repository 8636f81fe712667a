// TCP state-machine tests: handshake, transfer integrity, congestion
// control dynamics, loss recovery, flow control and teardown.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "harness.hpp"
#include "net/packet.hpp"
#include "tcp/socket.hpp"
#include "tcp/stack.hpp"

namespace dyncdn::tcp {
namespace {

using dyncdn::testing::pattern_text;
using dyncdn::testing::TwoNodeHarness;
using dyncdn::testing::TwoNodeOptions;
using sim::SimTime;
using namespace dyncdn::sim::literals;

constexpr net::Port kPort = 80;

/// Collects everything a server needs for an echo/sink test.
struct SinkServer {
  std::string received;
  bool remote_closed = false;
  bool established = false;

  void install(TcpStack& stack) {
    stack.listen(kPort, [this](TcpSocket& s) {
      TcpSocket::Callbacks cb;
      cb.on_connected = [this] { established = true; };
      cb.on_data = [this](net::PayloadRef d) { received += d.to_text(); };
      cb.on_remote_close = [this, &s] {
        remote_closed = true;
        s.close();
      };
      s.set_callbacks(std::move(cb));
    });
  }
};

TEST(TcpHandshake, TakesOneAndHalfRtt) {
  TwoNodeOptions opt;
  opt.one_way_delay = 20_ms;
  opt.bandwidth_bps = 0;  // isolate propagation
  TwoNodeHarness h(opt);

  SinkServer sink;
  sink.install(*h.server);

  SimTime client_connected = SimTime::zero();
  TcpSocket::Callbacks cb;
  cb.on_connected = [&] { client_connected = h.simulator.now(); };
  h.client->connect({h.server_node->id(), kPort}, std::move(cb));
  h.simulator.run();

  // Client learns of establishment after SYN + SYN-ACK = 1 RTT.
  EXPECT_EQ(client_connected, 40_ms);
  EXPECT_TRUE(sink.established);
}

TEST(TcpHandshake, SrttSeededFromHandshake) {
  TwoNodeOptions opt;
  opt.one_way_delay = 30_ms;
  opt.bandwidth_bps = 0;
  TwoNodeHarness h(opt);
  SinkServer sink;
  sink.install(*h.server);
  TcpSocket& s = h.client->connect({h.server_node->id(), kPort}, {});
  h.simulator.run();
  EXPECT_NEAR(s.srtt().to_milliseconds(), 60.0, 1.0);
}

TEST(TcpTransfer, SmallPayloadIntact) {
  TwoNodeHarness h;
  SinkServer sink;
  sink.install(*h.server);

  TcpSocket::Callbacks cb;
  TcpSocket& s = h.client->connect({h.server_node->id(), kPort}, {});
  s.set_callbacks(std::move(cb));
  s.send_text("GET /search?q=computer+science HTTP/1.1\r\n\r\n");
  h.simulator.run();
  EXPECT_EQ(sink.received, "GET /search?q=computer+science HTTP/1.1\r\n\r\n");
}

TEST(TcpTransfer, DataQueuedBeforeConnectIsDelivered) {
  TwoNodeHarness h;
  SinkServer sink;
  sink.install(*h.server);
  TcpSocket& s = h.client->connect({h.server_node->id(), kPort}, {});
  // send() immediately, well before ESTABLISHED.
  s.send_text("early");
  h.simulator.run();
  EXPECT_EQ(sink.received, "early");
}

TEST(TcpTransfer, LargeTransferIntactAndSegmented) {
  TwoNodeHarness h;
  SinkServer sink;
  sink.install(*h.server);

  const std::string payload = pattern_text(300 * 1000);
  TcpSocket& s = h.client->connect({h.server_node->id(), kPort}, {});
  s.send_text(payload);
  h.simulator.run();
  EXPECT_EQ(sink.received.size(), payload.size());
  EXPECT_EQ(sink.received, payload);
  EXPECT_EQ(s.stats().bytes_sent, payload.size());
  EXPECT_GE(s.stats().segments_sent,
            payload.size() / h.client->default_config().mss);
  EXPECT_EQ(s.stats().retransmits_rto, 0u);
  EXPECT_EQ(s.stats().retransmits_fast, 0u);
}

/// Run one client->server transfer of `payload`, applying send() in
/// `chunks`-sized pieces (cycled; empty = one large send). Records the
/// receiver's per-segment delivery chunks and the sender's wire counters.
struct TransferLog {
  std::vector<std::size_t> delivery_sizes;
  std::string received;
  std::uint64_t segments_sent = 0;
  std::uint64_t bytes_sent = 0;
};

TransferLog run_chunked_transfer(const std::string& payload,
                                 const std::vector<std::size_t>& chunks,
                                 const TwoNodeOptions& opt = {}) {
  TwoNodeHarness h(opt);
  TransferLog log;
  h.server->listen(kPort, [&log](TcpSocket& s) {
    TcpSocket::Callbacks cb;
    cb.on_data = [&log](net::PayloadRef d) {
      log.delivery_sizes.push_back(d.length);
      log.received += d.to_text();
    };
    s.set_callbacks(std::move(cb));
  });
  TcpSocket& s = h.client->connect({h.server_node->id(), kPort}, {});
  if (chunks.empty()) {
    s.send_text(payload);
  } else {
    std::size_t off = 0;
    for (std::size_t i = 0; off < payload.size(); ++i) {
      const std::size_t n =
          std::min(chunks[i % chunks.size()], payload.size() - off);
      s.send_text(std::string_view(payload).substr(off, n));
      off += n;
    }
  }
  h.simulator.run();
  log.segments_sent = s.stats().segments_sent;
  log.bytes_sent = s.stats().bytes_sent;
  return log;
}

// Scattered send buffers: queueing the stream as many small writes (each
// its own buffer, most far below MSS) must put exactly the same segments
// on the wire as one large write — gather_payload fills segments to MSS
// across write boundaries by chaining zero-copy slices.
TEST(TcpTransfer, ScatteredSendsMatchOneLargeSend) {
  const std::string payload = pattern_text(120 * 1000);
  const TransferLog whole = run_chunked_transfer(payload, {});
  const TransferLog scattered =
      run_chunked_transfer(payload, {1, 7, 64, 333, 1448, 2000, 5, 900});

  EXPECT_EQ(scattered.received, payload);
  EXPECT_EQ(scattered.received, whole.received);
  EXPECT_EQ(scattered.bytes_sent, whole.bytes_sent);
  EXPECT_EQ(scattered.segments_sent, whole.segments_sent);
  // Same wire segmentation => same per-segment delivery chunk sizes.
  EXPECT_EQ(scattered.delivery_sizes, whole.delivery_sizes);
}

// Same equivalence under loss: a deterministic data-segment drop forces a
// retransmission, which rewinds gather_payload behind its scan hint and
// re-gathers a segment whose bytes straddle several small writes.
TEST(TcpTransfer, ScatteredSendsSurviveRetransmission) {
  const std::string payload = pattern_text(80 * 1000);
  TwoNodeOptions opt;
  opt.drop_indices_c2s = {9, 25};
  const TransferLog whole = run_chunked_transfer(payload, {}, opt);
  const TransferLog scattered =
      run_chunked_transfer(payload, {3, 1448, 11, 700, 2900, 1}, opt);

  EXPECT_EQ(whole.received, payload);
  EXPECT_EQ(scattered.received, payload);
  EXPECT_EQ(scattered.bytes_sent, whole.bytes_sent);
}

TEST(TcpTransfer, MultipleWritesArriveInOrder) {
  TwoNodeHarness h;
  SinkServer sink;
  sink.install(*h.server);
  TcpSocket& s = h.client->connect({h.server_node->id(), kPort}, {});
  s.send_text("one:");
  s.send_text("two:");
  s.send_text("three");
  h.simulator.run();
  EXPECT_EQ(sink.received, "one:two:three");
}

TEST(TcpTransfer, BidirectionalEcho) {
  TwoNodeHarness h;
  std::string client_got;
  h.server->listen(kPort, [](TcpSocket& s) {
    TcpSocket::Callbacks cb;
    cb.on_data = [&s](net::PayloadRef d) {
      s.send_text("echo:" + d.to_text());
    };
    s.set_callbacks(std::move(cb));
  });

  TcpSocket::Callbacks cb;
  cb.on_data = [&](net::PayloadRef d) { client_got += d.to_text(); };
  TcpSocket& s = h.client->connect({h.server_node->id(), kPort}, std::move(cb));
  s.send_text("ping");
  h.simulator.run();
  EXPECT_EQ(client_got, "echo:ping");
}

TEST(TcpTransfer, PersistentConnectionSecondExchangeSkipsHandshake) {
  TwoNodeHarness h;
  int syns = 0;
  h.client_node->add_send_tap([&](const net::PacketPtr& p) {
    if (p->tcp.flags.syn) ++syns;
  });

  std::string client_got;
  h.server->listen(kPort, [](TcpSocket& s) {
    TcpSocket::Callbacks cb;
    cb.on_data = [&s](net::PayloadRef d) { s.send_text("r:" + d.to_text()); };
    s.set_callbacks(std::move(cb));
  });
  TcpSocket::Callbacks cb;
  cb.on_data = [&](net::PayloadRef d) { client_got += d.to_text(); };
  TcpSocket& s = h.client->connect({h.server_node->id(), kPort}, std::move(cb));
  s.send_text("q1");
  h.simulator.run();
  s.send_text("q2");
  h.simulator.run();
  EXPECT_EQ(client_got, "r:q1r:q2");
  EXPECT_EQ(syns, 1);  // one handshake for two request/response exchanges
}

TEST(TcpCongestion, LargerInitialWindowTransfersFaster) {
  auto transfer_time = [](std::size_t iw) {
    TwoNodeOptions opt;
    opt.one_way_delay = 50_ms;
    opt.tcp.initial_cwnd_segments = iw;
    TwoNodeHarness h(opt);
    SinkServer sink;
    sink.install(*h.server);
    TcpSocket& s = h.client->connect({h.server_node->id(), kPort}, {});
    s.send_text(pattern_text(100 * 1000));
    const SimTime end = h.simulator.run();
    EXPECT_EQ(sink.received.size(), 100u * 1000u);
    return end;
  };
  const SimTime t2 = transfer_time(2);
  const SimTime t10 = transfer_time(10);
  EXPECT_LT(t10, t2);
  // IW=10 should save at least ~2 RTTs of slow-start ramp.
  EXPECT_GE((t2 - t10).to_milliseconds(), 150.0);
}

TEST(TcpCongestion, SlowStartDoublesPerRtt) {
  // Over an infinite-bandwidth 100ms-RTT link, packet bursts per RTT round
  // should follow IW, 2*IW, 4*IW... while in slow start.
  TwoNodeOptions opt;
  opt.one_way_delay = 50_ms;
  opt.bandwidth_bps = 0;
  opt.tcp.initial_cwnd_segments = 2;
  TwoNodeHarness h(opt);
  SinkServer sink;
  sink.install(*h.server);

  std::vector<SimTime> data_sends;
  h.client_node->add_send_tap([&](const net::PacketPtr& p) {
    if (p->payload_size() > 0) data_sends.push_back(h.simulator.now());
  });

  TcpSocket& s = h.client->connect({h.server_node->id(), kPort}, {});
  s.send_text(pattern_text(60 * 1448));  // 60 MSS worth
  h.simulator.run();
  ASSERT_EQ(sink.received.size(), 60u * 1448u);

  // Bucket send times into RTT rounds starting from the first data send.
  std::vector<int> per_round;
  for (const SimTime t : data_sends) {
    const auto round = static_cast<std::size_t>(
        (t - data_sends.front()).to_milliseconds() / 100.0 + 0.5);
    if (per_round.size() <= round) per_round.resize(round + 1, 0);
    ++per_round[round];
  }
  ASSERT_GE(per_round.size(), 3u);
  EXPECT_EQ(per_round[0], 2);   // IW
  EXPECT_EQ(per_round[1], 4);   // doubled
  EXPECT_EQ(per_round[2], 8);   // doubled again
}

TEST(TcpLoss, BernoulliLossStillDeliversEverything) {
  TwoNodeOptions opt;
  opt.loss = 0.02;
  opt.seed = 99;
  TwoNodeHarness h(opt);
  SinkServer sink;
  sink.install(*h.server);
  const std::string payload = pattern_text(200 * 1000);
  TcpSocket& s = h.client->connect({h.server_node->id(), kPort}, {});
  s.send_text(payload);
  h.simulator.run();
  EXPECT_EQ(sink.received, payload);
  EXPECT_GT(s.stats().retransmits_fast + s.stats().retransmits_rto, 0u);
}

TEST(TcpLoss, SingleDropTriggersFastRetransmitNotRto) {
  TwoNodeOptions opt;
  opt.one_way_delay = 20_ms;
  // Drop one mid-stream data packet client->server. Packet indices on the
  // c2s link: 0=SYN, 1=handshake-ACK, 2.. = data. Drop the 5th data packet.
  opt.drop_indices_c2s = {6};
  TwoNodeHarness h(opt);
  SinkServer sink;
  sink.install(*h.server);
  const std::string payload = pattern_text(50 * 1448);
  TcpSocket& s = h.client->connect({h.server_node->id(), kPort}, {});
  s.send_text(payload);
  h.simulator.run();
  EXPECT_EQ(sink.received, payload);
  EXPECT_EQ(s.stats().retransmits_fast, 1u);
  EXPECT_EQ(s.stats().retransmits_rto, 0u);
  EXPECT_GE(s.stats().dupacks_received, 3u);
}

TEST(TcpLoss, LostSynIsRetransmitted) {
  TwoNodeOptions opt;
  opt.drop_indices_c2s = {0};  // drop the first SYN
  TwoNodeHarness h(opt);
  SinkServer sink;
  sink.install(*h.server);
  SimTime connected = SimTime::zero();
  TcpSocket::Callbacks cb;
  cb.on_connected = [&] { connected = h.simulator.now(); };
  h.client->connect({h.server_node->id(), kPort}, std::move(cb));
  h.simulator.run();
  EXPECT_TRUE(sink.established);
  // Initial RTO is 1s, so establishment happens shortly after.
  EXPECT_GE(connected, 1_s);
  EXPECT_LE(connected, 1_s + 100_ms);
}

TEST(TcpLoss, LostFinIsRetransmittedAndConnectionCloses) {
  TwoNodeOptions opt;
  opt.drop_indices_c2s = {3};  // SYN, hs-ACK, data, FIN <- dropped
  TwoNodeHarness h(opt);
  SinkServer sink;
  sink.install(*h.server);
  bool closed = false;
  TcpSocket::Callbacks cb;
  cb.on_closed = [&] { closed = true; };
  TcpSocket& s = h.client->connect({h.server_node->id(), kPort}, std::move(cb));
  s.send_text("x");
  s.close();
  h.simulator.run();
  EXPECT_TRUE(closed);
  EXPECT_TRUE(sink.remote_closed);
  EXPECT_EQ(sink.received, "x");
}

TEST(TcpTeardown, GracefulCloseBothSides) {
  TwoNodeHarness h;
  SinkServer sink;
  sink.install(*h.server);
  bool client_closed = false, remote_closed = false;
  TcpSocket::Callbacks cb;
  cb.on_closed = [&] { client_closed = true; };
  cb.on_remote_close = [&] { remote_closed = true; };
  TcpSocket& s = h.client->connect({h.server_node->id(), kPort}, std::move(cb));
  s.send_text("bye");
  s.close();
  h.simulator.run();
  EXPECT_TRUE(client_closed);
  EXPECT_TRUE(remote_closed);  // server's FIN reached the client
  EXPECT_TRUE(sink.remote_closed);
  EXPECT_EQ(h.client->socket_count(), 0u);
  EXPECT_EQ(h.server->socket_count(), 0u);
}

TEST(TcpTeardown, CloseBeforeConnectCompletes) {
  TwoNodeHarness h;
  SinkServer sink;
  sink.install(*h.server);
  TcpSocket& s = h.client->connect({h.server_node->id(), kPort}, {});
  s.send_text("payload");
  s.close();  // close while still in SYN_SENT
  h.simulator.run();
  EXPECT_EQ(sink.received, "payload");
  EXPECT_TRUE(sink.remote_closed);
  EXPECT_EQ(h.client->socket_count(), 0u);
}

TEST(TcpTeardown, SendAfterCloseThrows) {
  TwoNodeHarness h;
  SinkServer sink;
  sink.install(*h.server);
  TcpSocket& s = h.client->connect({h.server_node->id(), kPort}, {});
  s.close();
  EXPECT_THROW(s.send_text("late"), std::logic_error);
}

TEST(TcpTeardown, ConnectToClosedPortGetsReset) {
  TwoNodeHarness h;  // server has no listener
  bool closed = false, connected = false;
  TcpSocket::Callbacks cb;
  cb.on_connected = [&] { connected = true; };
  cb.on_closed = [&] { closed = true; };
  h.client->connect({h.server_node->id(), 9999}, std::move(cb));
  h.simulator.run();
  EXPECT_FALSE(connected);
  EXPECT_TRUE(closed);
  EXPECT_EQ(h.client->socket_count(), 0u);
}

TEST(TcpTeardown, AbortSendsReset) {
  TwoNodeHarness h;
  SinkServer sink;
  sink.install(*h.server);
  bool server_closed = false;
  h.server->listen(81, [&](TcpSocket& s) {
    TcpSocket::Callbacks cb;
    cb.on_closed = [&] { server_closed = true; };
    s.set_callbacks(std::move(cb));
  });
  TcpSocket& s = h.client->connect({h.server_node->id(), 81}, {});
  h.simulator.run();
  s.abort();
  h.simulator.run();
  EXPECT_TRUE(server_closed);
  EXPECT_EQ(h.server->socket_count(), 0u);
}

TEST(TcpFlowControl, ReceiverWindowLimitsFlight) {
  TwoNodeOptions opt;
  opt.one_way_delay = 100_ms;  // long RTT so flight would otherwise grow
  opt.tcp.receive_buffer = 8 * 1448;
  opt.tcp.initial_cwnd_segments = 64;  // cwnd not the limiter
  TwoNodeHarness h(opt);
  SinkServer sink;
  sink.install(*h.server);

  std::size_t max_flight = 0;
  TcpSocket& s = h.client->connect({h.server_node->id(), kPort}, {});
  s.send_text(pattern_text(100 * 1448));
  // Sample flight size at every event boundary.
  while (!h.simulator.idle()) {
    h.simulator.run_steps(1);
    max_flight = std::max(max_flight, s.unacked_bytes());
  }
  EXPECT_EQ(sink.received.size(), 100u * 1448u);
  EXPECT_LE(max_flight, 8u * 1448u + 1);  // +1 for the FIN-less probe edge
}

TEST(TcpFlowControl, DelayedAckStillCompletes) {
  TwoNodeOptions opt;
  opt.tcp.delayed_ack = true;
  TwoNodeHarness h(opt);
  SinkServer sink;
  sink.install(*h.server);
  const std::string payload = pattern_text(40 * 1448);
  TcpSocket& s = h.client->connect({h.server_node->id(), kPort}, {});
  s.send_text(payload);
  h.simulator.run();
  EXPECT_EQ(sink.received, payload);
}

TEST(TcpFlowControl, DelayedAckReducesAckCount) {
  auto count_acks = [](bool delayed) {
    TwoNodeOptions opt;
    opt.tcp.delayed_ack = delayed;
    TwoNodeHarness h(opt);
    SinkServer sink;
    sink.install(*h.server);
    std::uint64_t acks = 0;
    h.server_node->add_send_tap([&](const net::PacketPtr& p) {
      if (p->payload_size() == 0 && p->tcp.flags.ack && !p->tcp.flags.syn &&
          !p->tcp.flags.fin) {
        ++acks;
      }
    });
    TcpSocket& s = h.client->connect({h.server_node->id(), kPort}, {});
    s.send_text(pattern_text(60 * 1448));
    h.simulator.run();
    EXPECT_EQ(sink.received.size(), 60u * 1448u);
    return acks;
  };
  EXPECT_LT(count_acks(true), count_acks(false));
}

TEST(TcpDeterminism, SameSeedSameSchedule) {
  auto run_once = [] {
    TwoNodeOptions opt;
    opt.loss = 0.05;
    opt.seed = 1234;
    TwoNodeHarness h(opt);
    SinkServer sink;
    sink.install(*h.server);
    TcpSocket& s = h.client->connect({h.server_node->id(), kPort}, {});
    s.send_text(pattern_text(80 * 1000));
    const SimTime end = h.simulator.run();
    return std::tuple{end, h.simulator.events_executed(), sink.received.size()};
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------------------------------
// Retransmission timer. arm_rto() moves a deadline and takes an ordering
// ticket; the socket keeps one queued entry that re-files itself when it
// wakes ahead of the deadline. These pin when the RTO fires and where it
// falls among events due at the same instant.
// ---------------------------------------------------------------------------

/// The client's view of a one-way transfer: arrivals that advanced the
/// cumulative ACK and data segments sent again below the high-water mark.
struct RtoLog {
  std::vector<SimTime> acks;
  std::vector<SimTime> retransmits;
  std::uint64_t max_ack = 0;
  std::uint64_t sent_end = 0;

  explicit RtoLog(TwoNodeHarness& h) {
    h.client_node->add_receive_tap([this, &h](const net::PacketPtr& p) {
      if (p->tcp.flags.syn || !p->tcp.flags.ack || p->tcp.ack <= max_ack) {
        return;
      }
      max_ack = p->tcp.ack;
      acks.push_back(h.simulator.now());
    });
    h.client_node->add_send_tap([this, &h](const net::PacketPtr& p) {
      if (p->payload.empty()) return;
      const std::uint64_t end = p->tcp.seq + p->payload.length;
      if (end <= sent_end) {
        retransmits.push_back(h.simulator.now());
      } else {
        sent_end = end;
      }
    });
  }
};

TEST(TcpRto, DeadlineMovesLaterWithEachAck) {
  // Four segments, the last one lost. The three ACKs each push the
  // deadline back, and the RTO fires one RTO after the last of them, not
  // after the first transmission. A marker scheduled (after the last ACK)
  // for the same instant must run after the RTO: the timer keeps the
  // ticket of its last arm_rto(), even though its queued entry woke early
  // and filed itself again.
  TwoNodeOptions opt;
  opt.one_way_delay = 20_ms;
  opt.bandwidth_bps = 10e6;
  opt.tcp.min_rto = 1_s;  // every RTO clamps to exactly 1 s
  opt.drop_indices_c2s = {5};  // SYN, handshake ACK, data 1-3, data 4 lost
  TwoNodeHarness h(opt);
  SinkServer sink;
  sink.install(*h.server);
  RtoLog log(h);
  TcpSocket* socket = nullptr;
  std::vector<std::uint64_t> rto_seen;  // retransmits_rto at each marker
  h.client_node->add_receive_tap([&](const net::PacketPtr& p) {
    if (p->tcp.flags.syn || p->tcp.ack <= 1) return;
    const SimTime at = h.simulator.now() + 1_s;
    h.simulator.schedule_in(1_ms, [&, at] {
      h.simulator.schedule_at(at, [&] {
        rto_seen.push_back(socket->stats().retransmits_rto);
      });
    });
  });
  const std::string payload = pattern_text(4 * 1448);
  socket = &h.client->connect({h.server_node->id(), kPort}, {});
  socket->send_text(payload);
  h.simulator.run();

  EXPECT_EQ(sink.received, payload);
  EXPECT_EQ(socket->stats().retransmits_rto, 1u);
  ASSERT_EQ(log.acks.size(), 4u);  // data 1-3, then the retransmission
  ASSERT_EQ(log.retransmits.size(), 1u);
  EXPECT_LT(log.acks[0], log.acks[2]);
  EXPECT_EQ(log.retransmits[0], log.acks[2] + 1_s);
  // Markers one RTO after the first two ACKs run before the timer fires;
  // the one at the final deadline runs after it.
  EXPECT_EQ(rto_seen, (std::vector<std::uint64_t>{0, 0, 1, 1}));
}

TEST(TcpRto, DeadlineMovesEarlierAfterBackoffReset) {
  // Data 3 and 4 lost. The first RTO retransmits 3 and backs off (the next
  // deadline is two RTOs out); the ACK of the retransmission resets the
  // backoff, which moves the deadline one RTO after that ACK -- earlier
  // than the queued entry, which must be re-filed rather than kept.
  TwoNodeOptions opt;
  opt.one_way_delay = 100_ms;
  opt.bandwidth_bps = 10e6;
  opt.drop_indices_c2s = {4, 5};
  TwoNodeHarness h(opt);
  SinkServer sink;
  sink.install(*h.server);
  RtoLog log(h);
  const std::string payload = pattern_text(4 * 1448);
  TcpSocket& s = h.client->connect({h.server_node->id(), kPort}, {});
  s.send_text(payload);
  h.simulator.run();

  EXPECT_EQ(sink.received, payload);
  EXPECT_EQ(s.stats().retransmits_rto, 2u);
  ASSERT_EQ(log.acks.size(), 4u);  // data 1, 2, retransmitted 3, then 4
  ASSERT_EQ(log.retransmits.size(), 2u);
  // Only the first data segment is timed, so one RTO spans both waits.
  const SimTime rto = log.retransmits[0] - log.acks[1];
  EXPECT_GT(rto, 200_ms);  // above the floor: the backoff doubles it
  EXPECT_EQ(log.retransmits[1], log.acks[2] + rto);
  EXPECT_LT(log.retransmits[1], log.retransmits[0] + rto * 2);
}

TEST(TcpRto, CachedRtoFollowsSamplesAndBackoff) {
  // rto() is cached and recomputed only where its inputs change. Data 3
  // and 4 lost: RTT samples pull it below the initial 1 s, the first
  // timeout doubles it, and the ACK of the retransmission (no sample,
  // Karn) resets the backoff, which must restore the value before the
  // timeout rather than leave the doubled one in place.
  TwoNodeOptions opt;
  opt.one_way_delay = 100_ms;
  opt.bandwidth_bps = 10e6;
  opt.drop_indices_c2s = {4, 5};
  TwoNodeHarness h(opt);
  SinkServer sink;
  sink.install(*h.server);
  TcpSocket* socket = nullptr;
  std::vector<SimTime> after_ack, at_retransmit;
  std::uint64_t sent_end = 0;
  h.client_node->add_receive_tap([&](const net::PacketPtr& p) {
    if (p->tcp.flags.syn) return;
    // Read once the socket has processed the ACK.
    h.simulator.schedule_in(SimTime::zero(),
                            [&] { after_ack.push_back(socket->rto()); });
  });
  h.client_node->add_send_tap([&](const net::PacketPtr& p) {
    if (p->payload.empty()) return;
    const std::uint64_t end = p->tcp.seq + p->payload.length;
    if (end <= sent_end) at_retransmit.push_back(socket->rto());
    sent_end = std::max(sent_end, end);
  });
  socket = &h.client->connect({h.server_node->id(), kPort}, {});
  EXPECT_EQ(socket->rto(), opt.tcp.initial_rto);
  socket->send_text(pattern_text(4 * 1448));
  h.simulator.run();

  ASSERT_EQ(after_ack.size(), 4u);  // data 1, 2, retransmitted 3, then 4
  ASSERT_EQ(at_retransmit.size(), 2u);
  EXPECT_LT(after_ack[1], opt.tcp.initial_rto);
  EXPECT_EQ(at_retransmit[0], after_ack[1] * 2);
  EXPECT_EQ(after_ack[2], after_ack[1]);
  EXPECT_EQ(at_retransmit[1], after_ack[2] * 2);
  EXPECT_EQ(after_ack[3], after_ack[2]);
}

/// FNV-1a over every segment either node emits: time, sender, sequence,
/// ack, window, flags and payload length.
struct WireDigest {
  std::uint64_t hash = 14695981039346656037ull;
  std::uint64_t segments = 0;

  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xFF;
      hash *= 1099511628211ull;
    }
  }
  void tap(TwoNodeHarness& h) {
    for (net::Node* node : {h.client_node, h.server_node}) {
      node->add_send_tap([this, &h, node](const net::PacketPtr& p) {
        ++segments;
        mix(static_cast<std::uint64_t>(h.simulator.now().ns()));
        mix(node == h.client_node ? 1 : 2);
        mix(p->tcp.seq);
        mix(p->tcp.ack);
        mix(p->tcp.window);
        mix((p->tcp.flags.syn ? 1u : 0u) | (p->tcp.flags.ack ? 2u : 0u) |
            (p->tcp.flags.fin ? 4u : 0u) | (p->tcp.flags.rst ? 8u : 0u));
        mix(p->payload.length);
      });
    }
  }
};

TEST(TcpRto, LossyRetransmissionScheduleIsPinned) {
  // Two lossy transfers whose whole wire schedule is pinned to the digest
  // the cancel-and-reschedule timer produced: one with serialization
  // delay, delayed ACKs and a 40 KB reply, and one with zero-width
  // serialization, where every event lands on a whole millisecond and
  // RTO deadlines tie with deliveries.
  struct Case {
    double bandwidth_bps;
    bool delayed_ack;
    std::uint64_t seed;
    std::uint64_t digest;
    std::uint64_t segments;
  };
  const Case cases[] = {
      {20e6, true, 7, 11850456534467472297ull, 198},
      {0.0, false, 3, 1075922376336361001ull, 235},
  };
  for (const Case& c : cases) {
    TwoNodeOptions opt;
    opt.one_way_delay = 10_ms;
    opt.bandwidth_bps = c.bandwidth_bps;
    opt.loss = 0.04;
    opt.seed = c.seed;
    opt.tcp.delayed_ack = c.delayed_ack;
    TwoNodeHarness h(opt);
    WireDigest digest;
    digest.tap(h);
    std::string reply_got;
    std::size_t request_got = 0;
    h.server->listen(kPort, [&](TcpSocket& s) {
      TcpSocket::Callbacks cb;
      cb.on_data = [&](net::PayloadRef d) { request_got += d.length; };
      cb.on_remote_close = [&s] {
        s.send_text(pattern_text(40 * 1000));
        s.close();
      };
      s.set_callbacks(std::move(cb));
    });
    TcpSocket* client = nullptr;
    SocketStats stats;  // read at teardown: the socket is destroyed after
    TcpSocket::Callbacks cb;
    cb.on_data = [&](net::PayloadRef d) { reply_got += d.to_text(); };
    cb.on_closed = [&] { stats = client->stats(); };
    client = &h.client->connect({h.server_node->id(), kPort}, std::move(cb));
    client->send_text(pattern_text(120 * 1000));
    client->close();
    h.simulator.run();

    EXPECT_EQ(request_got, 120u * 1000u);
    EXPECT_EQ(reply_got, pattern_text(40 * 1000));
    EXPECT_GT(stats.retransmits_rto, 0u);
    EXPECT_GT(stats.retransmits_fast, 0u);
    EXPECT_EQ(digest.segments, c.segments) << "seed " << c.seed;
    EXPECT_EQ(digest.hash, c.digest) << "seed " << c.seed;
  }
}

// Property sweep: transfers of many sizes over varied RTT/loss must always
// deliver byte-identical data.
class TcpTransferSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, int, double>> {};

TEST_P(TcpTransferSweep, PayloadAlwaysIntact) {
  const auto [size, rtt_ms, loss] = GetParam();
  TwoNodeOptions opt;
  opt.one_way_delay = SimTime::milliseconds(rtt_ms / 2);
  opt.loss = loss;
  opt.seed = 42 + size + static_cast<std::size_t>(rtt_ms);
  TwoNodeHarness h(opt);
  SinkServer sink;
  sink.install(*h.server);
  const std::string payload = pattern_text(size);
  TcpSocket& s = h.client->connect({h.server_node->id(), kPort}, {});
  s.send_text(payload);
  s.close();
  h.simulator.run();
  EXPECT_EQ(sink.received, payload);
  EXPECT_TRUE(sink.remote_closed);
}

INSTANTIATE_TEST_SUITE_P(
    SizesRttsLosses, TcpTransferSweep,
    ::testing::Combine(
        ::testing::Values<std::size_t>(1, 100, 1448, 1449, 10 * 1448,
                                       100 * 1000),
        ::testing::Values(2, 20, 200),
        ::testing::Values(0.0, 0.01, 0.05)));

}  // namespace
}  // namespace dyncdn::tcp

// Tests of the one Fig.-2 reducer, StreamingAnalyzer. Fed live through the
// capture sink, or replaying a retained capture (extract_all_timelines),
// it must produce the timelines of an independent reference kept in this
// file (timeline_from_conn: a per-connection scan plus reassemble()) at
// tolerance 0 — including invalid_reason strings — on clean, reordered,
// retransmitted and interleaved inputs. A replay must do so on lossy,
// reordering campaigns too, where live collapse at teardown does not.
// Whole experiments in streaming and capture mode must agree byte for byte
// at 1, 2 and 4 worker threads when no packet arrives late.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/boundary.hpp"
#include "analysis/reassembly.hpp"
#include "analysis/streaming.hpp"
#include "analysis/timeline.hpp"
#include "capture/recorder.hpp"
#include "net/packet.hpp"
#include "harness.hpp"
#include "obs/export_prometheus.hpp"
#include "search/keywords.hpp"
#include "tcp/stack.hpp"
#include "testbed/experiment.hpp"
#include "testbed/parallel_experiment.hpp"
#include "testbed/scenario.hpp"

namespace dyncdn::analysis {
namespace {

using dyncdn::testing::pattern_text;
using dyncdn::testing::TwoNodeHarness;
using dyncdn::testing::TwoNodeOptions;
using sim::SimTime;
using namespace dyncdn::sim::literals;

constexpr net::Port kPort = 80;

/// Independent reference for the reducer: one connection's control events
/// from a scan of its records, its response events from reassemble() over
/// the same records.
QueryTimeline timeline_from_conn(const capture::PacketTrace& conn,
                                 const net::FlowId& flow,
                                 std::size_t boundary) {
  QueryTimeline tl;
  tl.flow = flow;
  tl.boundary = boundary;

  bool saw_syn = false, saw_synack = false, saw_t1 = false, saw_t2 = false;
  std::optional<std::uint64_t> client_iss;
  for (const auto& r : conn.records()) {
    const bool sent = r.direction == capture::Direction::kSent;
    if (sent && r.tcp.flags.syn && !saw_syn) {
      tl.tb = r.timestamp;
      client_iss = r.tcp.seq;
      saw_syn = true;
    } else if (!sent && r.tcp.flags.syn && r.tcp.flags.ack && !saw_synack) {
      tl.t_synack = r.timestamp;
      saw_synack = true;
    } else if (sent && r.payload_size > 0 && !saw_t1) {
      tl.t1 = r.timestamp;  // the GET
      saw_t1 = true;
    } else if (!sent && saw_t1 && !saw_t2 && r.tcp.flags.ack && client_iss &&
               r.tcp.ack > *client_iss + 1) {
      // First packet from the server acknowledging request payload.
      tl.t2 = r.timestamp;
      saw_t2 = true;
    }
  }
  if (!saw_syn || !saw_synack || !saw_t1 || !saw_t2) {
    tl.invalid_reason = "incomplete handshake/request events";
    return tl;
  }
  finish_timeline_from_stream(
      tl, reassemble(conn, flow, capture::Direction::kReceived), boundary);
  return tl;
}

/// The reference over every flow towards `port`, in first-appearance order.
std::vector<QueryTimeline> reference_timelines(const capture::PacketTrace& trace,
                                               net::Port port,
                                               std::size_t boundary) {
  std::vector<QueryTimeline> out;
  for (const net::FlowId& flow : trace.flows()) {
    if (flow.remote.port != port) continue;
    out.push_back(timeline_from_conn(trace.filter_flow(flow), flow, boundary));
  }
  return out;
}

/// Tolerance-0 comparison of every field the analysis pipeline consumes.
void expect_timeline_eq(const QueryTimeline& a, const QueryTimeline& b,
                        const char* what) {
  EXPECT_EQ(a.flow, b.flow) << what;
  EXPECT_EQ(a.valid, b.valid) << what;
  EXPECT_EQ(a.invalid_reason, b.invalid_reason) << what;
  EXPECT_EQ(a.tb, b.tb) << what;
  EXPECT_EQ(a.t_synack, b.t_synack) << what;
  EXPECT_EQ(a.t1, b.t1) << what;
  EXPECT_EQ(a.t2, b.t2) << what;
  EXPECT_EQ(a.t3, b.t3) << what;
  EXPECT_EQ(a.t4, b.t4) << what;
  EXPECT_EQ(a.t5, b.t5) << what;
  EXPECT_EQ(a.te, b.te) << what;
  EXPECT_EQ(a.response_bytes, b.response_bytes) << what;
  EXPECT_EQ(a.boundary, b.boundary) << what;
}

void expect_timelines_eq(const std::vector<QueryTimeline>& actual,
                         const std::vector<QueryTimeline>& reference) {
  ASSERT_EQ(actual.size(), reference.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    expect_timeline_eq(actual[i], reference[i],
                       ("flow " + std::to_string(i)).c_str());
  }
}

/// The fields expect_timeline_eq compares, as a predicate.
bool same_timeline(const QueryTimeline& a, const QueryTimeline& b) {
  return a.flow == b.flow && a.valid == b.valid &&
         a.invalid_reason == b.invalid_reason && a.tb == b.tb &&
         a.t_synack == b.t_synack && a.t1 == b.t1 && a.t2 == b.t2 &&
         a.t3 == b.t3 && a.t4 == b.t4 && a.t5 == b.t5 && a.te == b.te &&
         a.response_bytes == b.response_bytes && a.boundary == b.boundary;
}

// ---------------------------------------------------------------------------
// Harness-level equivalence: the recorder both retains the trace AND feeds
// the analyzer, so the live analyzer, a replay of the trace and the
// reference all see the exact same capture of a real TCP exchange.
// ---------------------------------------------------------------------------

/// Serves a static burst immediately and a dynamic burst after a delay
/// (same mini front-end the analysis tests use).
struct MiniFrontEnd {
  std::string static_part;
  std::string dynamic_part;
  SimTime fetch_delay = 120_ms;
  sim::Simulator* simulator = nullptr;

  void install(tcp::TcpStack& stack) {
    simulator = &stack.simulator();
    stack.listen(kPort, [this](tcp::TcpSocket& s) {
      tcp::TcpSocket::Callbacks cb;
      cb.on_data = [this, &s](net::PayloadRef) {
        s.send_text(static_part);
        simulator->schedule_in(fetch_delay, [this, &s]() {
          s.send_text(dynamic_part);
          s.close();
        });
      };
      s.set_callbacks(std::move(cb));
    });
  }
};

struct StreamingFixture {
  explicit StreamingFixture(TwoNodeOptions opt = {}) : h(opt) {
    capture::RecorderOptions ro;  // headers-only, like campaign captures
    recorder = std::make_unique<capture::TraceRecorder>(*h.client_node,
                                                        h.simulator, ro);
    analyzer = std::make_unique<StreamingAnalyzer>(kPort);
    recorder->set_sink(analyzer.get());
  }

  void run_queries(MiniFrontEnd& fe, std::size_t concurrent) {
    fe.install(*h.server);
    for (std::size_t i = 0; i < concurrent; ++i) {
      tcp::TcpSocket& s = h.client->connect({h.server_node->id(), kPort}, {});
      s.send_text("GET /q HTTP/1.1\r\n\r\n");
    }
    h.simulator.run();
  }

  /// Live analyzer and replay against the reference, at tolerance 0.
  void expect_equivalent(std::size_t boundary) {
    const auto reference =
        reference_timelines(recorder->trace(), kPort, boundary);
    expect_timelines_eq(
        extract_all_timelines(recorder->trace(), kPort, boundary), reference);
    expect_timelines_eq(analyzer->drain(boundary), reference);
    EXPECT_EQ(analyzer->late_packets(), 0u);
  }

  TwoNodeHarness h;
  std::unique_ptr<capture::TraceRecorder> recorder;
  std::unique_ptr<StreamingAnalyzer> analyzer;
};

TEST(StreamingEquivalence, CleanFlow) {
  StreamingFixture f;
  MiniFrontEnd fe;
  fe.static_part = pattern_text(4000);
  fe.dynamic_part = pattern_text(6000);
  f.run_queries(fe, 1);
  f.expect_equivalent(4000);
}

TEST(StreamingEquivalence, RetransmissionAfterDrop) {
  TwoNodeOptions opt;
  opt.drop_indices_s2c = {3};  // drop one data packet -> retransmission
  StreamingFixture f(opt);
  MiniFrontEnd fe;
  fe.static_part = pattern_text(8 * 1448);
  fe.dynamic_part = pattern_text(2000);
  f.run_queries(fe, 1);
  f.expect_equivalent(8 * 1448);
}

TEST(StreamingEquivalence, HeadDropMakesDataArriveOutOfOrder) {
  TwoNodeOptions opt;
  opt.drop_indices_s2c = {2};  // first data packet retransmits after later ones
  StreamingFixture f(opt);
  MiniFrontEnd fe;
  fe.static_part = pattern_text(6 * 1448);
  fe.dynamic_part = pattern_text(1500);
  f.run_queries(fe, 1);
  f.expect_equivalent(6 * 1448);
}

TEST(StreamingEquivalence, RandomLossAndReordering) {
  TwoNodeOptions opt;
  opt.loss = 0.03;
  opt.reordering = 0.2;
  opt.seed = 77;
  StreamingFixture f(opt);
  MiniFrontEnd fe;
  fe.static_part = pattern_text(12 * 1448);
  fe.dynamic_part = pattern_text(5000);
  f.run_queries(fe, 1);
  f.expect_equivalent(12 * 1448);
}

TEST(StreamingEquivalence, InterleavedConcurrentFlows) {
  StreamingFixture f;
  MiniFrontEnd fe;
  fe.static_part = pattern_text(3000);
  fe.dynamic_part = pattern_text(3000);
  f.run_queries(fe, 4);  // four connections share the link concurrently
  // Order must match the reference's first-appearance order.
  f.expect_equivalent(3000);
}

TEST(StreamingEquivalence, WrongBoundaryStillMatchesIncludingReason) {
  StreamingFixture f;
  MiniFrontEnd fe;
  fe.static_part = pattern_text(2000);
  fe.dynamic_part = pattern_text(2000);
  f.run_queries(fe, 1);
  // Boundary 0 and boundary beyond the stream both yield invalid
  // timelines; the invalid_reason strings must match the reference.
  const auto reference = reference_timelines(f.recorder->trace(), kPort, 0);
  const auto streaming = f.analyzer->drain(0);
  expect_timelines_eq(streaming, reference);
  ASSERT_FALSE(streaming.empty());
  EXPECT_FALSE(streaming.front().valid);
}

// ---------------------------------------------------------------------------
// Synthetic captures: hand-built packet sequences exercise corners a real
// TCP exchange rarely produces (missing SYN, duplicate SYN, overlapping
// retransmission). Analyzer and reference consume the identical records.
// ---------------------------------------------------------------------------

struct SyntheticCapture {
  net::NodeId client{10};
  net::NodeId server{20};
  net::Port client_port = 40001;

  capture::PacketTrace trace{net::NodeId{10}};
  StreamingAnalyzer analyzer{kPort};

  capture::PacketRecord make(bool sent, std::int64_t at_us, std::uint64_t seq,
                             std::uint64_t ack, std::size_t payload,
                             net::TcpFlags flags) {
    capture::PacketRecord r;
    r.timestamp = SimTime::microseconds(at_us);
    r.direction =
        sent ? capture::Direction::kSent : capture::Direction::kReceived;
    r.src = sent ? client : server;
    r.dst = sent ? server : client;
    r.tcp.src_port = sent ? client_port : kPort;
    r.tcp.dst_port = sent ? kPort : client_port;
    r.tcp.seq = seq;
    r.tcp.ack = ack;
    r.tcp.flags = flags;
    r.payload_size = payload;
    return r;
  }

  void feed(const capture::PacketRecord& r) {
    analyzer.on_packet(r);
    trace.add(r);
  }

  void handshake_and_get() {
    feed(make(true, 1000, 100, 0, 0, {.syn = true}));                // SYN
    feed(make(false, 1100, 500, 101, 0, {.syn = true, .ack = true}));  // SYNACK
    feed(make(true, 1200, 101, 501, 0, {.ack = true}));              // ACK
    feed(make(true, 1300, 101, 501, 20, {.ack = true}));             // GET
    feed(make(false, 1400, 501, 121, 0, {.ack = true}));             // ACK GET
  }

  void teardown(std::int64_t at_us, std::uint64_t srv_seq,
                std::uint64_t cli_seq) {
    feed(make(false, at_us, srv_seq, cli_seq, 0, {.ack = true, .fin = true}));
    feed(make(true, at_us + 50, cli_seq, srv_seq + 1, 0,
              {.ack = true, .fin = true}));
    feed(make(false, at_us + 100, srv_seq + 1, cli_seq + 1, 0, {.ack = true}));
  }

  void expect_equivalent(std::size_t boundary) {
    const auto reference = reference_timelines(trace, kPort, boundary);
    expect_timelines_eq(extract_all_timelines(trace, kPort, boundary),
                        reference);
    expect_timelines_eq(analyzer.drain(boundary), reference);
  }
};

TEST(StreamingSynthetic, OverlappingRetransmission) {
  SyntheticCapture c;
  c.handshake_and_get();
  // 0..999 arrives, then 500..1499 (overlaps 500 bytes), then 1500..1999.
  c.feed(c.make(false, 2000, 501, 121, 1000, {.ack = true}));
  c.feed(c.make(false, 2500, 1001, 121, 1000, {.ack = true}));
  c.feed(c.make(false, 3000, 2001, 121, 500, {.ack = true}));
  c.teardown(4000, 2501, 121);
  c.expect_equivalent(1200);
}

TEST(StreamingSynthetic, OutOfOrderSegments) {
  SyntheticCapture c;
  c.handshake_and_get();
  // Segments arrive 2nd, 1st, 3rd.
  c.feed(c.make(false, 2100, 1501, 121, 1000, {.ack = true}));
  c.feed(c.make(false, 2200, 501, 121, 1000, {.ack = true}));
  c.feed(c.make(false, 2300, 2501, 121, 700, {.ack = true}));
  c.teardown(3000, 3201, 121);
  c.expect_equivalent(1000);
}

TEST(StreamingSynthetic, MissingSynFallsBackToMinSeq) {
  SyntheticCapture c;
  // Capture started late: no SYN/SYNACK, data only. Analyzer and reference
  // must agree on the (invalid) timeline and its reason.
  c.feed(c.make(true, 1300, 101, 501, 20, {.ack = true}));
  c.feed(c.make(false, 2000, 501, 121, 1000, {.ack = true}));
  c.feed(c.make(false, 2100, 1501, 121, 500, {.ack = true}));
  c.teardown(3000, 2001, 121);
  c.expect_equivalent(800);
}

TEST(StreamingSynthetic, DuplicateSynUsesLastReceivedIss) {
  SyntheticCapture c;
  c.feed(c.make(true, 1000, 100, 0, 0, {.syn = true}));
  c.feed(c.make(false, 1100, 500, 101, 0, {.syn = true, .ack = true}));
  // Retransmitted SYN-ACK (same iss — the common duplicate).
  c.feed(c.make(false, 1150, 500, 101, 0, {.syn = true, .ack = true}));
  c.feed(c.make(true, 1200, 101, 501, 0, {.ack = true}));
  c.feed(c.make(true, 1300, 101, 501, 20, {.ack = true}));
  c.feed(c.make(false, 1400, 501, 121, 0, {.ack = true}));
  c.feed(c.make(false, 2000, 501, 121, 1000, {.ack = true}));
  c.teardown(3000, 1501, 121);
  c.expect_equivalent(400);
}

TEST(StreamingSynthetic, RstTerminatedFlow) {
  SyntheticCapture c;
  c.handshake_and_get();
  c.feed(c.make(false, 2000, 501, 121, 1000, {.ack = true}));
  c.feed(c.make(false, 2500, 1501, 121, 0, {.ack = true, .rst = true}));
  c.expect_equivalent(600);
}

TEST(StreamingSynthetic, OtherPortsAreIgnoredByBothPaths) {
  SyntheticCapture c;
  c.handshake_and_get();
  // A DNS-ish packet on another port must not create a flow.
  auto stray = c.make(true, 1500, 0, 0, 30, {});
  stray.tcp.dst_port = 53;
  c.feed(stray);
  c.feed(c.make(false, 2000, 501, 121, 800, {.ack = true}));
  c.teardown(3000, 1301, 121);
  c.expect_equivalent(500);
  EXPECT_EQ(c.analyzer.late_packets(), 0u);
}

// ---------------------------------------------------------------------------
// Boundary discovery (analysis::probe_boundary): the common prefix of the
// reassembled responses that carried payload bytes, on reordered,
// retransmitted, SYN-less and headers-only captures.
// ---------------------------------------------------------------------------

struct ProbeCapture {
  net::NodeId client{10};
  net::NodeId server{20};
  capture::PacketTrace trace{net::NodeId{10}};

  capture::PacketRecord make(net::Port client_port, bool sent,
                             std::int64_t at_us, std::uint64_t seq,
                             std::uint64_t ack, const std::string& text,
                             net::TcpFlags flags) {
    capture::PacketRecord r;
    r.timestamp = SimTime::microseconds(at_us);
    r.direction =
        sent ? capture::Direction::kSent : capture::Direction::kReceived;
    r.src = sent ? client : server;
    r.dst = sent ? server : client;
    r.tcp.src_port = sent ? client_port : kPort;
    r.tcp.dst_port = sent ? kPort : client_port;
    r.tcp.seq = seq;
    r.tcp.ack = ack;
    r.tcp.flags = flags;
    r.payload_size = text.size();
    if (!text.empty()) {
      std::vector<std::uint8_t> bytes(text.begin(), text.end());
      r.payload =
          net::PayloadRef{net::make_buffer(std::move(bytes)), 0, text.size()};
    }
    return r;
  }

  void server_syn(net::Port client_port, std::int64_t at_us) {
    trace.add(make(client_port, false, at_us, 500, 101, "",
                   {.syn = true, .ack = true}));
  }

  void data(net::Port client_port, std::int64_t at_us, std::uint64_t seq,
            const std::string& text) {
    trace.add(make(client_port, false, at_us, seq, 121, text, {.ack = true}));
  }
};

TEST(StreamingBoundaryProbe, OutOfOrderAndOverlappingRetransmission) {
  ProbeCapture c;
  // Flow 1 arrives in order; flow 2 delivers its head last and overlaps a
  // retransmitted middle segment, whose 'S' bytes overwrite the 'y' bytes
  // at [300, 340). The responses diverge at flow 1's first 'x'.
  c.server_syn(40001, 1000);
  c.server_syn(40002, 1100);
  c.data(40001, 2000, 501, std::string(300, 'S') + std::string(100, 'x'));
  c.data(40002, 2100, 801, std::string(60, 'y'));         // offset 300 first
  c.data(40002, 2200, 601, std::string(240, 'S'));        // middle, overlaps
  c.data(40002, 2300, 501, std::string(100, 'S'));        // head arrives last
  const ProbedBoundary probed = probe_boundary(c.trace, kPort);
  EXPECT_EQ(probed.responses, 2u);
  EXPECT_EQ(probed.boundary, 300u);
}

TEST(StreamingBoundaryProbe, MissingSynFallsBackToMinSeq) {
  ProbeCapture c;
  // Capture started late: neither flow has a SYN, so each stream's base is
  // its minimum data seq, and flow 1's later segment lands at offset 1000.
  c.data(40001, 2000, 1501, std::string(50, 'D'));  // higher seq first
  c.data(40001, 2100, 501, std::string(1000, 'S'));
  c.data(40002, 2200, 501, std::string(120, 'S') + std::string(40, 'z'));
  const ProbedBoundary probed = probe_boundary(c.trace, kPort);
  EXPECT_EQ(probed.responses, 2u);
  EXPECT_EQ(probed.boundary, 120u);
}

TEST(StreamingBoundaryProbe, ShorterResponseBoundsThePrefix) {
  ProbeCapture c;
  // No byte ever diverges: the prefix is limited by the shortest response.
  c.server_syn(40001, 1000);
  c.server_syn(40002, 1100);
  c.data(40001, 2000, 501, std::string(500, 'S'));
  c.data(40002, 2100, 501, std::string(180, 'S'));
  EXPECT_EQ(probe_boundary(c.trace, kPort).boundary, 180u);
}

TEST(StreamingBoundaryProbe, ThreeFlowsTakeTheEarliestDivergence) {
  ProbeCapture c;
  c.server_syn(40001, 1000);
  c.server_syn(40002, 1100);
  c.server_syn(40003, 1200);
  c.data(40001, 2000, 501, std::string(400, 'S') + "AAAA");
  c.data(40002, 2100, 501, std::string(400, 'S') + "BBBB");  // diverges @400
  c.data(40003, 2200, 501, std::string(90, 'S') + "CCCC");   // diverges @90
  const ProbedBoundary probed = probe_boundary(c.trace, kPort);
  EXPECT_EQ(probed.responses, 3u);
  EXPECT_EQ(probed.boundary, 90u);
}

TEST(StreamingBoundaryProbe, HeadersOnlyCaptureHasNoBoundary) {
  // Data whose payload bytes were not captured is no response to compare:
  // three such flows (one without a SYN) give no boundary, not the length
  // of the shortest response.
  ProbeCapture c;
  const std::pair<net::Port, std::size_t> flows[] = {
      {40001, 1448}, {40002, 900}, {40003, 1200}};
  for (const auto& [port, size] : flows) {
    if (port != 40003) c.server_syn(port, 1000);
    capture::PacketRecord r = c.make(port, false, 2000, 501, 121, "",
                                     {.ack = true});
    r.payload_size = size;  // headers-only capture: a size, no bytes
    c.trace.add(r);
  }
  const ProbedBoundary probed = probe_boundary(c.trace, kPort);
  EXPECT_EQ(probed.boundary, 0u);
  EXPECT_EQ(probed.responses, 0u);
}

// ---------------------------------------------------------------------------
// Online-emission lifecycle: once the boundary is known, completed flows
// collapse to timelines at teardown and their builder state is freed.
// ---------------------------------------------------------------------------

TEST(StreamingOnline, BoundaryEnablesCollapseAtTeardown) {
  SyntheticCapture c;
  c.analyzer.set_boundary(600);
  c.handshake_and_get();
  c.feed(c.make(false, 2000, 501, 121, 1000, {.ack = true}));
  EXPECT_EQ(c.analyzer.timelines_emitted_online(), 0u);
  const std::size_t live_before = c.analyzer.live_bytes();
  c.teardown(3000, 1501, 121);
  EXPECT_EQ(c.analyzer.timelines_emitted_online(), 1u);
  // Collapsing frees the builder: live footprint drops to one timeline.
  EXPECT_LT(c.analyzer.live_bytes(), live_before);
  EXPECT_EQ(c.analyzer.live_bytes(), sizeof(QueryTimeline));
  c.expect_equivalent(600);
  EXPECT_EQ(c.analyzer.late_packets(), 0u);
}

TEST(StreamingOnline, LateBoundaryCollapsesBufferedFlows) {
  SyntheticCapture c;
  c.handshake_and_get();
  c.feed(c.make(false, 2000, 501, 121, 1000, {.ack = true}));
  c.teardown(3000, 1501, 121);
  EXPECT_EQ(c.analyzer.timelines_emitted_online(), 0u);  // no boundary yet
  c.analyzer.set_boundary(600);
  EXPECT_EQ(c.analyzer.timelines_emitted_online(), 1u);
  c.expect_equivalent(600);
}

TEST(StreamingOnline, TrailingPureAckIsInertLateDataCounts) {
  SyntheticCapture c;
  c.analyzer.set_boundary(600);
  c.handshake_and_get();
  c.feed(c.make(false, 2000, 501, 121, 1000, {.ack = true}));
  c.teardown(3000, 1501, 121);
  ASSERT_EQ(c.analyzer.timelines_emitted_online(), 1u);
  // The teardown's trailing ACK (already fed) plus one more pure ACK: inert.
  c.analyzer.on_packet(c.make(false, 3300, 1502, 122, 0, {.ack = true}));
  EXPECT_EQ(c.analyzer.late_packets(), 0u);
  // A data-bearing packet after collapse is a divergence signal.
  c.analyzer.on_packet(c.make(false, 3400, 1502, 122, 100, {.ack = true}));
  EXPECT_EQ(c.analyzer.late_packets(), 1u);
}

TEST(StreamingOnline, ConflictingBoundaryThrows) {
  StreamingAnalyzer a(kPort);
  a.set_boundary(100);
  a.set_boundary(100);  // same value is fine
  EXPECT_THROW(a.set_boundary(200), std::logic_error);
  EXPECT_THROW(a.drain(300), std::logic_error);
  EXPECT_NO_THROW(a.drain(100));
}

TEST(StreamingOnline, RecorderClearResetsAnalyzer) {
  SyntheticCapture c;
  c.analyzer.set_boundary(600);
  c.handshake_and_get();
  ASSERT_GT(c.analyzer.live_bytes(), 0u);
  const std::size_t peak = c.analyzer.peak_live_bytes();
  c.analyzer.on_clear();  // what TraceRecorder::clear() forwards
  EXPECT_EQ(c.analyzer.live_bytes(), 0u);
  EXPECT_FALSE(c.analyzer.has_boundary());
  // Peak is a campaign-wide high-water mark; it survives clears.
  EXPECT_EQ(c.analyzer.peak_live_bytes(), peak);
}

TEST(StreamingOnline, DrainKeepsBoundaryForNextPhase) {
  SyntheticCapture c;
  c.handshake_and_get();
  c.teardown(3000, 501, 121);
  c.analyzer.drain(700);
  EXPECT_TRUE(c.analyzer.has_boundary());  // multi-phase experiments reuse it
  EXPECT_NO_THROW(c.analyzer.drain(700));
}

// ---------------------------------------------------------------------------
// Experiment-level equivalence. Where no packet arrives late, streaming
// mode must reproduce the capture-mode experiment byte-for-byte — timings,
// node aggregates, rendered TSV rows and the Prometheus metrics dump — at
// 1, 2 and 4 threads. Where packets do arrive late, the two differ, and the
// replay is the one that matches the reference.
// ---------------------------------------------------------------------------

testbed::ScenarioOptions small_scenario(bool stream) {
  testbed::ScenarioOptions opt;
  opt.profile = cdn::google_like_profile();
  opt.client_count = 6;
  opt.seed = 4242;
  opt.stream_analysis = stream;
  return opt;
}

testbed::ExperimentOptions small_experiment() {
  testbed::ExperimentOptions eo;
  eo.reps_per_node = 3;
  eo.interval = 900_ms;
  search::KeywordCatalog catalog(5);
  eo.keywords = {catalog.figure3_keywords().front()};
  return eo;
}

/// The exact TSV block `dyncdn_experiment` prints for a result.
std::string render_tsv(const testbed::ExperimentResult& r) {
  std::string out =
      "node\trtt_ms\tt_static_ms\tt_dynamic_ms\tt_delta_ms\toverall_ms\t"
      "samples\n";
  char row[256];
  for (const auto& n : r.per_node) {
    std::snprintf(row, sizeof(row), "%s\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%zu\n",
                  n.node_name.c_str(), n.rtt_ms, n.med_static_ms,
                  n.med_dynamic_ms, n.med_delta_ms, n.med_overall_ms,
                  n.samples);
    out += row;
  }
  return out;
}

void expect_results_identical(const testbed::ExperimentResult& a,
                              const testbed::ExperimentResult& b) {
  ASSERT_EQ(a.boundary, b.boundary);
  ASSERT_EQ(a.per_node_timings.size(), b.per_node_timings.size());
  for (std::size_t n = 0; n < a.per_node_timings.size(); ++n) {
    const auto& qa = a.per_node_timings[n];
    const auto& qb = b.per_node_timings[n];
    ASSERT_EQ(qa.size(), qb.size()) << "node " << n;
    for (std::size_t q = 0; q < qa.size(); ++q) {
      EXPECT_EQ(std::memcmp(&qa[q], &qb[q], sizeof(qa[q])), 0)
          << "node " << n << " query " << q;
    }
  }
  EXPECT_EQ(render_tsv(a), render_tsv(b));
  EXPECT_EQ(obs::export_prometheus(a.metrics),
            obs::export_prometheus(b.metrics));
}

TEST(StreamingExperiment, ByteIdenticalToCaptureAt1_2_4Threads) {
  const auto options = small_experiment();

  testbed::ReplicaPlan plan;
  plan.executor.threads = 1;
  const auto capture_run = testbed::run_fixed_fe_experiment(
      small_scenario(false), 0, options, plan);

  // Streaming mode keeps its per-flow state in slab-backed flat
  // tables; at 1, 2 and 4 threads it must still match the serial
  // retained-capture run byte for byte.
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    plan.executor.threads = threads;
    const auto streaming_run = testbed::run_fixed_fe_experiment(
        small_scenario(true), 0, options, plan);
    expect_results_identical(capture_run, streaming_run);
  }
}

TEST(StreamingExperiment, ByteIdenticalUnderClientLinkLoss) {
  auto capture_opt = small_scenario(false);
  auto stream_opt = small_scenario(true);
  capture_opt.client_link_loss = stream_opt.client_link_loss = 0.02;
  const auto options = small_experiment();

  testbed::Scenario cap(capture_opt);
  cap.warm_up();
  const auto a = testbed::run_fixed_fe_experiment(cap, 0, options);
  testbed::Scenario str(stream_opt);
  str.warm_up();
  const auto b = testbed::run_fixed_fe_experiment(str, 0, options);
  expect_results_identical(a, b);
}

TEST(StreamingExperiment, DiscoverBoundaryMatchesCaptureMode) {
  // Full-stack cross-check of the probe: discover_boundary, run in its
  // throw-away probe scenario, must land on the very boundary that
  // analysis::probe_boundary finds in a capture-mode scenario's retained
  // payload capture of the same six queries.
  testbed::ScenarioOptions so = small_scenario(false);
  so.capture_payloads = true;
  testbed::Scenario cap(so);
  cap.warm_up();
  const std::size_t live = testbed::discover_boundary(cap, 0, 0);

  cap.connect_client_to_fe(0, 0);
  auto& client = cap.clients().front();
  const search::KeywordCatalog catalog(cap.simulator().rng().seed());
  for (const search::Keyword& kw : catalog.distinct_corpus(6)) {
    client.query_client->submit(cap.fe_endpoint(0), kw,
                                [](const cdn::QueryResult&) {});
  }
  cap.run();
  const ProbedBoundary replayed =
      probe_boundary(client.recorder->trace(), kPort);
  EXPECT_EQ(replayed.responses, 6u);
  EXPECT_GT(replayed.boundary, 0u);
  EXPECT_EQ(live, replayed.boundary);
}

TEST(StreamingExperiment, LossyCaptureReplayMatchesReferenceLiveCollapseNot) {
  // A capture-mode campaign over lossy, reordering client links: Bing-like,
  // 40 vantage points x 30 queries, half of them wireless, 1% reordering.
  testbed::ScenarioOptions so;
  so.profile = cdn::bing_like_profile();
  so.client_count = 40;
  so.seed = 20;
  so.wireless_fraction = 0.5;
  so.client_link_reorder = 0.01;
  testbed::Scenario scenario(so);
  scenario.warm_up();
  auto& clients = scenario.clients();
  const std::size_t boundary =
      testbed::discover_boundary(scenario, 0, clients[0].default_fe);

  const std::vector<search::Keyword> keywords =
      search::KeywordCatalog(20).figure3_keywords();
  constexpr std::size_t kReps = 30;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    scenario.connect_client_to_fe(i, clients[i].default_fe);
    const net::Endpoint fe = scenario.default_fe_endpoint(i);
    for (std::size_t r = 0; r < kReps; ++r) {
      const search::Keyword kw = keywords[r % keywords.size()];
      clients[i].node->simulator().schedule_in(
          73_ms * static_cast<std::int64_t>(i) +
              1200_ms * static_cast<std::int64_t>(r),
          [&clients, i, fe, kw]() {
            clients[i].query_client->submit(fe, kw,
                                            [](const cdn::QueryResult&) {});
          });
    }
  }
  scenario.run();

  std::size_t flows = 0, diverged = 0;
  std::uint64_t late = 0;
  for (auto& client : clients) {
    const capture::PacketTrace& trace = client.recorder->trace();
    const auto reference = reference_timelines(trace, kPort, boundary);
    // The replay learns the boundary at drain(): equal to the reference.
    expect_timelines_eq(extract_all_timelines(trace, kPort, boundary),
                        reference);
    // An analyzer given the boundary first, as in a streaming campaign,
    // collapses each flow at teardown and misses what arrives after it.
    StreamingAnalyzer live(kPort);
    live.set_boundary(boundary);
    capture::replay(trace, live);
    late += live.late_packets();
    const auto collapsed = live.drain(boundary);
    ASSERT_EQ(collapsed.size(), reference.size());
    for (std::size_t q = 0; q < reference.size(); ++q) {
      if (!same_timeline(collapsed[q], reference[q])) ++diverged;
    }
    flows += reference.size();
  }
  EXPECT_EQ(flows, clients.size() * kReps);
  EXPECT_GT(late, 0u);
  EXPECT_GT(diverged, 0u);
}

TEST(StreamingExperiment, CachingExperimentMatchesCapturePath) {
  testbed::Scenario cap(small_scenario(false));
  cap.warm_up();
  const auto a = testbed::run_caching_experiment(cap, 0, 0, 5);
  testbed::Scenario str(small_scenario(true));
  str.warm_up();
  const auto b = testbed::run_caching_experiment(str, 0, 0, 5);

  EXPECT_EQ(a.t_dynamic_same_ms, b.t_dynamic_same_ms);
  EXPECT_EQ(a.t_dynamic_distinct_ms, b.t_dynamic_distinct_ms);
  EXPECT_EQ(a.detection.caching_detected, b.detection.caching_detected);
  EXPECT_EQ(a.fe_cache_hits, b.fe_cache_hits);
}

TEST(StreamingExperiment, StreamingModeEmitsOnlineAndBoundsMemory) {
  testbed::Scenario scenario(small_scenario(true));
  scenario.warm_up();
  const auto r =
      testbed::run_fixed_fe_experiment(scenario, 0, small_experiment());
  ASSERT_GT(r.all().size(), 0u);

  obs::MetricsRegistry mem;
  scenario.collect_memory_metrics(mem);
  // Flows were reduced online (the boundary arrives right after discovery,
  // so measured-phase flows collapse at teardown)...
  EXPECT_GT(mem.counter("stream_timelines_online"), 0u);
  EXPECT_EQ(mem.counter("stream_late_packets"), 0u);
  // ...and no packets were retained outside the discovery probe phase,
  // whose handful of payload-bearing records dominates the retained peak.
  const double analyzer_peak = mem.gauge("analyzer_live_bytes_peak");
  EXPECT_GT(analyzer_peak, 0.0);

  // The capture-mode scenario retains the whole campaign: its peak must
  // dwarf the streaming analyzer's in-flight state.
  testbed::Scenario cap_scenario(small_scenario(false));
  cap_scenario.warm_up();
  testbed::run_fixed_fe_experiment(cap_scenario, 0, small_experiment());
  obs::MetricsRegistry cap_mem;
  cap_scenario.collect_memory_metrics(cap_mem);
  const double capture_peak = cap_mem.gauge("capture_retained_bytes_peak");
  ASSERT_GT(capture_peak, 0.0);
  // Acceptance floor is 40% lower; construction guarantees far more.
  EXPECT_LT(analyzer_peak, 0.6 * capture_peak);
}

// ---------------------------------------------------------------------------
// Lazy dynamic bodies: the BE's bodies are written only where something
// reads them. A streaming campaign reads only its boundary probe's
// responses, served in the probe's own scenario; saving payload captures
// reads every body served, once each.
// ---------------------------------------------------------------------------

TEST(LazyBodies, StreamingCampaignFillsOnlyTheProbeBodies) {
  testbed::Scenario scenario(small_scenario(true));
  scenario.warm_up();
  const std::size_t before = net::bytebuf_fill_count();
  const auto r =
      testbed::run_fixed_fe_experiment(scenario, 0, small_experiment());
  ASSERT_GT(r.all().size(), 0u);
  // discover_boundary's default probe: 6 distinct keywords.
  EXPECT_EQ(net::bytebuf_fill_count() - before, 6u);
  EXPECT_EQ(scenario.backend().queries_served(), 6u * 3u);
}

TEST(LazyBodies, SavedPayloadCapturesFillEachServedBodyOnce) {
  // A saving campaign writes each vantage point's capture, payload bytes
  // included, to its .dtrc file: every body served, probe and campaign
  // alike, is read and so filled exactly once.
  testbed::ScenarioOptions so = small_scenario(false);
  so.capture_payloads = true;
  testbed::Scenario scenario(so);
  scenario.warm_up();
  const auto dir =
      std::filesystem::temp_directory_path() / "dyncdn_lazy_bodies";
  std::filesystem::remove_all(dir);
  testbed::ExperimentOptions options = small_experiment();
  options.save_traces = dir.string();
  const std::size_t before = net::bytebuf_fill_count();
  testbed::run_fixed_fe_experiment(scenario, 0, options);
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                          std::filesystem::directory_iterator()),
            6);
  EXPECT_EQ(scenario.backend().queries_served(), 6u * 3u);
  // The probe's 6 bodies, then every body the campaign served.
  EXPECT_EQ(net::bytebuf_fill_count() - before,
            6u + scenario.backend().queries_served());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace dyncdn::analysis

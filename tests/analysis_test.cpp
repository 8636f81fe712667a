// Trace-analysis tests: stream reassembly (including loss/reordering),
// boundary discovery and timeline extraction against a hand-built FE-like
// server whose ground-truth timing we control.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "analysis/boundary.hpp"
#include "analysis/reassembly.hpp"
#include "analysis/timeline.hpp"
#include "capture/recorder.hpp"
#include "harness.hpp"
#include "tcp/stack.hpp"

namespace dyncdn::analysis {
namespace {

using dyncdn::testing::pattern_text;
using dyncdn::testing::TwoNodeHarness;
using dyncdn::testing::TwoNodeOptions;
using sim::SimTime;
using namespace dyncdn::sim::literals;

constexpr net::Port kPort = 80;

/// Serves a fixed "static" burst immediately and a "dynamic" burst after a
/// configurable delay — the minimal FE behaviour the analyzer must decode.
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

struct AnalysisFixture {
  explicit AnalysisFixture(TwoNodeOptions opt = {}) : h(opt) {
    capture::RecorderOptions ro;
    ro.capture_payloads = true;
    recorder = std::make_unique<capture::TraceRecorder>(*h.client_node,
                                                        h.simulator, ro);
  }

  /// Run one request; returns the client-side flow id.
  net::FlowId run_query(MiniFrontEnd& fe) {
    fe.install(*h.server);
    tcp::TcpSocket& s = h.client->connect({h.server_node->id(), kPort}, {});
    const net::FlowId flow = s.flow();
    s.send_text("GET /q HTTP/1.1\r\n\r\n");
    h.simulator.run();
    return flow;
  }

  TwoNodeHarness h;
  std::unique_ptr<capture::TraceRecorder> recorder;
};

TEST(Reassembly, ReconstructsCleanStream) {
  AnalysisFixture f;
  MiniFrontEnd fe;
  fe.static_part = pattern_text(5000);
  fe.dynamic_part = "DYNAMIC" + pattern_text(3000);
  const net::FlowId flow = f.run_query(fe);

  const ReassembledStream stream =
      reassemble(f.recorder->trace(), flow, capture::Direction::kReceived);
  EXPECT_EQ(stream.bytes(), fe.static_part + fe.dynamic_part);
  EXPECT_EQ(stream.length(), 8007u);
}

TEST(Reassembly, SentDirectionReconstructsRequest) {
  AnalysisFixture f;
  MiniFrontEnd fe;
  fe.static_part = "s";
  fe.dynamic_part = "d";
  const net::FlowId flow = f.run_query(fe);
  const ReassembledStream stream =
      reassemble(f.recorder->trace(), flow, capture::Direction::kSent);
  EXPECT_EQ(stream.bytes(), "GET /q HTTP/1.1\r\n\r\n");
}

TEST(Reassembly, HandlesRetransmittedSegments) {
  TwoNodeOptions opt;
  // Drop one server->client data packet; TCP retransmits it.
  opt.drop_indices_s2c = {3};
  AnalysisFixture f(opt);
  MiniFrontEnd fe;
  fe.static_part = pattern_text(8 * 1448);
  fe.dynamic_part = "DYN" + pattern_text(2000);
  const net::FlowId flow = f.run_query(fe);

  const ReassembledStream stream =
      reassemble(f.recorder->trace(), flow, capture::Direction::kReceived);
  EXPECT_EQ(stream.bytes(), fe.static_part + fe.dynamic_part);

  // The dropped range (the third data segment; packet 0 is the SYN-ACK)
  // completes only with the retransmission: after the first packet, and
  // after the packets behind the gap first reached past it.
  const std::size_t in_gap = 2 * 1448 + 10;
  const auto t_front = stream.first_packet_reaching(0);
  const auto t_past_gap = stream.first_packet_reaching(in_gap);
  const auto t_filled = stream.prefix_complete_time(in_gap);
  ASSERT_TRUE(t_front && t_past_gap && t_filled);
  EXPECT_GT(*t_past_gap, *t_front);
  EXPECT_GT(*t_filled, *t_past_gap);
}

TEST(Reassembly, PrefixCompleteAfterOutOfOrderFill) {
  TwoNodeOptions opt;
  opt.drop_indices_s2c = {2};  // drop the second data packet (index 2)
  AnalysisFixture f(opt);
  MiniFrontEnd fe;
  fe.static_part = pattern_text(6 * 1448);
  fe.dynamic_part = "DYN";
  const net::FlowId flow = f.run_query(fe);

  const ReassembledStream stream =
      reassemble(f.recorder->trace(), flow, capture::Direction::kReceived);
  ASSERT_EQ(stream.bytes(), fe.static_part + fe.dynamic_part);
  // The prefix completes only when the retransmitted segment arrives,
  // which is later than the first packet reaching the final prefix byte.
  const auto complete = stream.prefix_complete_time(6 * 1448 - 1);
  const auto last_byte_first_arrival =
      stream.first_packet_reaching(6 * 1448 - 1);
  ASSERT_TRUE(complete && last_byte_first_arrival);
  EXPECT_GT(*complete, *last_byte_first_arrival);
}

/// Reference t4: mark every prefix byte in a bitmap, in capture order, and
/// report the segment after which none is missing.
std::optional<SimTime> bitmap_prefix_complete_time(
    const std::vector<ReassembledStream::Segment>& segments,
    std::size_t offset) {
  std::vector<bool> covered(offset + 1, false);
  std::size_t remaining = offset + 1;
  for (const ReassembledStream::Segment& s : segments) {
    const std::size_t hi = std::min(offset + 1, s.offset + s.length);
    for (std::size_t i = s.offset; i < hi; ++i) {
      if (!covered[i]) {
        covered[i] = true;
        --remaining;
      }
    }
    if (remaining == 0) return s.at;
  }
  return std::nullopt;
}

/// A random capture of one stream: MSS-sized segments sent in order, then
/// reordered, duplicated, split into overlapping pieces, repacketized into
/// retransmissions spanning several segments, interleaved with zero-length
/// segments, and with some never delivered (a gap that stays open).
/// Arrival times are distinct, so the returned time names exactly one
/// segment.
std::vector<ReassembledStream::Segment> random_capture(std::mt19937_64& rng) {
  using Segment = ReassembledStream::Segment;
  std::uniform_int_distribution<std::size_t> mss(1, 1448);
  const std::size_t length = std::uniform_int_distribution<std::size_t>(
      0, 12000)(rng);
  std::vector<Segment> sent;
  for (std::size_t at = 0; at < length;) {
    const std::size_t n = std::min(length - at, mss(rng));
    sent.push_back(Segment{at, n, SimTime::zero()});
    at += n;
  }
  std::uniform_int_distribution<int> pct(0, 99);
  const int drop = pct(rng) % 4 == 0 ? 5 : 0;
  const int reorder = pct(rng) % 2 == 0 ? 20 : 0;
  std::vector<Segment> captured;
  for (const Segment& s : sent) {
    if (pct(rng) < drop) continue;
    if (pct(rng) < 10) captured.push_back(Segment{s.offset, 0, {}});
    if (pct(rng) < 10 && s.length > 1) {
      // Two overlapping pieces instead of the whole segment.
      const std::size_t cut = std::uniform_int_distribution<std::size_t>(
          1, s.length - 1)(rng);
      captured.push_back(Segment{s.offset, cut + (s.length - cut) / 2, {}});
      captured.push_back(Segment{s.offset + cut, s.length - cut, {}});
    } else {
      captured.push_back(s);
    }
    if (pct(rng) < 10) captured.push_back(s);  // duplicate
    if (pct(rng) < 10) {
      // A retransmission covering this segment and up to two MSS beyond.
      const std::size_t n = std::min(length - s.offset, s.length + 2896);
      captured.push_back(Segment{s.offset, n, {}});
    }
  }
  for (std::size_t i = 1; i < captured.size(); ++i) {
    if (pct(rng) < reorder) {
      const std::size_t j = std::uniform_int_distribution<std::size_t>(
          i > 8 ? i - 8 : 0, i)(rng);
      std::swap(captured[i], captured[j]);
    }
  }
  // A late duplicate of an early segment and a segment past the end.
  if (!sent.empty() && pct(rng) < 30) captured.push_back(sent.front());
  if (pct(rng) < 30) captured.push_back(Segment{length + 100, 500, {}});
  for (std::size_t i = 0; i < captured.size(); ++i) {
    captured[i].at = SimTime::microseconds(
        static_cast<std::int64_t>(1000 + 37 * i + pct(rng)));
  }
  return captured;
}

TEST(Reassembly, PrefixCompleteTimeMatchesBitmapReference) {
  std::mt19937_64 rng(20111102);
  std::size_t completed = 0, never = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const auto segments = random_capture(rng);
    const ReassembledStream stream = ReassembledStream::from_segments(segments);
    std::vector<std::size_t> offsets = {0, 1, 1447, 1448, 9000};
    if (stream.length() > 0) offsets.push_back(stream.length() - 1);
    offsets.push_back(stream.length());
    offsets.push_back(stream.length() + 200);
    for (int k = 0; k < 4; ++k) {
      offsets.push_back(std::uniform_int_distribution<std::size_t>(
          0, stream.length() + 10)(rng));
    }
    for (const std::size_t offset : offsets) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " offset " +
                   std::to_string(offset));
      const auto expected = bitmap_prefix_complete_time(segments, offset);
      ASSERT_EQ(stream.prefix_complete_time(offset), expected);
      if (expected) {
        ++completed;
      } else {
        ++never;
      }
    }
  }
  // Both outcomes are exercised many times over.
  EXPECT_GT(completed, 5000u);
  EXPECT_GT(never, 5000u);
}

TEST(Reassembly, EmptyForUnknownFlow) {
  AnalysisFixture f;
  MiniFrontEnd fe;
  fe.static_part = "s";
  fe.dynamic_part = "d";
  f.run_query(fe);
  const net::FlowId bogus{net::Endpoint{net::NodeId{1}, 1},
                          net::Endpoint{net::NodeId{2}, 2}};
  EXPECT_TRUE(
      reassemble(f.recorder->trace(), bogus, capture::Direction::kReceived)
          .empty());
}

TEST(Boundary, CommonPrefixOfStrings) {
  const std::vector<std::string> responses{
      "STATIC-PART|dynamic-one", "STATIC-PART|dynamic-two",
      "STATIC-PART|other"};
  EXPECT_EQ(common_prefix_boundary(responses), 12u);
}

TEST(Boundary, IdenticalStringsShareFullLength) {
  const std::vector<std::string> responses{"same", "same"};
  EXPECT_EQ(common_prefix_boundary(responses), 4u);
}

TEST(Boundary, FewerThanTwoStreamsIsZero) {
  EXPECT_EQ(common_prefix_boundary(std::vector<std::string>{"only"}), 0u);
  EXPECT_EQ(common_prefix_boundary(std::vector<std::string>{}), 0u);
}

TEST(Boundary, NoCommonPrefixIsZero) {
  const std::vector<std::string> responses{"abc", "xyz"};
  EXPECT_EQ(common_prefix_boundary(responses), 0u);
}

/// A capture at node 1 of `count` interleaved HTTP exchanges, each from
/// its own client port to port 80 of one of three servers (every fifth to
/// port 443): SYN, SYN-ACK, request, then a response of a shared
/// `kStatic`-byte prefix plus a per-flow dynamic part, received in 100-byte
/// segments, partly out of order and partly retransmitted. Every seventh
/// flow's payload bytes were not captured, and every eleventh lost its last
/// dynamic segment.
constexpr std::size_t kStatic = 300;

capture::PacketTrace interleaved_capture(std::mt19937_64& rng,
                                         std::size_t count) {
  using capture::Direction;
  const net::NodeId client{1};
  const std::string static_part = pattern_text(kStatic);
  std::vector<std::vector<capture::PacketRecord>> per_flow(count);
  for (std::size_t k = 0; k < count; ++k) {
    const net::NodeId server{static_cast<std::uint32_t>(2 + k % 3)};
    const net::Port cport = static_cast<net::Port>(40000 + k);
    const net::Port sport = k % 5 == 4 ? 443 : kPort;
    const std::uint64_t iss_c = 1000 * k + 7;
    const std::uint64_t iss_s = 5000 + 13 * k;
    std::vector<capture::PacketRecord>& out = per_flow[k];
    const auto sent = [&](std::uint64_t seq, std::string_view text, bool syn) {
      capture::PacketRecord r;
      r.direction = Direction::kSent;
      r.src = client;
      r.dst = server;
      r.tcp.src_port = cport;
      r.tcp.dst_port = sport;
      r.tcp.seq = seq;
      r.tcp.flags.syn = syn;
      r.payload_size = text.size();
      if (!text.empty()) {
        r.payload = net::PayloadRef{net::make_buffer(text), 0, text.size()};
      }
      out.push_back(std::move(r));
    };
    const auto received = [&](std::uint64_t seq, std::string_view text,
                              bool syn) {
      capture::PacketRecord r;
      r.direction = Direction::kReceived;
      r.src = server;
      r.dst = client;
      r.tcp.src_port = sport;
      r.tcp.dst_port = cport;
      r.tcp.seq = seq;
      r.tcp.flags.syn = syn;
      r.tcp.flags.ack = true;
      r.payload_size = text.size();
      if (!text.empty() && k % 7 != 6) {
        r.payload = net::PayloadRef{net::make_buffer(text), 0, text.size()};
      }
      out.push_back(std::move(r));
    };
    sent(iss_c, "", true);
    received(iss_s, "", true);
    sent(iss_c + 1, "GET /q" + std::to_string(k) + " HTTP/1.1\r\n\r\n",
         false);

    std::string response = static_part;
    response += static_cast<char>('a' + k % 26);
    response += pattern_text(50 + rng() % 300);
    std::vector<std::size_t> offsets;
    for (std::size_t off = 0; off < response.size(); off += 100) {
      offsets.push_back(off);
    }
    if (k % 11 == 10 && offsets.size() > 4) offsets.pop_back();
    for (std::size_t i = 0; i + 1 < offsets.size(); ++i) {
      if (rng() % 4 == 0) std::swap(offsets[i], offsets[i + 1]);
    }
    for (std::size_t i = 0; i < offsets.size(); ++i) {
      if (rng() % 5 != 0) continue;
      const std::size_t at = i + 1 + rng() % (offsets.size() - i);
      offsets.insert(offsets.begin() + static_cast<std::ptrdiff_t>(at),
                     offsets[i]);
    }
    for (const std::size_t off : offsets) {
      received(iss_s + 1 + off, std::string_view(response).substr(off, 100),
               false);
    }
  }

  // Interleave: each step appends the next record of a random unfinished
  // flow, so every flow keeps its own order.
  capture::PacketTrace trace(client);
  std::vector<std::size_t> next(count, 0);
  std::vector<std::size_t> open(count);
  for (std::size_t k = 0; k < count; ++k) open[k] = k;
  std::int64_t ms = 0;
  while (!open.empty()) {
    const std::size_t pick = rng() % open.size();
    const std::size_t k = open[pick];
    capture::PacketRecord r = per_flow[k][next[k]++];
    r.timestamp = SimTime::milliseconds(++ms);
    trace.add(std::move(r));
    if (next[k] == per_flow[k].size()) open.erase(open.begin() + pick);
  }
  return trace;
}

TEST(Boundary, ProbeAndFlowsMatchPerFlowReassembly) {
  using capture::Direction;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    const capture::PacketTrace trace = interleaved_capture(rng, 60);

    // flows(): first appearance, by a linear scan.
    std::vector<net::FlowId> flows;
    for (const capture::PacketRecordView r : trace.records()) {
      const net::FlowId f = r.flow_at_capture_node();
      if (std::find(flows.begin(), flows.end(), f) == flows.end()) {
        flows.push_back(f);
      }
    }
    ASSERT_EQ(flows.size(), 60u);
    EXPECT_EQ(trace.flows(), flows);

    // flow_records(): each flow's records, and the streams reassembled from
    // them equal those reassemble() finds by scanning the whole trace.
    const auto groups = trace.flow_records();
    ASSERT_EQ(groups.size(), flows.size());
    std::vector<std::string> responses;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const net::FlowId& flow = flows[g];
      EXPECT_EQ(groups[g].flow, flow);
      std::vector<std::size_t> records;
      for (std::size_t i = 0; i < trace.size(); ++i) {
        if (trace.view(i).flow_at_capture_node() == flow) records.push_back(i);
      }
      EXPECT_EQ(groups[g].records, records);
      for (const Direction d : {Direction::kReceived, Direction::kSent}) {
        const ReassembledStream whole = reassemble(trace, flow, d);
        const ReassembledStream own = reassemble(trace, groups[g].records, d);
        EXPECT_EQ(own.bytes(), whole.bytes());
        EXPECT_EQ(own.length(), whole.length());
        ASSERT_EQ(own.segments().size(), whole.segments().size());
        for (std::size_t i = 0; i < own.segments().size(); ++i) {
          EXPECT_EQ(own.segments()[i].offset, whole.segments()[i].offset);
          EXPECT_EQ(own.segments()[i].length, whole.segments()[i].length);
          EXPECT_EQ(own.segments()[i].at, whole.segments()[i].at);
        }
      }
      if (flow.remote.port != kPort) continue;
      const ReassembledStream stream = reassemble(trace, flow);
      if (!stream.bytes().empty()) responses.push_back(stream.bytes());
    }

    // probe_boundary: the common prefix of the port-80 responses that
    // carry payload bytes, in first-appearance order.
    const ProbedBoundary probed = probe_boundary(trace, kPort);
    EXPECT_EQ(probed.responses, responses.size());
    EXPECT_GT(probed.responses, 30u);
    EXPECT_EQ(probed.boundary, common_prefix_boundary(responses));
    EXPECT_EQ(probed.boundary, kStatic);
  }
}

TEST(Boundary, TemporalClustersSeparateStaticAndDynamic) {
  TwoNodeOptions opt;
  opt.one_way_delay = 5_ms;  // low RTT: clusters clearly separated
  AnalysisFixture f(opt);
  MiniFrontEnd fe;
  fe.static_part = pattern_text(3000);
  fe.dynamic_part = pattern_text(4000);
  fe.fetch_delay = 150_ms;
  const net::FlowId flow = f.run_query(fe);

  const ReassembledStream stream =
      reassemble(f.recorder->trace(), flow, capture::Direction::kReceived);
  const auto clusters = temporal_clusters(stream, 50_ms);
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[0].first_offset, 0u);
  EXPECT_EQ(clusters[1].first_offset, 3000u);
  EXPECT_EQ(clusters[0].bytes, 3000u);
  EXPECT_EQ(clusters[1].bytes, 4000u);
}

TEST(Boundary, ClustersMergeAtHighRtt) {
  TwoNodeOptions opt;
  opt.one_way_delay = 150_ms;  // RTT 300ms >> fetch delay
  AnalysisFixture f(opt);
  MiniFrontEnd fe;
  fe.static_part = pattern_text(20 * 1448);  // multiple windows of static
  fe.dynamic_part = pattern_text(4000);
  fe.fetch_delay = 100_ms;
  const net::FlowId flow = f.run_query(fe);

  const ReassembledStream stream =
      reassemble(f.recorder->trace(), flow, capture::Direction::kReceived);
  // Temporal clustering is only meaningful when the gap threshold exceeds
  // the path RTT (window stalls also pause arrivals for one RTT) — the
  // paper applies it at low RTT for the same reason. With a threshold
  // above the 300ms RTT, static and dynamic lump into one cluster: the
  // paper's "lumped together" regime.
  EXPECT_EQ(temporal_clusters(stream, 400_ms).size(), 1u);
  // Below the RTT, clustering merely finds congestion-window bursts, not
  // the content boundary.
  const auto clusters = temporal_clusters(stream, 50_ms);
  EXPECT_GT(clusters.size(), 2u);
}

TEST(Timeline, ExtractsModelEventsInOrder) {
  TwoNodeOptions opt;
  opt.one_way_delay = 10_ms;
  AnalysisFixture f(opt);
  MiniFrontEnd fe;
  fe.static_part = pattern_text(4000);
  fe.dynamic_part = pattern_text(6000);
  fe.fetch_delay = 200_ms;
  const net::FlowId flow = f.run_query(fe);

  const QueryTimeline tl =
      extract_timeline(f.recorder->trace(), flow, fe.static_part.size());
  ASSERT_TRUE(tl.valid) << tl.invalid_reason;
  EXPECT_LT(tl.tb, tl.t_synack);
  EXPECT_LE(tl.t_synack, tl.t1);
  EXPECT_LT(tl.t1, tl.t2);
  EXPECT_LE(tl.t2, tl.t3);
  EXPECT_LE(tl.t3, tl.t4);
  EXPECT_LE(tl.t4, tl.t5);
  EXPECT_LE(tl.t5, tl.te);
  EXPECT_NEAR(tl.rtt().to_milliseconds(), 20.0, 1.0);
  // The GET is acked one RTT after t1.
  EXPECT_NEAR((tl.t2 - tl.t1).to_milliseconds(), 20.0, 1.0);
  // The dynamic portion appears ~fetch_delay after the static burst began.
  EXPECT_NEAR((tl.t5 - tl.t3).to_milliseconds(), 200.0, 25.0);
  EXPECT_EQ(tl.response_bytes, 10000u);
}

TEST(Timeline, InvalidWithoutBoundary) {
  AnalysisFixture f;
  MiniFrontEnd fe;
  fe.static_part = "st";
  fe.dynamic_part = "dy";
  const net::FlowId flow = f.run_query(fe);
  EXPECT_FALSE(extract_timeline(f.recorder->trace(), flow, 0).valid);
  EXPECT_FALSE(extract_timeline(f.recorder->trace(), flow, 9999).valid);
}

TEST(Timeline, InvalidForMissingFlow) {
  AnalysisFixture f;
  const net::FlowId bogus{net::Endpoint{net::NodeId{1}, 1},
                          net::Endpoint{net::NodeId{2}, 2}};
  const QueryTimeline tl = extract_timeline(f.recorder->trace(), bogus, 1);
  EXPECT_FALSE(tl.valid);
  EXPECT_EQ(tl.invalid_reason, "no packets for flow");
}

TEST(Timeline, ExtractAllFindsEveryConnection) {
  AnalysisFixture f;
  MiniFrontEnd fe;
  fe.static_part = pattern_text(2000);
  fe.dynamic_part = pattern_text(2000);
  fe.install(*f.h.server);
  for (int i = 0; i < 3; ++i) {
    tcp::TcpSocket& s =
        f.h.client->connect({f.h.server_node->id(), kPort}, {});
    s.send_text("GET /q HTTP/1.1\r\n\r\n");
    f.h.simulator.run();
  }
  const auto timelines =
      extract_all_timelines(f.recorder->trace(), kPort, 2000);
  ASSERT_EQ(timelines.size(), 3u);
  for (const auto& tl : timelines) EXPECT_TRUE(tl.valid);
}

TEST(Timeline, CoalescedBoundaryGivesZeroDelta) {
  // Static and dynamic sent back-to-back (fetch finished first): t5 should
  // coincide with (or precede) t4 within one packet.
  AnalysisFixture f;
  MiniFrontEnd fe;
  fe.static_part = pattern_text(1000);
  fe.dynamic_part = pattern_text(1000);
  fe.fetch_delay = SimTime::zero();
  const net::FlowId flow = f.run_query(fe);
  const QueryTimeline tl =
      extract_timeline(f.recorder->trace(), flow, 1000);
  ASSERT_TRUE(tl.valid) << tl.invalid_reason;
  EXPECT_LE((tl.t5 - tl.t4).to_milliseconds(), 0.5);
}

}  // namespace
}  // namespace dyncdn::analysis

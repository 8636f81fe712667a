// Fig.-2 timeline reduction: the one reducer.
//
// StreamingAnalyzer is the only code that turns captured packets into
// QueryTimelines. A StreamingTimeline keeps per flow only the
// control-event state machine plus the received-side segment list (seq,
// length, timestamp — never payload bytes), so analysis memory is
// O(in-flight flows), not O(packets). The static/dynamic boundary comes
// from content analysis of a retained capture (analysis/boundary.hpp).
// Both campaign modes run the analyzer:
//
//   live streaming (ScenarioOptions::stream_analysis) attaches it to a
//     recorder and sets the campaign's boundary before the queries, so
//     each flow collapses to its QueryTimeline the moment its teardown is
//     captured;
//   replay (capture mode, extract_all_timelines, trace_inspect, the
//     examples) feeds a retained capture, in capture order, to a fresh
//     analyzer that learns the boundary only at drain(), so every flow
//     collapses at drain() after all of its packets.
//
// The two agree unless the live analyzer reports late_packets(): a packet
// other than a pure ACK that reached a flow after it collapsed (e.g. a
// retransmission after both FINs, which lossy or reordering paths
// produce). Such a packet can move te, t4 or t5 in a replay but not live.
// Choosing one te rule for those retransmissions changes results, so it is
// left to its own change.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/timeline.hpp"
#include "capture/recorder.hpp"
#include "capture/trace.hpp"
#include "mem/flat_table.hpp"
#include "mem/slab.hpp"
#include "net/address.hpp"

namespace dyncdn::analysis {

/// Incremental Fig.-2 timeline builder for one TCP flow.
///
/// Feed it every packet of the flow in capture order via observe(); call
/// finalize() (teardown seen, or at drain time) to obtain its QueryTimeline.
class StreamingTimeline {
 public:
  explicit StreamingTimeline(const net::FlowId& flow);

  void observe(const capture::PacketRecord& record);

  /// Both FINs (or a RST) observed: no future packet can change the
  /// timeline except trailing pure ACKs, which never affect analysis.
  bool complete() const { return rst_ || (fin_sent_ && fin_rcvd_); }

  /// Reduce accumulated state to the flow's timeline. Pure: does not
  /// consume state, so calling at teardown or at drain gives equal results.
  QueryTimeline finalize(std::size_t boundary) const;

  /// Deterministic footprint of this builder (state machine + segment
  /// list). Used for the analyzer's live/peak accounting.
  std::size_t retained_bytes() const {
    return sizeof(StreamingTimeline) + data_.size() * sizeof(RawSegment);
  }

 private:
  /// A received data segment exactly as captured, pre-normalization (the
  /// stream base is only known once all SYNs have been seen).
  struct RawSegment {
    std::uint64_t seq;
    std::size_t length;
    sim::SimTime at;
  };

  QueryTimeline tl_;  // flow + control events filled in as observed
  bool saw_syn_ = false, saw_synack_ = false, saw_t1_ = false,
       saw_t2_ = false;
  bool fin_sent_ = false, fin_rcvd_ = false, rst_ = false;
  std::optional<std::uint64_t> client_iss_;
  std::optional<std::uint64_t> rcv_iss_;       // last received SYN seq
  std::optional<std::uint64_t> min_data_seq_;  // earliest received data seq
  std::vector<RawSegment> data_;               // received payload segments
};

/// Multi-flow streaming analyzer: a capture::PacketSink that groups packets
/// by connection (first-appearance order) and emits QueryTimelines.
///
/// Boundary lifecycle: until set_boundary() is called, completed flows stay
/// buffered (their timeline depends on the static/dynamic split). After
/// the boundary is known — an experiment sets it before its queries —
/// every flow collapses to its timeline at teardown. drain() returns all
/// timelines in first-appearance flow order and resets the flow table; the
/// boundary persists across drains (multi-phase experiments reuse it) and
/// is only cleared by on_clear(), which TraceRecorder::clear() forwards.
class StreamingAnalyzer final : public capture::PacketSink {
 public:
  explicit StreamingAnalyzer(net::Port server_port);
  ~StreamingAnalyzer() override;

  StreamingAnalyzer(const StreamingAnalyzer&) = delete;
  StreamingAnalyzer& operator=(const StreamingAnalyzer&) = delete;

  // capture::PacketSink
  void on_packet(const capture::PacketRecord& record) override;
  void on_clear() override;

  /// Fix the static/dynamic boundary, enabling online emission. Completed
  /// flows buffered so far collapse immediately. Throws std::logic_error
  /// if a different boundary is already set.
  void set_boundary(std::size_t boundary);
  bool has_boundary() const { return boundary_.has_value(); }

  /// Finalize every remaining flow and return all timelines in
  /// first-appearance order. Resets the flow table; keeps the boundary.
  std::vector<QueryTimeline> drain(std::size_t boundary);

  /// Deterministic live footprint (builders + buffered timelines).
  std::size_t live_bytes() const { return live_bytes_; }
  /// High-water mark of live_bytes() since construction (survives drain
  /// and on_clear, so it reports the whole campaign's worst moment).
  std::size_t peak_live_bytes() const { return peak_live_bytes_; }

  /// Flows collapsed online (at teardown, before drain).
  std::uint64_t timelines_emitted_online() const { return emitted_online_; }

  /// Non-trivial packets (anything but a pure ACK) that arrived for a flow
  /// already collapsed online. A nonzero value means a replay of the same
  /// capture may give a different timeline for that flow (see the top of
  /// this file); a replay, which collapses only at drain(), reports 0.
  std::uint64_t late_packets() const { return late_packets_; }

 private:
  struct Slot {
    net::FlowId flow;
    StreamingTimeline* live = nullptr;  // slab-owned; null once collapsed
    std::optional<QueryTimeline> done;
  };

  void bump_peak() {
    if (live_bytes_ > peak_live_bytes_) peak_live_bytes_ = live_bytes_;
  }
  void collapse(Slot& slot);
  /// Finalize-and-release for one live builder (slab storage goes back to
  /// the free list).
  void release_live(Slot& slot);

  net::Port server_port_;
  std::optional<std::size_t> boundary_;
  std::vector<Slot> slots_;  // first-appearance order
  /// Flow -> slot index. Flat table: drain order comes from slots_, so the
  /// table's slot-order iteration never matters.
  mem::FlatMap<net::FlowId, std::size_t> index_;
  /// Builder storage: one slab block per in-flight flow.
  mem::TypedSlab<StreamingTimeline> timeline_slab_;
  std::size_t live_bytes_ = 0;
  std::size_t peak_live_bytes_ = 0;
  std::uint64_t emitted_online_ = 0;
  std::uint64_t late_packets_ = 0;
};

}  // namespace dyncdn::analysis

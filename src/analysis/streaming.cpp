#include "analysis/streaming.hpp"

#include <stdexcept>
#include <utility>

namespace dyncdn::analysis {

namespace {

/// A packet that can no longer influence a finished flow's timeline: no
/// payload, no control flags. The teardown's trailing ACK is the common
/// case.
bool is_pure_ack(const capture::PacketRecord& r) {
  return r.payload_size == 0 && !r.tcp.flags.syn && !r.tcp.flags.fin &&
         !r.tcp.flags.rst;
}

}  // namespace

StreamingTimeline::StreamingTimeline(const net::FlowId& flow) {
  tl_.flow = flow;
}

void StreamingTimeline::observe(const capture::PacketRecord& r) {
  const bool sent = r.direction == capture::Direction::kSent;

  // Control-plane events: the first SYN sent, SYN-ACK received, request
  // payload sent and server ACK of that payload, each taken once.
  if (sent && r.tcp.flags.syn && !saw_syn_) {
    tl_.tb = r.timestamp;
    client_iss_ = r.tcp.seq;
    saw_syn_ = true;
  } else if (!sent && r.tcp.flags.syn && r.tcp.flags.ack && !saw_synack_) {
    tl_.t_synack = r.timestamp;
    saw_synack_ = true;
  } else if (sent && r.payload_size > 0 && !saw_t1_) {
    tl_.t1 = r.timestamp;  // the GET
    saw_t1_ = true;
  } else if (!sent && saw_t1_ && !saw_t2_ && r.tcp.flags.ack && client_iss_ &&
             r.tcp.ack > *client_iss_ + 1) {
    // First packet from the server acknowledging request payload.
    tl_.t2 = r.timestamp;
    saw_t2_ = true;
  }

  // Received-side stream state, normalized as reassemble() does: the base
  // is the *last* received SYN seq (+1), falling back to the minimum data
  // seq; segments are kept raw because the base is only final at the end.
  if (!sent) {
    if (r.tcp.flags.syn) rcv_iss_ = r.tcp.seq;
    if (r.payload_size > 0) {
      if (!min_data_seq_ || r.tcp.seq < *min_data_seq_) {
        min_data_seq_ = r.tcp.seq;
      }
      data_.push_back(RawSegment{r.tcp.seq, r.payload_size, r.timestamp});
    }
    if (r.tcp.flags.fin) fin_rcvd_ = true;
  } else {
    if (r.tcp.flags.fin) fin_sent_ = true;
  }
  if (r.tcp.flags.rst) rst_ = true;
}

QueryTimeline StreamingTimeline::finalize(std::size_t boundary) const {
  QueryTimeline tl = tl_;
  tl.boundary = boundary;

  if (!saw_syn_ || !saw_synack_ || !saw_t1_ || !saw_t2_) {
    tl.invalid_reason = "incomplete handshake/request events";
    return tl;
  }

  // Normalize the segments against the now-final stream base.
  std::vector<ReassembledStream::Segment> segments;
  if (min_data_seq_) {
    const std::uint64_t base = rcv_iss_ ? *rcv_iss_ + 1 : *min_data_seq_;
    segments.reserve(data_.size());
    for (const RawSegment& s : data_) {
      if (s.seq < base) continue;  // pre-data sequence space (SYN)
      segments.push_back(ReassembledStream::Segment{
          static_cast<std::size_t>(s.seq - base), s.length, s.at});
    }
  }
  const ReassembledStream stream =
      ReassembledStream::from_segments(std::move(segments));
  finish_timeline_from_stream(tl, stream, boundary);
  return tl;
}

StreamingAnalyzer::StreamingAnalyzer(net::Port server_port)
    : server_port_(server_port),
      timeline_slab_(/*blocks_per_chunk=*/64) {}

StreamingAnalyzer::~StreamingAnalyzer() {
  for (Slot& slot : slots_) {
    if (slot.live != nullptr) timeline_slab_.destroy(slot.live);
  }
}

void StreamingAnalyzer::release_live(Slot& slot) {
  timeline_slab_.destroy(slot.live);
  slot.live = nullptr;
}

void StreamingAnalyzer::on_packet(const capture::PacketRecord& record) {
  const net::FlowId flow = record.flow_at_capture_node();
  if (flow.remote.port != server_port_) return;

  const auto [entry, inserted] = index_.try_emplace(flow, slots_.size());
  if (inserted) {
    slots_.push_back(Slot{flow, timeline_slab_.create(flow), std::nullopt});
    live_bytes_ += slots_.back().live->retained_bytes();
    bump_peak();
  }
  Slot& slot = slots_[*entry];

  if (!slot.live) {
    // Flow already collapsed online. Teardown ACKs are inert by
    // construction; anything else might have changed a replay's result.
    if (!is_pure_ack(record)) ++late_packets_;
    return;
  }

  const std::size_t before = slot.live->retained_bytes();
  slot.live->observe(record);
  live_bytes_ += slot.live->retained_bytes() - before;
  bump_peak();

  if (boundary_ && slot.live->complete()) collapse(slot);
}

void StreamingAnalyzer::collapse(Slot& slot) {
  live_bytes_ -= slot.live->retained_bytes();
  slot.done = slot.live->finalize(*boundary_);
  release_live(slot);
  live_bytes_ += sizeof(QueryTimeline);
  bump_peak();
  ++emitted_online_;
}

void StreamingAnalyzer::set_boundary(std::size_t boundary) {
  if (boundary_ && *boundary_ != boundary) {
    throw std::logic_error(
        "StreamingAnalyzer: boundary already set to a different value");
  }
  boundary_ = boundary;
  for (Slot& slot : slots_) {
    if (slot.live && slot.live->complete()) collapse(slot);
  }
}

std::vector<QueryTimeline> StreamingAnalyzer::drain(std::size_t boundary) {
  if (boundary_ && *boundary_ != boundary) {
    throw std::logic_error(
        "StreamingAnalyzer: drain boundary differs from streaming boundary");
  }
  boundary_ = boundary;

  std::vector<QueryTimeline> out;
  out.reserve(slots_.size());
  for (Slot& slot : slots_) {
    if (slot.live != nullptr) {
      out.push_back(slot.live->finalize(boundary));
      release_live(slot);
    } else {
      out.push_back(std::move(*slot.done));
    }
  }
  slots_.clear();
  index_.clear();
  live_bytes_ = 0;
  return out;
}

void StreamingAnalyzer::on_clear() {
  for (Slot& slot : slots_) {
    if (slot.live != nullptr) release_live(slot);
  }
  slots_.clear();
  index_.clear();
  live_bytes_ = 0;
  boundary_.reset();
}

}  // namespace dyncdn::analysis

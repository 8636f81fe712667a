#include "analysis/streaming.hpp"

#include <algorithm>
#include <limits>
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
  if (probing_) {
    // Probe traffic builds clipped response prefixes only; it must never
    // surface as timelines in drain().
    observe_probe(record);
    return;
  }
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
  reset_probe();
}

// --- Streaming boundary discovery -----------------------------------------

std::size_t StreamingAnalyzer::probe_retained(const ProbeFlow& f) {
  std::size_t n = sizeof(ProbeFlow) + f.bytes.size() +
                  f.covered.size() * sizeof(std::pair<std::size_t, std::size_t>);
  for (const ProbeFlow::PendingSegment& p : f.pending) {
    n += sizeof(ProbeFlow::PendingSegment) + p.bytes.size();
  }
  return n;
}

void StreamingAnalyzer::begin_boundary_probe() {
  if (probing_) {
    throw std::logic_error("StreamingAnalyzer: boundary probe already active");
  }
  reset_probe();
  probing_ = true;
}

std::size_t StreamingAnalyzer::probe_flows() const {
  std::size_t n = 0;
  for (const ProbeFlow& f : probe_flows_) {
    const bool pending_payload =
        std::any_of(f.pending.begin(), f.pending.end(),
                    [](const auto& p) { return !p.bytes.empty(); });
    if (f.has_payload || pending_payload) ++n;
  }
  return n;
}

void StreamingAnalyzer::observe_probe(const capture::PacketRecord& r) {
  if (r.direction != capture::Direction::kReceived) return;
  const net::FlowId flow = r.flow_at_capture_node();
  if (flow.remote.port != server_port_) return;

  const auto [entry, inserted] =
      probe_index_.try_emplace(flow, probe_flows_.size());
  if (inserted) {
    probe_flows_.emplace_back();
    probe_flows_.back().flow = flow;
  }
  ProbeFlow& pf = probe_flows_[*entry];
  const std::size_t before = inserted ? 0 : probe_retained(pf);

  if (r.tcp.flags.syn) {
    // reassemble() keys the stream base off the *last* received SYN. The
    // TCP stack never changes a connection's ISS across retransmissions,
    // so rebasing is a no-op and pending pre-SYN data can be applied the
    // moment the first SYN lands.
    pf.iss = r.tcp.seq;
    for (ProbeFlow::PendingSegment& p : pf.pending) {
      apply_probe_segment(pf, *pf.iss + 1, p.seq, p.length, p.bytes);
    }
    pf.pending.clear();
  }
  if (r.payload_size > 0) {
    // Single-slice payloads (the overwhelming common case) are consumed in
    // place; chained ones are flattened into a reused scratch buffer whose
    // capacity persists across packets.
    std::span<const std::uint8_t> flat;
    if (!r.payload.chained()) {
      flat = r.payload.bytes();
    } else {
      probe_scratch_.clear();
      probe_scratch_.reserve(r.payload.length);
      r.payload.for_each_slice([this](std::span<const std::uint8_t> s) {
        probe_scratch_.insert(probe_scratch_.end(), s.begin(), s.end());
      });
      flat = probe_scratch_;
    }
    if (!pf.iss) {
      // Pre-SYN data must outlive this call: the segment keeps a copy.
      pf.pending.push_back(ProbeFlow::PendingSegment{
          r.tcp.seq, r.payload_size, {flat.begin(), flat.end()}});
    } else {
      apply_probe_segment(pf, *pf.iss + 1, r.tcp.seq, r.payload_size, flat);
    }
  }

  live_bytes_ = live_bytes_ - before + probe_retained(pf);
  bump_peak();
  advance_probe_compare();
}

void StreamingAnalyzer::apply_probe_segment(
    ProbeFlow& pf, std::uint64_t base, std::uint64_t seq,
    std::size_t payload_size, std::span<const std::uint8_t> payload) {
  if (seq < base) return;  // pre-data sequence space (SYN)
  const std::size_t offset = static_cast<std::size_t>(seq - base);
  pf.full_length = std::max(pf.full_length, offset + payload_size);
  if (payload.empty()) return;
  pf.has_payload = true;
  if (offset >= probe_cap_) return;

  // Overwrite-copy like reassemble(), clipped to the shared cap: gaps are
  // '\0' filler until (and unless) a retransmission covers them.
  const std::size_t end = std::min(offset + payload.size(), probe_cap_);
  if (pf.bytes.size() < end) pf.bytes.resize(end, '\0');
  std::copy(payload.begin(),
            payload.begin() + static_cast<std::ptrdiff_t>(end - offset),
            pf.bytes.begin() + static_cast<std::ptrdiff_t>(offset));

  // Merge [offset, end) into the covered-interval list and refresh the
  // contiguous-from-zero prefix length.
  pf.covered.emplace_back(offset, end);
  std::sort(pf.covered.begin(), pf.covered.end());
  std::vector<std::pair<std::size_t, std::size_t>> merged;
  for (const auto& iv : pf.covered) {
    if (!merged.empty() && iv.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, iv.second);
    } else {
      merged.push_back(iv);
    }
  }
  pf.covered.swap(merged);
  pf.contig = (!pf.covered.empty() && pf.covered.front().first == 0)
                  ? pf.covered.front().second
                  : 0;
}

void StreamingAnalyzer::advance_probe_compare() {
  // Incremental comparison against flow 0 over *covered* bytes only —
  // '\0' filler under a still-open gap may yet be overwritten, so it is
  // not comparable until the probe settles. If flow 0 never carries data
  // the limits stay 0 and the cap is never tightened (the exact scan at
  // finish then picks the first non-empty flow as reference).
  if (probe_flows_.size() < 2) return;
  const ProbeFlow& ref = probe_flows_[0];
  for (std::size_t i = 1; i < probe_flows_.size(); ++i) {
    ProbeFlow& f = probe_flows_[i];
    if (f.mismatch) continue;
    const std::size_t limit = std::min({ref.contig, f.contig, probe_cap_});
    while (f.cmp < limit && ref.bytes[f.cmp] == f.bytes[f.cmp]) ++f.cmp;
    if (f.cmp < limit) {
      f.mismatch = f.cmp;
      tighten_probe_cap(f.cmp + 1);
    }
  }
}

void StreamingAnalyzer::tighten_probe_cap(std::size_t cap) {
  if (cap >= probe_cap_) return;
  probe_cap_ = cap;
  for (ProbeFlow& f : probe_flows_) {
    const std::size_t before = probe_retained(f);
    if (f.bytes.size() > cap) {
      f.bytes.resize(cap);
      f.bytes.shrink_to_fit();
    }
    while (!f.covered.empty() && f.covered.back().first >= cap) {
      f.covered.pop_back();
    }
    if (!f.covered.empty() && f.covered.back().second > cap) {
      f.covered.back().second = cap;
    }
    f.contig = std::min(f.contig, cap);
    f.cmp = std::min(f.cmp, cap);
    live_bytes_ -= before - probe_retained(f);
  }
}

std::size_t StreamingAnalyzer::finish_boundary_probe() {
  if (!probing_) {
    throw std::logic_error(
        "StreamingAnalyzer: finish_boundary_probe without an active probe");
  }
  probing_ = false;

  // Flows that never saw a SYN: reassemble() falls back to the minimum
  // data seq as the stream base. Only now is that minimum final.
  for (ProbeFlow& f : probe_flows_) {
    if (f.pending.empty()) continue;
    std::uint64_t base = std::numeric_limits<std::uint64_t>::max();
    for (const ProbeFlow::PendingSegment& p : f.pending) {
      base = std::min(base, p.seq);
    }
    const std::size_t before = probe_retained(f);
    std::vector<ProbeFlow::PendingSegment> pending;
    pending.swap(f.pending);
    for (ProbeFlow::PendingSegment& p : pending) {
      apply_probe_segment(f, base, p.seq, p.length, p.bytes);
    }
    live_bytes_ = live_bytes_ - before + probe_retained(f);
    bump_peak();
  }

  // Exact final scan over the settled buffers. Unlike the incremental
  // pass this includes '\0' gap filler, exactly as a common prefix of
  // fully reassembled strings would see it; and the reference is the
  // first stream that carried payload bytes. Headers-only streams are no
  // responses to compare: without them there is no boundary.
  std::vector<const ProbeFlow*> nonempty;
  for (const ProbeFlow& f : probe_flows_) {
    if (f.has_payload) nonempty.push_back(&f);
  }
  std::size_t boundary = 0;
  if (nonempty.size() >= 2) {
    const ProbeFlow& ref = *nonempty.front();
    boundary = std::numeric_limits<std::size_t>::max();
    for (std::size_t i = 1; i < nonempty.size(); ++i) {
      const ProbeFlow& f = *nonempty[i];
      const std::size_t limit =
          std::min({ref.bytes.size(), f.bytes.size(), probe_cap_});
      std::size_t p = 0;
      while (p < limit && ref.bytes[p] == f.bytes[p]) ++p;
      // No divergence inside the compared window: the pair's prefix runs
      // to the shorter full stream. (If the window was clipped by the cap,
      // some other pair diverged below it and owns the minimum.)
      const std::size_t cand =
          p < limit ? p : std::min(ref.full_length, f.full_length);
      boundary = std::min(boundary, cand);
    }
  }
  reset_probe();
  return boundary == std::numeric_limits<std::size_t>::max() ? 0 : boundary;
}

void StreamingAnalyzer::reset_probe() {
  for (const ProbeFlow& f : probe_flows_) live_bytes_ -= probe_retained(f);
  probe_flows_.clear();
  probe_index_.clear();
  probe_cap_ = std::numeric_limits<std::size_t>::max();
  probing_ = false;
}

ProbedBoundary probe_boundary(const capture::PacketTrace& trace,
                              net::Port server_port) {
  StreamingAnalyzer analyzer(server_port);
  analyzer.begin_boundary_probe();
  capture::replay(trace, analyzer);
  ProbedBoundary out;
  out.responses = analyzer.probe_flows();
  out.boundary = analyzer.finish_boundary_probe();
  return out;
}

}  // namespace dyncdn::analysis

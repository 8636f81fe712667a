#include "analysis/reassembly.hpp"

#include <algorithm>
#include <functional>
#include <utility>

namespace dyncdn::analysis {

std::optional<sim::SimTime> ReassembledStream::prefix_complete_time(
    std::size_t offset) const {
  // Sweep capture order with a frontier: [0, covered) has arrived. A
  // segment that starts beyond the frontier waits in a min-heap on its
  // start until the frontier reaches it; in-order segments never touch the
  // heap, so an in-order stream allocates nothing.
  const std::size_t want = offset + 1;
  std::size_t covered = 0;
  std::vector<std::pair<std::size_t, std::size_t>> ahead;  // [lo, hi)
  constexpr auto later = std::greater<>{};
  for (const Segment& s : segments_) {
    const std::size_t lo = s.offset;
    const std::size_t hi = std::min(want, s.offset + s.length);
    if (hi <= lo) continue;
    if (lo > covered) {
      ahead.emplace_back(lo, hi);
      std::push_heap(ahead.begin(), ahead.end(), later);
      continue;
    }
    covered = std::max(covered, hi);
    while (!ahead.empty() && ahead.front().first <= covered) {
      covered = std::max(covered, ahead.front().second);
      std::pop_heap(ahead.begin(), ahead.end(), later);
      ahead.pop_back();
    }
    if (covered == want) return s.at;
  }
  return std::nullopt;
}

std::optional<sim::SimTime> ReassembledStream::first_packet_reaching(
    std::size_t offset) const {
  for (const Segment& s : segments_) {
    if (s.offset + s.length > offset) return s.at;
  }
  return std::nullopt;
}

std::optional<sim::SimTime> ReassembledStream::last_packet_time() const {
  if (segments_.empty()) return std::nullopt;
  return segments_.back().at;
}

std::size_t ReassembledStream::snap_to_segment_end(std::size_t offset) const {
  std::size_t best = 0;
  for (const Segment& s : segments_) {
    const std::size_t end = s.offset + s.length;
    if (end <= offset) best = std::max(best, end);
  }
  return best;
}

ReassembledStream ReassembledStream::from_segments(
    std::vector<Segment> segments) {
  ReassembledStream out;
  out.segments_ = std::move(segments);
  for (const Segment& s : out.segments_) {
    out.length_ = std::max(out.length_, s.offset + s.length);
  }
  return out;
}

ReassembledStream reassemble(const capture::PacketTrace& trace,
                             const net::FlowId& flow,
                             capture::Direction direction) {
  std::vector<std::size_t> records;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace.view(i).flow_at_capture_node() == flow) records.push_back(i);
  }
  return reassemble(trace, records, direction);
}

ReassembledStream reassemble(const capture::PacketTrace& trace,
                             std::span<const std::size_t> records,
                             capture::Direction direction) {
  ReassembledStream out;

  // Normalizer: the sender's SYN sequence number (data begins at ISS + 1).
  std::optional<std::uint64_t> iss;
  std::optional<std::uint64_t> min_data_seq;
  for (const std::size_t i : records) {
    const capture::PacketRecordView r = trace.view(i);
    if (r.direction != direction) continue;
    if (r.tcp.flags.syn) iss = r.tcp.seq;
    if (r.payload_size > 0 && (!min_data_seq || r.tcp.seq < *min_data_seq)) {
      min_data_seq = r.tcp.seq;
    }
  }
  if (!min_data_seq) return out;  // no data captured
  const std::uint64_t base = iss ? *iss + 1 : *min_data_seq;

  std::string& bytes = out.bytes_;
  for (const std::size_t i : records) {
    const capture::PacketRecordView r = trace.view(i);
    if (r.direction != direction) continue;
    if (r.payload_size == 0) continue;
    if (r.tcp.seq < base) continue;  // pre-data sequence space (SYN)
    const std::size_t offset = static_cast<std::size_t>(r.tcp.seq - base);

    out.segments_.push_back(
        ReassembledStream::Segment{offset, r.payload_size, r.timestamp});
    out.length_ = std::max(out.length_, offset + r.payload_size);

    if (!r.payload.empty()) {
      if (bytes.size() < offset + r.payload.length) {
        bytes.resize(offset + r.payload.length, '\0');
      }
      std::size_t at = offset;
      r.payload.for_each_slice(
          [&bytes, &at](std::span<const std::uint8_t> span) {
            std::copy(span.begin(), span.end(),
                      bytes.begin() + static_cast<std::ptrdiff_t>(at));
            at += span.size();
          });
    }
  }
  return out;
}

}  // namespace dyncdn::analysis

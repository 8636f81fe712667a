// TCP stream reassembly from captured packet traces.
//
// Reconstructs the application byte stream a node received on one flow,
// together with every captured segment's offset and time. Works purely
// from the capture records (like the paper's offline tcpdump analysis):
// duplicate, retransmitted and out-of-order segments are handled.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "capture/trace.hpp"
#include "net/address.hpp"

namespace dyncdn::analysis {

/// One reassembled direction of a TCP connection.
class ReassembledStream {
 public:
  /// Segment as captured: stream offset (0 = first app byte), length,
  /// arrival (or send) timestamp.
  struct Segment {
    std::size_t offset;
    std::size_t length;
    sim::SimTime at;
  };

  /// Build a stream directly from capture-order segments (offsets already
  /// normalized so 0 = first application byte). The observability layer
  /// uses this to reconstruct a receive stream from span "rx" events and
  /// run the exact same timeline analysis a packet trace would get.
  static ReassembledStream from_segments(std::vector<Segment> segments);

  /// The reconstructed byte stream *content*. Only populated when the
  /// trace retained payload bytes (content analysis); headers-only traces
  /// still produce correct lengths and timings.
  const std::string& bytes() const { return bytes_; }

  /// Total stream length implied by the captured segments (max extent);
  /// valid even without payload retention.
  std::size_t length() const { return length_; }

  /// Earliest capture time of the packet that *completes* delivery of the
  /// prefix [0, offset]: i.e. the time at which all bytes up to `offset`
  /// had arrived. This is what "last packet containing static content"
  /// measures when segments arrive out of order (the paper's t4). Cost:
  /// one pass in capture order, O(segments log segments) for segments that
  /// arrive ahead of a gap and O(segments) without allocating when they
  /// arrive in order; independent of `offset`.
  std::optional<sim::SimTime> prefix_complete_time(std::size_t offset) const;

  /// Capture time of the first packet whose payload includes any byte at
  /// or beyond `offset` (the paper's t5 for offset = boundary).
  std::optional<sim::SimTime> first_packet_reaching(std::size_t offset) const;

  /// Capture time of the final data packet of the stream (te).
  std::optional<sim::SimTime> last_packet_time() const;

  /// Largest segment-end offset that is <= `offset` (0 if none). Used to
  /// snap a content-analysis boundary to packet granularity: the common
  /// prefix across responses can overhang a few bytes into the
  /// BE-generated portion (keyword-independent dynamic boilerplate), but
  /// the packet-level events — which is what tcpdump analysis classifies —
  /// split exactly at a segment edge.
  std::size_t snap_to_segment_end(std::size_t offset) const;

  /// Raw segment list (offset-sorted by arrival order preserved), for
  /// temporal clustering.
  const std::vector<Segment>& segments() const { return segments_; }

  bool empty() const { return segments_.empty(); }

 private:
  friend ReassembledStream reassemble(const capture::PacketTrace& trace,
                                      std::span<const std::size_t> records,
                                      capture::Direction direction);

  std::string bytes_;
  std::size_t length_ = 0;
  std::vector<Segment> segments_;  // in capture order
};

/// Reassemble the bytes the capture node received (direction = kReceived)
/// or sent (kSent) on `flow`. `flow` is from the capture node's
/// perspective (its endpoint first). Sequence numbers are normalized
/// against the SYN of the corresponding sender.
ReassembledStream reassemble(
    const capture::PacketTrace& trace, const net::FlowId& flow,
    capture::Direction direction = capture::Direction::kReceived);

/// The same over the records `trace` holds at `records`, which are one
/// flow's, in capture order (PacketTrace::flow_records): a caller that
/// split the trace by flow once reassembles each flow without rescanning
/// the trace.
ReassembledStream reassemble(
    const capture::PacketTrace& trace, std::span<const std::size_t> records,
    capture::Direction direction = capture::Direction::kReceived);

}  // namespace dyncdn::analysis

#include "analysis/timeline.hpp"

#include <cstdio>
#include <utility>

#include "analysis/streaming.hpp"

namespace dyncdn::analysis {

std::string QueryTimeline::to_string() const {
  if (!valid) return "invalid timeline: " + invalid_reason;
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "rtt=%.2fms t1=%.2f t2=%.2f t3=%.2f t4=%.2f t5=%.2f te=%.2f "
      "(%zuB, boundary=%zu)",
      rtt().to_milliseconds(), t1.to_milliseconds(), t2.to_milliseconds(),
      t3.to_milliseconds(), t4.to_milliseconds(), t5.to_milliseconds(),
      te.to_milliseconds(), response_bytes, boundary);
  return buf;
}

QueryTimeline extract_timeline(const capture::PacketTrace& trace,
                               const net::FlowId& flow,
                               std::size_t boundary) {
  std::vector<QueryTimeline> timelines = extract_all_timelines(
      trace.filter_flow(flow), flow.remote.port, boundary);
  if (!timelines.empty()) return std::move(timelines.front());
  QueryTimeline tl;
  tl.flow = flow;
  tl.boundary = boundary;
  tl.invalid_reason = "no packets for flow";
  return tl;
}

void finish_timeline_from_stream(QueryTimeline& tl,
                                 const ReassembledStream& stream,
                                 std::size_t boundary) {
  if (stream.empty()) {
    tl.invalid_reason = "no response data";
    return;
  }
  tl.response_bytes = stream.length();
  tl.boundary = boundary;

  const auto t3 = stream.first_packet_reaching(0);
  const auto te = stream.last_packet_time();
  if (!t3 || !te) {
    tl.invalid_reason = "response stream incomplete";
    return;
  }
  tl.t3 = *t3;
  tl.te = *te;

  if (boundary == 0 || boundary > stream.length()) {
    tl.invalid_reason = "boundary outside response";
    return;
  }

  // Packet-granularity snap: the discovered common prefix may overhang a
  // few bytes into the dynamic portion (keyword-independent boilerplate
  // generated at the BE). The packet-level split — which is what the
  // paper's temporal clustering classifies — falls on the nearest segment
  // edge at or below the content boundary.
  std::size_t split = stream.snap_to_segment_end(boundary);
  if (split == 0) split = boundary;  // boundary inside the first packet
  tl.boundary = split;

  const auto t4 = stream.prefix_complete_time(split - 1);
  if (!t4) {
    tl.invalid_reason = "static portion never completed";
    return;
  }
  tl.t4 = *t4;

  if (split < stream.length()) {
    const auto t5 = stream.first_packet_reaching(split);
    if (!t5) {
      tl.invalid_reason = "dynamic portion never observed";
      return;
    }
    tl.t5 = *t5;
  } else {
    tl.t5 = tl.t4;  // response was entirely static
  }

  tl.valid = true;
}

std::vector<QueryTimeline> extract_all_timelines(
    const capture::PacketTrace& trace, net::Port server_port,
    std::size_t boundary) {
  StreamingAnalyzer analyzer(server_port);
  capture::replay(trace, analyzer);
  return analyzer.drain(boundary);
}

}  // namespace dyncdn::analysis

// Per-query packet-event timeline extraction (the paper's Fig. 2 model).
//
// From a client-side capture of one query connection, recover:
//   tb       first SYN sent (session start)
//   t_synack SYN-ACK received (tb + RTT)
//   t1       HTTP GET sent
//   t2       server's ACK of the GET received (t1 + RTT)
//   t3       first response-data packet received
//   t4       delivery of the static portion complete (needs the boundary)
//   t5       first packet carrying dynamic content received
//   te       last response-data packet received
#pragma once

#include <optional>
#include <string>

#include "analysis/reassembly.hpp"
#include "capture/trace.hpp"
#include "net/address.hpp"
#include "sim/time.hpp"

namespace dyncdn::analysis {

struct QueryTimeline {
  net::FlowId flow;
  bool valid = false;          // all required events observed
  std::string invalid_reason;

  sim::SimTime tb;       // SYN sent
  sim::SimTime t_synack; // SYN-ACK received
  sim::SimTime t1;       // GET sent
  sim::SimTime t2;       // ACK of GET received
  sim::SimTime t3;       // first data packet
  sim::SimTime t4;       // static portion fully delivered
  sim::SimTime t5;       // first dynamic-content packet
  sim::SimTime te;       // last data packet

  std::size_t response_bytes = 0;  // total response stream length
  std::size_t boundary = 0;        // static/dynamic split used

  /// Handshake RTT estimate (t_synack - tb), the x-axis of Figs. 5-7.
  sim::SimTime rtt() const { return t_synack - tb; }

  std::string to_string() const;
};

/// Extract the timeline for `flow` (from the capture node's perspective)
/// from a client-side trace, splitting the response at `boundary` stream
/// bytes (from boundary discovery). The trace must contain the
/// connection's handshake and data packets.
QueryTimeline extract_timeline(const capture::PacketTrace& trace,
                               const net::FlowId& flow, std::size_t boundary);

/// Fill the response-data events (t3, t4, t5, te) of `tl` from an
/// already-reassembled receive stream, including the packet-granularity
/// boundary snap, and set `tl.valid`. The control events (tb, t_synack,
/// t1, t2) must already be set by the caller. Shared by StreamingTimeline
/// and the span-based reconstruction in the observability tooling, so both
/// paths agree bit-for-bit.
void finish_timeline_from_stream(QueryTimeline& tl,
                                 const ReassembledStream& stream,
                                 std::size_t boundary);

/// Extract timelines for every flow in the trace towards `server_port`
/// (one per query connection, in first-appearance order), e.g. all port-80
/// connections of a node. A replay of the trace through a fresh
/// StreamingAnalyzer that learns the boundary at drain().
std::vector<QueryTimeline> extract_all_timelines(
    const capture::PacketTrace& trace, net::Port server_port,
    std::size_t boundary);

}  // namespace dyncdn::analysis

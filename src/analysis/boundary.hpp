// Static/dynamic content-boundary discovery.
//
// The paper identifies the static portion by application-layer content
// analysis across responses to *different* queries: bytes common to every
// response (HTTP header, HTML head, CSS, menu bar) are static; everything
// after the first divergence is dynamic. It cross-checks with temporal
// clustering of packet events (Fig. 4). Both techniques operate only on
// captured data: common_prefix_boundary is the one implementation of the
// content rule, and probe_boundary applies it to a retained capture.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "analysis/reassembly.hpp"
#include "capture/trace.hpp"
#include "net/address.hpp"
#include "sim/time.hpp"

namespace dyncdn::analysis {

/// Longest common prefix (in bytes) across responses to different
/// queries; 0 for fewer than two. With responses to distinct keywords this
/// is the static-portion length, header block included.
std::size_t common_prefix_boundary(std::span<const std::string> responses);

/// Content-analysis boundary of a retained capture.
struct ProbedBoundary {
  std::size_t boundary = 0;   // 0 when fewer than two responses qualify
  std::size_t responses = 0;  // responses whose data carried payload bytes
};

/// common_prefix_boundary over the response streams `trace` received from
/// `server_port`, each reassembled (gaps read as '\0'), in first-appearance
/// order. Responses whose payload bytes were not captured do not count, so
/// a headers-only capture has no boundary. testbed::discover_boundary runs
/// it on its probe scenario's capture.
ProbedBoundary probe_boundary(const capture::PacketTrace& trace,
                              net::Port server_port);

/// A temporal cluster of packet arrivals (Fig. 4's visual groupings).
struct EventCluster {
  sim::SimTime start;
  sim::SimTime end;
  std::size_t packet_count = 0;
  std::size_t first_offset = 0;  // lowest stream offset in the cluster
  std::size_t bytes = 0;
};

/// Group the stream's packet arrivals into clusters separated by gaps of
/// at least `min_gap`. The paper's observation: at low client RTT, the
/// static and dynamic deliveries form two clearly separated clusters; as
/// RTT grows the gap shrinks and the clusters merge.
std::vector<EventCluster> temporal_clusters(const ReassembledStream& stream,
                                            sim::SimTime min_gap);

}  // namespace dyncdn::analysis

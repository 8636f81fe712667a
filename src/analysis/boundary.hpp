// Static/dynamic content-boundary discovery.
//
// The paper identifies the static portion by application-layer content
// analysis across responses to *different* queries: bytes common to every
// response (HTTP header, HTML head, CSS, menu bar) are static; everything
// after the first divergence is dynamic. It cross-checks with temporal
// clustering of packet events (Fig. 4). Both techniques operate only on
// captured data.
#pragma once

#include <cstddef>
#include <vector>

#include "analysis/reassembly.hpp"
#include "sim/time.hpp"

namespace dyncdn::analysis {

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

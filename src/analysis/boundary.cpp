#include "analysis/boundary.hpp"

#include <algorithm>

namespace dyncdn::analysis {

std::size_t common_prefix_boundary(std::span<const std::string> responses) {
  if (responses.size() < 2) return 0;
  const std::string& first = responses.front();
  std::size_t prefix = first.size();
  for (std::size_t i = 1; i < responses.size() && prefix > 0; ++i) {
    const std::string& other = responses[i];
    const std::size_t limit = std::min(prefix, other.size());
    std::size_t p = 0;
    while (p < limit && first[p] == other[p]) ++p;
    prefix = p;
  }
  return prefix;
}

ProbedBoundary probe_boundary(const capture::PacketTrace& trace,
                              net::Port server_port) {
  std::vector<std::string> responses;
  for (const capture::PacketTrace::FlowRecords& flow : trace.flow_records()) {
    if (flow.flow.remote.port != server_port) continue;
    const ReassembledStream stream = reassemble(trace, flow.records);
    if (!stream.bytes().empty()) responses.push_back(stream.bytes());
  }
  return ProbedBoundary{common_prefix_boundary(responses), responses.size()};
}

std::vector<EventCluster> temporal_clusters(const ReassembledStream& stream,
                                            sim::SimTime min_gap) {
  std::vector<EventCluster> clusters;

  // Order arrivals by time (capture order is already temporal, but be
  // defensive about merged traces).
  std::vector<ReassembledStream::Segment> segs(stream.segments().begin(),
                                               stream.segments().end());
  std::stable_sort(segs.begin(), segs.end(),
                   [](const auto& a, const auto& b) { return a.at < b.at; });

  for (const auto& s : segs) {
    if (clusters.empty() || s.at - clusters.back().end >= min_gap) {
      EventCluster c;
      c.start = c.end = s.at;
      c.packet_count = 1;
      c.first_offset = s.offset;
      c.bytes = s.length;
      clusters.push_back(c);
    } else {
      EventCluster& c = clusters.back();
      c.end = s.at;
      ++c.packet_count;
      c.first_offset = std::min(c.first_offset, s.offset);
      c.bytes += s.length;
    }
  }
  return clusters;
}

}  // namespace dyncdn::analysis

#include "analysis/boundary.hpp"

#include <algorithm>

namespace dyncdn::analysis {

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

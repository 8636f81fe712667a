#include "capture/trace.hpp"

#include <cstdio>
#include <unordered_map>

namespace dyncdn::capture {

net::FlowId flow_at_capture(Direction direction, net::NodeId src,
                            net::NodeId dst, const net::TcpHeader& tcp) {
  if (direction == Direction::kSent) {
    return net::FlowId{net::Endpoint{src, tcp.src_port},
                       net::Endpoint{dst, tcp.dst_port}};
  }
  return net::FlowId{net::Endpoint{dst, tcp.dst_port},
                     net::Endpoint{src, tcp.src_port}};
}

std::string record_to_string(sim::SimTime timestamp, Direction direction,
                             net::NodeId src, net::NodeId dst,
                             const net::TcpHeader& tcp,
                             std::size_t payload_size) {
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "%12s %s %u:%u -> %u:%u seq=%llu ack=%llu [%s] %zuB",
                timestamp.to_string().c_str(), capture::to_string(direction),
                src.value(), static_cast<unsigned>(tcp.src_port), dst.value(),
                static_cast<unsigned>(tcp.dst_port),
                static_cast<unsigned long long>(tcp.seq),
                static_cast<unsigned long long>(tcp.ack),
                tcp.flags.to_string().c_str(), payload_size);
  return buf;
}

PacketTrace PacketTrace::filter(
    const std::function<bool(const PacketRecordView&)>& pred) const {
  PacketTrace out(node_);
  for (std::size_t i = 0; i < size(); ++i) {
    const PacketRecordView v = view(i);
    if (pred(v)) out.add(v);
  }
  return out;
}

PacketTrace PacketTrace::filter_flow(const net::FlowId& flow) const {
  return filter([&](const PacketRecordView& r) {
    const net::FlowId f = r.flow_at_capture_node();
    return f == flow || f == flow.reversed();
  });
}

PacketTrace PacketTrace::filter_remote_port(net::Port port) const {
  return filter([&](const PacketRecordView& r) {
    return r.flow_at_capture_node().remote.port == port;
  });
}

std::vector<net::FlowId> PacketTrace::flows() const {
  std::vector<net::FlowId> out;
  for (const FlowRecords& f : flow_records()) out.push_back(f.flow);
  return out;
}

std::vector<PacketTrace::FlowRecords> PacketTrace::flow_records() const {
  std::vector<FlowRecords> out;
  std::unordered_map<net::FlowId, std::size_t> position;  // index into out
  for (std::size_t i = 0; i < size(); ++i) {
    const net::FlowId f =
        flow_at_capture(directions_[i], srcs_[i], dsts_[i], tcps_[i]);
    const auto [it, first] = position.try_emplace(f, out.size());
    if (first) out.push_back(FlowRecords{f, {}});
    out[it->second].records.push_back(i);
  }
  return out;
}

std::string PacketTrace::to_text() const {
  std::string out;
  for (std::size_t i = 0; i < size(); ++i) {
    out += view(i).to_string();
    out += '\n';
  }
  return out;
}

}  // namespace dyncdn::capture

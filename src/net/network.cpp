#include "net/network.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace dyncdn::net {

namespace {
constexpr std::int64_t kUnreached = std::numeric_limits<std::int64_t>::max();
}  // namespace

Node& Network::add_node(const std::string& name, GeoPoint location) {
  if (by_name_.contains(name)) {
    throw std::invalid_argument("Network::add_node: duplicate name " + name);
  }
  const NodeId id = reserve_node_id();
  nodes_.back() = std::make_unique<Node>(*this, id, name, location);
  by_name_.emplace(name, id);
  return *nodes_.back();
}

NodeId Network::reserve_node_id() {
  nodes_.emplace_back();
  adjacency_.resize(nodes_.size() + 1);
  routes_.resize(nodes_.size() + 1);
  return NodeId(static_cast<std::uint32_t>(nodes_.size()));
}

void Network::connect(Node& a, Node& b, const LinkConfig& config) {
  connect(a, b, config, config);
}

void Network::connect(Node& a, Node& b, const LinkConfig& a_to_b,
                      const LinkConfig& b_to_a) {
  auto make_edge = [this](Node& from, Node& to, const LinkConfig& cfg) {
    Node* dst = &to;
    auto link = std::make_unique<Link>(
        simulator_, cfg, [dst](PacketPtr p) { dst->deliver(p); },
        "link/" + from.name() + "->" + to.name());
    all_links_.push_back(link.get());
    adjacency_[from.id().value()].push_back(Edge{to.id(), std::move(link)});
  };
  make_edge(a, b, a_to_b);
  make_edge(b, a, b_to_a);
  ++topology_epoch_;
}

void Network::build_row(std::uint32_t src) {
  const std::size_t stride = nodes_.size() + 1;
  RouteRow& row = routes_[src];
  row.epoch = topology_epoch_;
  row.by_dst.assign(stride, nullptr);
  Link** first_link = row.by_dst.data();
  dijkstra_dist_.assign(stride, kUnreached);
  dijkstra_heap_.clear();
  dijkstra_dist_[src] = 0;
  dijkstra_heap_.emplace_back(0, src);
  while (!dijkstra_heap_.empty()) {
    std::pop_heap(dijkstra_heap_.begin(), dijkstra_heap_.end(),
                  std::greater<>());
    const auto [d, u] = dijkstra_heap_.back();
    dijkstra_heap_.pop_back();
    if (d > dijkstra_dist_[u]) continue;
    // Edge order plus the strict `<` decide ties: of several equal-delay
    // paths, the one relaxed first keeps its first link.
    for (const Edge& e : adjacency_[u]) {
      const std::uint32_t v = e.to.value();
      const std::int64_t nd = d + e.link->config().propagation_delay.ns();
      if (nd < dijkstra_dist_[v]) {
        dijkstra_dist_[v] = nd;
        first_link[v] = (u == src) ? e.link.get() : first_link[u];
        dijkstra_heap_.emplace_back(nd, v);
        std::push_heap(dijkstra_heap_.begin(), dijkstra_heap_.end(),
                       std::greater<>());
      }
    }
  }
}

const std::vector<Link*>& Network::routes_from(std::uint32_t src) {
  RouteRow& row = routes_[src];
  if (row.epoch != topology_epoch_) build_row(src);
  return row.by_dst;
}

void Network::compute_routes() {
  for (std::uint32_t src = 1; src <= nodes_.size(); ++src) {
    if (nodes_[src - 1] != nullptr) build_row(src);
  }
}

void Network::route(NodeId from, PacketPtr packet) {
  Node& src = node(from);
  ++packets_routed_;
  // Ids are issued per source node: (node << 40) | seq.
  if (packet->id == 0) packet->id = src.next_packet_id();
  if (packet->dst == from) {  // local delivery without touching a link
    src.deliver(packet);
    return;
  }
  if (Link* link = first_hop_link(from, packet->dst)) {
    link->transmit(std::move(packet));
    return;
  }
  ++no_route_drops_;
}

std::uint64_t Network::packets_created() const {
  std::uint64_t total = 0;
  for (const auto& node : nodes_) {
    if (node != nullptr) total += node->packets_created();
  }
  return total;
}

Node& Network::node(NodeId id) {
  return const_cast<Node&>(std::as_const(*this).node(id));
}

const Node& Network::node(NodeId id) const {
  const std::size_t idx = id.value();
  if (idx == 0 || idx > nodes_.size()) {
    throw std::out_of_range("Network::node: bad id");
  }
  if (nodes_[idx - 1] == nullptr) {
    throw std::out_of_range("Network::node: id " + std::to_string(idx) +
                            " is reserved, with no node behind it");
  }
  return *nodes_[idx - 1];
}

Node* Network::find_node(const std::string& name) {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return nullptr;
  return &node(it->second);
}

sim::SimTime Network::path_delay(NodeId a, NodeId b) {
  if (a == b) return sim::SimTime::zero();
  build_row(node(a).id().value());
  const std::size_t dst = b.value();
  if (dst >= dijkstra_dist_.size() || dijkstra_dist_[dst] == kUnreached) {
    return sim::SimTime::infinity();
  }
  return sim::SimTime::nanoseconds(dijkstra_dist_[dst]);
}

Link* Network::first_hop_link(NodeId a, NodeId b) {
  if (a.value() == 0 || a.value() > nodes_.size()) return nullptr;
  if (nodes_[a.value() - 1] == nullptr) return nullptr;
  const std::vector<Link*>& row = routes_from(a.value());
  return b.value() < row.size() ? row[b.value()] : nullptr;
}

LinkStats Network::aggregate_link_stats() const {
  // Flat link list, not the adjacency map: this runs once per sampler
  // tick, and pointer-chasing the per-node edge vectors showed up in the
  // telemetry overhead measurement.
  LinkStats total;
  for (const Link* link : all_links_) total += link->stats();
  return total;
}

}  // namespace dyncdn::net

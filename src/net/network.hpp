// The Network owns nodes and links and moves packets hop by hop along
// static shortest-propagation-delay routes. Routes are kept per source: the
// first packet a node sends or forwards runs one single-source Dijkstra
// over the current topology and caches that node's next-hop row, and
// connect() marks every row stale. A replica that drives a few dozen of
// its few hundred nodes builds only those rows, yet any graph routes
// exactly as an all-pairs table would route it. A replica also makes no
// node for the hosts it never drives: it reserves their ids instead, so
// the nodes it does make keep the ids, and thus the packet ids, of the
// full fleet.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"
#include "sim/simulator.hpp"

namespace dyncdn::net {

class Network {
 public:
  explicit Network(sim::Simulator& simulator) : simulator_(simulator) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Create a node. Names must be unique; they name RNG streams and traces.
  Node& add_node(const std::string& name, GeoPoint location = {});

  /// Issue the next node id with no node behind it, so the nodes added
  /// after it get the ids they would get had it been a node. node() and
  /// find_node() refuse it; routing, compute_routes() and
  /// packets_created() pass over it.
  NodeId reserve_node_id();

  /// Connect two nodes with a bidirectional link (two unidirectional links
  /// sharing `config` but with independent loss-model instances).
  void connect(Node& a, Node& b, const LinkConfig& config);

  /// Connect with asymmetric per-direction configs (a->b, b->a).
  void connect(Node& a, Node& b, const LinkConfig& a_to_b,
               const LinkConfig& b_to_a);

  /// Rebuild every source's next-hop row now: the eager all-pairs pass.
  /// Routing never needs it, since rows are built on first use; it exists
  /// to time the all-pairs cost and to check lazy rows against it.
  void compute_routes();

  /// Route a packet from `from` towards packet->dst. Drops (with a counter)
  /// if no route exists.
  void route(NodeId from, PacketPtr packet);

  /// Throws std::out_of_range for an id that was never issued or was
  /// only reserved.
  Node& node(NodeId id);
  const Node& node(NodeId id) const;
  Node* find_node(const std::string& name);

  sim::Simulator& simulator() { return simulator_; }

  /// Node ids issued, reserved ones included.
  std::size_t node_count() const { return nodes_.size(); }
  std::uint64_t no_route_drops() const { return no_route_drops_; }

  /// Packets that entered the network (route() calls, local delivery
  /// included) and distinct packet ids issued, for the metrics layer.
  std::uint64_t packets_routed() const { return packets_routed_; }
  std::uint64_t packets_created() const;

  /// Element-wise sum of every directed link's counters. Links count a
  /// delivery when it executes, so a mid-run snapshot (the time-series
  /// sampler) sees exactly the packets that have arrived.
  LinkStats aggregate_link_stats() const;

  /// One-way shortest-path propagation delay between two nodes (sum of link
  /// propagation delays; ignores bandwidth). Infinity if unreachable.
  sim::SimTime path_delay(NodeId a, NodeId b);

  /// Link carrying traffic from `a` on the first hop toward `b`, or null
  /// (always null when either id is reserved). Builds `a`'s row first if
  /// the topology changed since it was built.
  Link* first_hop_link(NodeId a, NodeId b);

 private:
  struct Edge {
    NodeId to;
    std::unique_ptr<Link> link;
  };

  /// Next-hop row of one source node: by_dst[d] is the link that carries
  /// its traffic toward node id d (null = no route). Valid while `epoch`
  /// equals topology_epoch_. A valid row may be shorter than the node
  /// count: nodes added since it was built have no links, so no route.
  struct RouteRow {
    std::uint64_t epoch = 0;
    std::vector<Link*> by_dst;
  };

  /// `src`'s row, rebuilt first if the topology changed since it was built.
  const std::vector<Link*>& routes_from(std::uint32_t src);
  /// Single-source Dijkstra from `src` (cost = propagation delay in ns):
  /// rewrites its row and leaves the distances in dijkstra_dist_.
  void build_row(std::uint32_t src);

  sim::Simulator& simulator_;
  std::vector<std::unique_ptr<Node>> nodes_;  // index = id - 1; null = reserved
  std::unordered_map<std::string, NodeId> by_name_;
  /// Outgoing edges and next-hop rows, both indexed by node id value (ids
  /// are 1-based; slot 0 is unused). Dense: node ids are issued
  /// contiguously by add_node().
  std::vector<std::vector<Edge>> adjacency_;
  std::vector<RouteRow> routes_;
  /// Bumped by connect(): every row built before is stale. add_node()
  /// leaves it alone, because a node without links adds no path.
  std::uint64_t topology_epoch_ = 1;
  /// Every directed link in creation order — the flat iteration order for
  /// aggregate_link_stats(), which runs on the per-tick sampling path.
  std::vector<const Link*> all_links_;
  /// Dijkstra scratch reused across rows, so a rebuild allocates nothing
  /// at steady state.
  std::vector<std::int64_t> dijkstra_dist_;
  std::vector<std::pair<std::int64_t, std::uint32_t>> dijkstra_heap_;
  std::uint64_t no_route_drops_ = 0;
  std::uint64_t packets_routed_ = 0;

  friend class Node;
};

}  // namespace dyncdn::net

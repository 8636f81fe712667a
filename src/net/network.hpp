// The Network owns nodes and links and moves packets hop by hop along
// static shortest-propagation-delay routes. Routes are kept per source: the
// first packet a node sends or forwards runs one single-source Dijkstra
// over the current topology and caches that node's next-hop row, and
// connect() marks every row stale. A replica that drives a few dozen of
// its few hundred nodes builds only those rows, yet any graph routes
// exactly as an all-pairs table would route it.
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

  /// Bind shard kernels for conservative parallel simulation. `sims[0]`
  /// must be the base simulator the Network was constructed with, and the
  /// call must precede any add_node(). Every simulator must share the base
  /// seed so named RNG streams are identical in every shard (each stream
  /// is consumed by exactly one component, which lives in exactly one
  /// shard). Serial topologies never call this.
  void set_shards(std::vector<sim::Simulator*> sims);
  std::size_t shard_count() const {
    return shard_sims_.empty() ? 1 : shard_sims_.size();
  }
  sim::Simulator& shard_simulator(std::size_t shard) {
    return shard_sims_.empty() ? simulator_ : *shard_sims_.at(shard);
  }

  /// Create a node. Names must be unique; they name RNG streams and traces.
  /// `shard` selects the kernel the node's components schedule on (always
  /// 0 — the base simulator — unless set_shards() was called first).
  Node& add_node(const std::string& name, GeoPoint location = {},
                 std::uint32_t shard = 0);

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

  Node& node(NodeId id);
  const Node& node(NodeId id) const;
  Node* find_node(const std::string& name);

  sim::Simulator& simulator() { return simulator_; }

  std::size_t node_count() const { return nodes_.size(); }
  std::uint64_t no_route_drops() const;

  /// Packets that entered the network (route() calls, local delivery
  /// included) and distinct packet ids issued, for the metrics layer.
  /// Both counters are kept per shard / per node so parallel shards never
  /// contend on a shared word; the totals are shard-layout invariant.
  std::uint64_t packets_routed() const;
  std::uint64_t packets_created() const;

  /// Minimum propagation delay over links whose endpoints live in
  /// different shards — the conservative lookahead. SimTime::infinity()
  /// when no such link exists (shards are fully independent); zero means
  /// windows degenerate and the runner must fall back to serial order.
  sim::SimTime cross_shard_lookahead() const { return min_cross_delay_; }

  /// Build every stale next-hop row of a sharded network. The shard runner
  /// calls this before spawning workers: route() must never build a row
  /// while shards execute in parallel. A serial network keeps building
  /// rows lazily.
  void prepare_run();

  /// Window-barrier drain: schedule every staged cross-shard packet on its
  /// destination shard at its recorded arrival time. Packets drain sorted
  /// by (arrival, source post time) — the order the serial kernel would
  /// have inserted the delivery events — with (link creation order, FIFO)
  /// as the stable tie-break, so same-timestamp arrivals from different
  /// shards are processed exactly as in a serial run. Runs on the
  /// coordinating thread only. Returns the number of packets flushed.
  std::size_t flush_mailboxes();
  bool mailboxes_empty() const;

  /// Element-wise sum of every directed link's counters.
  LinkStats aggregate_link_stats() const;

  /// aggregate_link_stats() with delivery re-expressed at ARRIVAL time for
  /// every link. Cross-shard links count packets_delivered/bytes_delivered
  /// at transmit (the destination shard must never touch the source link's
  /// state), so the raw aggregate depends on which links straddle the
  /// shard cut while packets are in flight. This view subtracts the
  /// transmit-time cross-shard counts and adds back arrivals that have
  /// actually executed, making mid-run snapshots (the time-series sampler)
  /// identical at every shard layout. At quiescence the two views agree.
  /// Call only while no shard worker is running (e.g. at a tick barrier).
  LinkStats sampled_link_stats() const;

  /// One-way shortest-path propagation delay between two nodes (sum of link
  /// propagation delays; ignores bandwidth). Infinity if unreachable.
  /// Rebuilds `a`'s row, so never call it while shard workers run.
  sim::SimTime path_delay(NodeId a, NodeId b);

  /// Link carrying traffic from `a` on the first hop toward `b`, or null.
  /// Builds `a`'s row first if the topology changed since it was built.
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

  /// Staged cross-shard packets for one directed link, in transmit order.
  struct Mailbox {
    struct Staged {
      sim::SimTime arrival;  // delivery time on the destination clock
      sim::SimTime posted;   // source-shard clock when the link posted it
      PacketPtr packet;
    };
    Node* dst = nullptr;
    sim::Simulator* dst_sim = nullptr;
    std::vector<Staged> staged;
    /// Transmit-time delivery counts for this directed link (the amounts
    /// its Link::stats() recorded early). Written only by the source
    /// shard's thread via the post closure.
    std::uint64_t posted_packets = 0;
    std::uint64_t posted_bytes = 0;
  };

  /// Cross-shard arrivals that have executed, indexed by destination
  /// shard: each slot is written only by that shard's worker thread.
  /// Padded so neighbouring shards never share a cache line.
  struct alignas(64) ShardArrivals {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
  };

  sim::Simulator& simulator_;
  std::vector<sim::Simulator*> shard_sims_;  // empty = serial (base only)
  std::vector<std::unique_ptr<Node>> nodes_;  // index = id - 1
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
  /// at steady state. Rows are built only on the thread that owns a serial
  /// network, or by prepare_run() before shard workers start.
  std::vector<std::int64_t> dijkstra_dist_;
  std::vector<std::pair<std::int64_t, std::uint32_t>> dijkstra_heap_;
  /// One mailbox per cross-shard directed link, in creation order.
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<ShardArrivals> arrivals_by_shard_;
  sim::SimTime min_cross_delay_ = sim::SimTime::infinity();
  /// Indexed by the source node's shard: parallel route() calls from
  /// different shards each mutate their own slot, never a shared word.
  std::vector<std::uint64_t> no_route_by_shard_ = {0};
  std::vector<std::uint64_t> routed_by_shard_ = {0};

  friend class Node;
};

}  // namespace dyncdn::net

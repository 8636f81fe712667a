// Unit tests for the network substrate: payload views, loss models, links
// (delay, serialization, queuing), routing and geo math.
#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <memory>
#include <queue>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "net/geo.hpp"
#include "net/link.hpp"
#include "net/loss_model.hpp"
#include "net/network.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace dyncdn::net {
namespace {

using sim::SimTime;
using namespace dyncdn::sim::literals;

PacketPtr make_packet(NodeId src, NodeId dst, std::size_t payload_bytes) {
  auto p = acquire_packet();
  p->src = src;
  p->dst = dst;
  if (payload_bytes > 0) {
    p->payload.buffer = make_buffer(std::vector<std::uint8_t>(payload_bytes, 0xAB));
    p->payload.length = payload_bytes;
  }
  return p;
}

PayloadRef make_buffer_ref(std::string_view text) {
  Buffer b = make_buffer(text);
  return PayloadRef{b, 0, text.size()};
}

TEST(PayloadRef, SliceWithinBounds) {
  Buffer buf = make_buffer("hello world");
  PayloadRef ref{buf, 0, buf->size()};
  EXPECT_EQ(ref.slice(6, 5).to_text(), "world");
  EXPECT_EQ(ref.slice(0, 5).to_text(), "hello");
}

TEST(PayloadRef, SliceClampsAtEnd) {
  Buffer buf = make_buffer("abcdef");
  PayloadRef ref{buf, 0, 6};
  EXPECT_EQ(ref.slice(4, 100).to_text(), "ef");
  EXPECT_TRUE(ref.slice(6, 1).empty());
  EXPECT_TRUE(ref.slice(99, 1).empty());
}

TEST(PayloadRef, NestedSliceUsesAbsoluteOffsets) {
  Buffer buf = make_buffer("0123456789");
  PayloadRef mid = PayloadRef{buf, 0, 10}.slice(2, 6);  // "234567"
  EXPECT_EQ(mid.slice(1, 3).to_text(), "345");
}

/// A lazy buffer's recipe that writes 'a', 'b', 'c', ... and counts its
/// runs and its destruction.
class CountingFill final : public ByteFill {
 public:
  CountingFill(int* runs, bool* destroyed)
      : runs_(runs), destroyed_(destroyed) {}
  ~CountingFill() override { *destroyed_ = true; }
  void write(std::span<std::uint8_t> out) const override {
    ++*runs_;
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = static_cast<std::uint8_t>('a' + i % 26);
    }
  }

 private:
  int* runs_;
  bool* destroyed_;
};

TEST(LazyBuffer, MovingAndSlicingNeverFills) {
  int runs = 0;
  bool destroyed = false;
  const std::size_t fills_before = bytebuf_fill_count();
  {
    Buffer lazy = make_lazy_buffer(
        3000, std::make_unique<CountingFill>(&runs, &destroyed));
    EXPECT_EQ(lazy->size(), 3000u);
    Buffer copy = lazy;
    Buffer moved = std::move(copy);
    PayloadRef whole{moved, 0, moved->size()};
    PayloadRef part = whole.slice(100, 2000);
    PayloadRef joined = make_buffer_ref("head");
    joined.append(part);
    joined.append(whole.slice(2100, 500));  // adjacent: merges into one slice
    EXPECT_EQ(joined.length, 4u + 2500u);
    EXPECT_EQ(joined.chain.size(), 1u);

    // A link transit carries the payload by reference.
    sim::Simulator simulator;
    LinkConfig cfg;
    cfg.propagation_delay = 5_ms;
    std::size_t delivered = 0;
    Link link(simulator, cfg,
              [&](PacketPtr p) { delivered += p->payload.length; }, "lazy");
    PacketPtr p = acquire_packet();
    p->payload = joined;
    link.transmit(std::move(p));
    simulator.run();
    EXPECT_EQ(delivered, joined.length);
  }
  // Dropping the last reference freed the recipe without running it.
  EXPECT_EQ(runs, 0);
  EXPECT_TRUE(destroyed);
  EXPECT_EQ(bytebuf_fill_count(), fills_before);
}

TEST(LazyBuffer, FirstReadFillsOnceForEveryHandle) {
  int runs = 0;
  bool destroyed = false;
  const std::size_t fills_before = bytebuf_fill_count();
  Buffer lazy = make_lazy_buffer(
      100, std::make_unique<CountingFill>(&runs, &destroyed));
  const Buffer other = lazy;
  const PayloadRef tail = PayloadRef{lazy, 0, 100}.slice(26, 5);
  EXPECT_EQ(tail.to_text(), "abcde");  // the first read fills
  EXPECT_EQ(runs, 1);
  EXPECT_TRUE(destroyed);  // the recipe is freed once it has run
  EXPECT_EQ(bytebuf_fill_count(), fills_before + 1);
  EXPECT_EQ(other->data(), lazy->data());
  EXPECT_EQ(PayloadRef(other, 0, 3).to_text(), "abc");
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(bytebuf_fill_count(), fills_before + 1);
}

TEST(Packet, WireSizeIncludesHeaders) {
  auto p = make_packet(NodeId{1}, NodeId{2}, 100);
  EXPECT_EQ(p->payload_size(), 100u);
  EXPECT_EQ(p->wire_size(), 140u);
  EXPECT_FALSE(p->to_string().empty());
}

TEST(FlowIdentity, ReverseSwapsEndpoints) {
  const FlowId f{Endpoint{NodeId{1}, 10}, Endpoint{NodeId{2}, 20}};
  const FlowId r = f.reversed();
  EXPECT_EQ(r.local.node, NodeId{2});
  EXPECT_EQ(r.remote.port, 10);
  EXPECT_EQ(r.reversed(), f);
}

TEST(LossModels, BernoulliRateIsApproximate) {
  sim::RngStream rng(7);
  BernoulliLoss loss(0.2);
  int drops = 0;
  for (int i = 0; i < 20000; ++i) {
    if (loss.should_drop(rng)) ++drops;
  }
  EXPECT_NEAR(drops / 20000.0, 0.2, 0.02);
}

TEST(LossModels, NoLossNeverDrops) {
  sim::RngStream rng(7);
  NoLoss loss;
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(loss.should_drop(rng));
}

TEST(LossModels, BernoulliRejectsBadProbability) {
  EXPECT_THROW(BernoulliLoss(-0.1), std::invalid_argument);
  EXPECT_THROW(BernoulliLoss(1.5), std::invalid_argument);
}

TEST(LossModels, GilbertElliottAverageRate) {
  GilbertElliottLoss ge(0.01, 0.2, 0.0, 0.3);
  // pi_bad = 0.01/0.21, avg = pi_bad * 0.3
  EXPECT_NEAR(ge.average_loss_rate(), (0.01 / 0.21) * 0.3, 1e-9);

  sim::RngStream rng(11);
  int drops = 0;
  const int kTrials = 200000;
  for (int i = 0; i < kTrials; ++i) {
    if (ge.should_drop(rng)) ++drops;
  }
  EXPECT_NEAR(drops / static_cast<double>(kTrials), ge.average_loss_rate(),
              0.005);
}

TEST(LossModels, GilbertElliottBursty) {
  // With sticky states, losses should cluster: measure the probability that
  // a drop is followed by another drop; it must exceed the marginal rate.
  GilbertElliottLoss ge(0.005, 0.1, 0.0, 0.5);
  sim::RngStream rng(13);
  int drops = 0, pairs = 0, prev = 0;
  const int kTrials = 300000;
  for (int i = 0; i < kTrials; ++i) {
    const int d = ge.should_drop(rng) ? 1 : 0;
    drops += d;
    if (prev && d) ++pairs;
    prev = d;
  }
  const double marginal = drops / static_cast<double>(kTrials);
  const double conditional = pairs / static_cast<double>(drops);
  EXPECT_GT(conditional, 2.0 * marginal);
}

TEST(Link, PropagationDelayOnly) {
  sim::Simulator simulator;
  SimTime arrival = SimTime::zero();
  LinkConfig cfg;
  cfg.propagation_delay = 25_ms;
  cfg.bandwidth_bps = 0;  // infinite
  Link link(simulator, cfg, [&](PacketPtr) { arrival = simulator.now(); },
            "test");
  link.transmit(make_packet(NodeId{1}, NodeId{2}, 1000));
  simulator.run();
  EXPECT_EQ(arrival, 25_ms);
}

TEST(Link, SerializationDelayAddsUp) {
  sim::Simulator simulator;
  std::vector<SimTime> arrivals;
  LinkConfig cfg;
  cfg.propagation_delay = 10_ms;
  cfg.bandwidth_bps = 8e6;  // 8 Mbit/s -> 1000 bytes per ms
  Link link(simulator, cfg,
            [&](PacketPtr) { arrivals.push_back(simulator.now()); }, "test");
  // Two packets of 960B payload -> 1000B wire -> 1ms serialization each.
  link.transmit(make_packet(NodeId{1}, NodeId{2}, 960));
  link.transmit(make_packet(NodeId{1}, NodeId{2}, 960));
  simulator.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], 11_ms);  // 1ms tx + 10ms prop
  EXPECT_EQ(arrivals[1], 12_ms);  // queued behind the first
}

TEST(Link, QueueOverflowDropsTail) {
  sim::Simulator simulator;
  int delivered = 0;
  LinkConfig cfg;
  cfg.propagation_delay = 1_ms;
  cfg.bandwidth_bps = 8e6;
  cfg.queue_capacity = 4;
  Link link(simulator, cfg, [&](PacketPtr) { ++delivered; }, "test");
  for (int i = 0; i < 10; ++i) {
    link.transmit(make_packet(NodeId{1}, NodeId{2}, 960));
  }
  simulator.run();
  EXPECT_EQ(delivered, 4);
  EXPECT_EQ(link.stats().drops_queue, 6u);
  EXPECT_EQ(link.stats().packets_delivered, 4u);
  EXPECT_EQ(link.stats().packets_offered, 10u);
}

TEST(Link, QueueDrainsOverTime) {
  sim::Simulator simulator;
  int delivered = 0;
  LinkConfig cfg;
  cfg.propagation_delay = 1_ms;
  cfg.bandwidth_bps = 8e6;
  cfg.queue_capacity = 2;
  Link link(simulator, cfg, [&](PacketPtr) { ++delivered; }, "test");
  link.transmit(make_packet(NodeId{1}, NodeId{2}, 960));
  link.transmit(make_packet(NodeId{1}, NodeId{2}, 960));
  simulator.run();  // drain
  link.transmit(make_packet(NodeId{1}, NodeId{2}, 960));
  simulator.run();
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(link.stats().drops_queue, 0u);
}

TEST(Link, LossModelDropsPackets) {
  sim::Simulator simulator;
  int delivered = 0;
  LinkConfig cfg;
  cfg.propagation_delay = 1_ms;
  cfg.bandwidth_bps = 0;
  cfg.queue_capacity = 2000;  // all packets enqueue before the run drains
  cfg.loss_factory = [] { return make_bernoulli_loss(0.5); };
  Link link(simulator, cfg, [&](PacketPtr) { ++delivered; }, "lossy");
  for (int i = 0; i < 1000; ++i) {
    link.transmit(make_packet(NodeId{1}, NodeId{2}, 100));
  }
  simulator.run();
  EXPECT_NEAR(delivered, 500, 80);
  EXPECT_EQ(link.stats().drops_loss + link.stats().packets_delivered, 1000u);
}

TEST(Network, DirectDelivery) {
  sim::Simulator simulator;
  Network network(simulator);
  Node& a = network.add_node("a");
  Node& b = network.add_node("b");
  LinkConfig cfg;
  cfg.propagation_delay = 5_ms;
  cfg.bandwidth_bps = 0;  // exact arrival-time check below
  network.connect(a, b, cfg);

  PacketPtr received;
  b.set_receive_handler([&](const PacketPtr& p) { received = p; });
  a.send(make_packet(a.id(), b.id(), 10));
  simulator.run();
  ASSERT_NE(received, nullptr);
  EXPECT_EQ(received->src, a.id());
  EXPECT_EQ(simulator.now(), 5_ms);
}

TEST(Network, MultiHopRoutingThroughRelay) {
  sim::Simulator simulator;
  Network network(simulator);
  Node& a = network.add_node("a");
  Node& relay = network.add_node("relay");
  Node& b = network.add_node("b");
  LinkConfig cfg;
  cfg.propagation_delay = 5_ms;
  cfg.bandwidth_bps = 0;
  network.connect(a, relay, cfg);
  network.connect(relay, b, cfg);
  // The relay node forwards anything not addressed to it.
  relay.set_receive_handler([](const PacketPtr&) {
    FAIL() << "relay must not locally deliver transit packets";
  });

  bool got = false;
  b.set_receive_handler([&](const PacketPtr&) { got = true; });
  a.send(make_packet(a.id(), b.id(), 10));
  simulator.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(simulator.now(), 10_ms);  // two 5ms hops
}

TEST(Network, ShortestPathPreferred) {
  sim::Simulator simulator;
  Network network(simulator);
  Node& a = network.add_node("a");
  Node& slow = network.add_node("slow");
  Node& fast = network.add_node("fast");
  Node& b = network.add_node("b");
  LinkConfig slow_cfg;
  slow_cfg.propagation_delay = 50_ms;
  slow_cfg.bandwidth_bps = 0;
  LinkConfig fast_cfg;
  fast_cfg.propagation_delay = 5_ms;
  fast_cfg.bandwidth_bps = 0;
  network.connect(a, slow, slow_cfg);
  network.connect(slow, b, slow_cfg);
  network.connect(a, fast, fast_cfg);
  network.connect(fast, b, fast_cfg);

  bool got = false;
  b.set_receive_handler([&](const PacketPtr&) { got = true; });
  a.send(make_packet(a.id(), b.id(), 10));
  simulator.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(simulator.now(), 10_ms);  // via fast path
  EXPECT_EQ(network.path_delay(a.id(), b.id()), 10_ms);
}

TEST(Network, NoRouteIncrementsDropCounter) {
  sim::Simulator simulator;
  Network network(simulator);
  Node& a = network.add_node("a");
  network.add_node("island");
  a.send(make_packet(a.id(), NodeId{2}, 10));
  simulator.run();
  EXPECT_EQ(network.no_route_drops(), 1u);
}

TEST(Network, DuplicateNodeNameThrows) {
  sim::Simulator simulator;
  Network network(simulator);
  network.add_node("x");
  EXPECT_THROW(network.add_node("x"), std::invalid_argument);
}

TEST(Network, FindNodeByName) {
  sim::Simulator simulator;
  Network network(simulator);
  Node& a = network.add_node("alpha");
  EXPECT_EQ(network.find_node("alpha"), &a);
  EXPECT_EQ(network.find_node("missing"), nullptr);
}

TEST(Network, SendTapsAndReceiveTapsFire) {
  sim::Simulator simulator;
  Network network(simulator);
  Node& a = network.add_node("a");
  Node& b = network.add_node("b");
  LinkConfig cfg;
  cfg.propagation_delay = 1_ms;
  network.connect(a, b, cfg);
  int sends = 0, recvs = 0;
  a.add_send_tap([&](const PacketPtr&) { ++sends; });
  b.add_receive_tap([&](const PacketPtr&) { ++recvs; });
  b.set_receive_handler([](const PacketPtr&) {});
  a.send(make_packet(a.id(), b.id(), 5));
  simulator.run();
  EXPECT_EQ(sends, 1);
  EXPECT_EQ(recvs, 1);
}

TEST(Network, ReservedIdsHoldNoNodeAndRoutingPassesOverThem) {
  // A network that builds every node, and one that reserves the ids of
  // "idle" and "spare" instead: the nodes both build get the same ids.
  const std::string names[] = {"a", "idle", "b", "spare", "c"};
  const bool built[] = {true, false, true, false, true};
  sim::Simulator full_sim;
  sim::Simulator lean_sim;
  Network full(full_sim);
  Network lean(lean_sim);
  std::vector<NodeId> ids;
  for (std::size_t i = 0; i < std::size(names); ++i) {
    const NodeId id = full.add_node(names[i]).id();
    EXPECT_EQ(id.value(), i + 1) << "ids are dense";
    ids.push_back(built[i] ? lean.add_node(names[i]).id()
                           : lean.reserve_node_id());
    EXPECT_EQ(ids.back(), id) << names[i];
  }
  EXPECT_EQ(lean.node_count(), full.node_count());
  const NodeId idle = ids[1];
  const NodeId spare = ids[3];

  // No node behind a reserved id, by id or by the name it would have had.
  EXPECT_THROW(lean.node(idle), std::out_of_range);
  EXPECT_THROW(std::as_const(lean).node(spare), std::out_of_range);
  EXPECT_EQ(lean.find_node("idle"), nullptr);
  EXPECT_EQ(lean.find_node("spare"), nullptr);
  EXPECT_THROW(lean.path_delay(idle, ids[0]), std::out_of_range);
  EXPECT_THROW(lean.node(NodeId{6}), std::out_of_range);

  // a - b - c in both networks; idle and spare stay unlinked.
  LinkConfig cfg;
  cfg.propagation_delay = 2_ms;
  cfg.bandwidth_bps = 0;
  for (Network* net : {&full, &lean}) {
    net->connect(net->node(ids[0]), net->node(ids[2]), cfg);
    net->connect(net->node(ids[2]), net->node(ids[4]), cfg);
  }
  EXPECT_EQ(lean.first_hop_link(idle, ids[4]), nullptr);
  EXPECT_EQ(lean.first_hop_link(ids[0], spare), nullptr);
  Link* a_to_c = lean.first_hop_link(ids[0], ids[4]);
  ASSERT_NE(a_to_c, nullptr);
  EXPECT_NO_THROW(lean.compute_routes());
  EXPECT_EQ(lean.first_hop_link(ids[0], ids[4]), a_to_c);
  EXPECT_EQ(lean.path_delay(ids[0], ids[4]), 4_ms);

  // a sends to c and to the reserved id: the first arrives with the packet
  // id the full network gives it, the second has no route, and only a's
  // sends count as created packets.
  std::vector<std::uint64_t> arrived;
  for (auto [net, sim] : {std::pair{&full, &full_sim},
                          std::pair{&lean, &lean_sim}}) {
    Node& a = net->node(ids[0]);
    net->node(ids[4]).set_receive_handler(
        [&arrived](const PacketPtr& p) { arrived.push_back(p->id); });
    a.send(make_packet(a.id(), ids[4], 10));
    a.send(make_packet(a.id(), idle, 10));
    sim->run();
  }
  ASSERT_EQ(arrived.size(), 2u);
  EXPECT_EQ(arrived[0], arrived[1]);
  EXPECT_EQ(lean.packets_created(), 2u);
  EXPECT_EQ(lean.packets_created(), full.packets_created());
  EXPECT_EQ(lean.no_route_drops(), 1u);
  EXPECT_EQ(lean.no_route_drops(), full.no_route_drops());
}

TEST(Network, PathDelayUnreachableIsInfinite) {
  sim::Simulator simulator;
  Network network(simulator);
  Node& a = network.add_node("a");
  Node& b = network.add_node("b");
  EXPECT_TRUE(network.path_delay(a.id(), b.id()).is_infinite());
  EXPECT_EQ(network.path_delay(a.id(), a.id()), SimTime::zero());
}

TEST(Link, BottleneckQueueingDelayGrowsLinearly) {
  // 10 packets into a 8Mbit/s link arrive 1ms apart: the k-th packet waits
  // k serialization slots.
  sim::Simulator simulator;
  std::vector<SimTime> arrivals;
  LinkConfig cfg;
  cfg.propagation_delay = 2_ms;
  cfg.bandwidth_bps = 8e6;  // 1000 B/ms
  Link link(simulator, cfg,
            [&](PacketPtr) { arrivals.push_back(simulator.now()); }, "bn");
  for (int i = 0; i < 10; ++i) {
    link.transmit(make_packet(NodeId{1}, NodeId{2}, 960));  // 1000B wire
  }
  simulator.run();
  ASSERT_EQ(arrivals.size(), 10u);
  for (std::size_t k = 0; k < arrivals.size(); ++k) {
    EXPECT_EQ(arrivals[k],
              SimTime::milliseconds(static_cast<std::int64_t>(k + 1)) + 2_ms)
        << k;
  }
}

TEST(Link, ReorderingDelaysSomePackets) {
  sim::Simulator simulator;
  std::vector<std::uint64_t> order;
  LinkConfig cfg;
  cfg.propagation_delay = 5_ms;
  cfg.bandwidth_bps = 0;
  cfg.reorder_probability = 0.5;
  cfg.reorder_extra_delay = 4_ms;
  Link link(simulator, cfg,
            [&](PacketPtr p) { order.push_back(p->id); }, "reord");
  for (std::uint64_t i = 1; i <= 200; ++i) {
    auto p = make_packet(NodeId{1}, NodeId{2}, 100);
    p->id = i;
    link.transmit(std::move(p));
  }
  simulator.run();
  ASSERT_EQ(order.size(), 200u);
  EXPECT_GT(link.stats().packets_reordered, 50u);
  // Delivery must NOT be in id order (some overtaking happened)...
  EXPECT_FALSE(std::is_sorted(order.begin(), order.end()));
  // ...but every packet arrived exactly once.
  std::vector<std::uint64_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (std::uint64_t i = 1; i <= 200; ++i) EXPECT_EQ(sorted[i - 1], i);
}

TEST(Network, AsymmetricLinkDirectionsHonored) {
  sim::Simulator simulator;
  Network network(simulator);
  Node& a = network.add_node("a");
  Node& b = network.add_node("b");
  LinkConfig fast;
  fast.propagation_delay = 2_ms;
  fast.bandwidth_bps = 0;
  LinkConfig slow;
  slow.propagation_delay = 30_ms;
  slow.bandwidth_bps = 0;
  network.connect(a, b, fast, slow);

  SimTime a_to_b, b_to_a;
  b.set_receive_handler([&](const PacketPtr&) { a_to_b = simulator.now(); });
  a.set_receive_handler([&](const PacketPtr&) { b_to_a = simulator.now(); });
  a.send(make_packet(a.id(), b.id(), 10));
  simulator.run();
  b.send(make_packet(b.id(), a.id(), 10));
  simulator.run();
  EXPECT_EQ(a_to_b, 2_ms);
  EXPECT_EQ(b_to_a, 32_ms);
}

TEST(Network, SelfAddressedPacketDeliversLocally) {
  sim::Simulator simulator;
  Network network(simulator);
  Node& a = network.add_node("a");
  bool got = false;
  a.set_receive_handler([&](const PacketPtr&) { got = true; });
  a.send(make_packet(a.id(), a.id(), 10));
  simulator.run();
  EXPECT_TRUE(got);
}

// ---------------------------------------------------------------------------
// Routing against an all-pairs reference
// ---------------------------------------------------------------------------

/// The test's own copy of a topology: every directed edge, per source node
/// in connect() order. Each direction of each link carries a unique tag in
/// LinkConfig::queue_capacity, which no routing decision reads, so the link
/// a route picks can be named.
struct RefEdge {
  std::uint32_t to;
  std::int64_t delay_ns;
  std::size_t tag;
};
using RefGraph = std::vector<std::vector<RefEdge>>;  // by node id

struct RefRoute {
  std::int64_t delay_ns = -1;  // -1 = unreachable
  std::size_t first_tag = 0;   // tag of the first link, 0 = none
};

/// All-pairs Dijkstra over `g`, breaking ties as routing must: nodes settle
/// in (delay, id) order and relax their edges in connect() order under a
/// strict `<`, so of several equal-delay paths the first found keeps its
/// first link.
std::vector<std::vector<RefRoute>> all_pairs_routes(const RefGraph& g) {
  std::vector<std::vector<RefRoute>> all(g.size(),
                                         std::vector<RefRoute>(g.size()));
  using Entry = std::pair<std::int64_t, std::uint32_t>;
  for (std::uint32_t src = 1; src < g.size(); ++src) {
    std::vector<RefRoute>& row = all[src];
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
    row[src].delay_ns = 0;
    queue.emplace(0, src);
    while (!queue.empty()) {
      const auto [d, u] = queue.top();
      queue.pop();
      if (d > row[u].delay_ns) continue;
      for (const RefEdge& e : g[u]) {
        RefRoute& r = row[e.to];
        if (r.delay_ns < 0 || d + e.delay_ns < r.delay_ns) {
          r.delay_ns = d + e.delay_ns;
          r.first_tag = u == src ? e.tag : row[u].first_tag;
          queue.emplace(r.delay_ns, e.to);
        }
      }
    }
  }
  return all;
}

TEST(NetworkRouting, LazyRowsMatchAllPairsReference) {
  constexpr std::size_t kTagBase = 1000;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    sim::Simulator simulator;
    Network network(simulator);
    RefGraph ref(1);               // slot 0: no node has id 0
    std::vector<Node*> nodes;      // every node, by id - 1
    std::vector<Node*> linkable;   // the nodes random links may join
    std::vector<std::uint32_t> far_end;  // tag - kTagBase -> link's dst id
    SimTime arrived = SimTime::infinity();

    const auto add_node = [&](bool island) -> Node& {
      Node& n = network.add_node("n" + std::to_string(nodes.size() + 1));
      n.set_receive_handler(
          [&](const PacketPtr&) { arrived = simulator.now(); });
      nodes.push_back(&n);
      if (!island) linkable.push_back(&n);
      ref.emplace_back();
      return n;
    };
    const auto direction = [&](Node& from, Node& to, std::int64_t ms) {
      LinkConfig cfg;
      cfg.propagation_delay = SimTime::milliseconds(ms);
      cfg.bandwidth_bps = 0;  // arrival time = sum of propagation delays
      cfg.queue_capacity = kTagBase + far_end.size();
      far_end.push_back(to.id().value());
      ref[from.id().value()].push_back(RefEdge{
          to.id().value(), cfg.propagation_delay.ns(), cfg.queue_capacity});
      return cfg;
    };
    const auto link = [&](Node& a, Node& b, std::int64_t ab_ms,
                          std::int64_t ba_ms) {
      const LinkConfig ab = direction(a, b, ab_ms);
      const LinkConfig ba = direction(b, a, ba_ms);
      network.connect(a, b, ab, ba);
      return ab.queue_capacity;
    };
    const auto random_delay_ms = [&] {
      constexpr std::int64_t kDelays[] = {0, 1, 1, 2, 3, 5};  // ties, zeros
      return kDelays[rng() % std::size(kDelays)];
    };
    const auto any_linkable = [&]() -> Node& {
      return *linkable[rng() % linkable.size()];
    };

    // Every ordered pair: first the links route() would take (rows it built
    // lazily, or rebuilds now if stale), then the path delays.
    const auto check_every_pair = [&](const char* when) {
      SCOPED_TRACE(when);
      const auto expect = all_pairs_routes(ref);
      for (Node* a : nodes) {
        for (Node* b : nodes) {
          if (a == b) continue;
          const Link* hop = network.first_hop_link(a->id(), b->id());
          ASSERT_EQ(hop ? hop->config().queue_capacity : 0,
                    expect[a->id().value()][b->id().value()].first_tag)
              << a->name() << " -> " << b->name();
        }
      }
      for (Node* a : nodes) {
        for (Node* b : nodes) {
          if (a == b) continue;
          const std::int64_t want =
              expect[a->id().value()][b->id().value()].delay_ns;
          const SimTime got = network.path_delay(a->id(), b->id());
          if (want < 0) {
            EXPECT_TRUE(got.is_infinite()) << a->name() << " -> " << b->name();
          } else {
            EXPECT_EQ(got.ns(), want) << a->name() << " -> " << b->name();
          }
        }
      }
    };

    // Packets between random pairs: each arrives after exactly the
    // reference delay, or is a no-route drop at its source. Pairs whose
    // reference hop-by-hop walk would circle a zero-delay loop get none.
    const auto route_packets = [&](int count) {
      const auto expect = all_pairs_routes(ref);
      const auto walk_arrives = [&](std::uint32_t at, std::uint32_t dst) {
        for (std::size_t hops = 0; hops <= nodes.size(); ++hops) {
          if (at == dst) return true;
          at = far_end[expect[at][dst].first_tag - kTagBase];
        }
        return false;
      };
      for (int k = 0; k < count; ++k) {
        Node& a = *nodes[rng() % nodes.size()];
        Node& b = *nodes[rng() % nodes.size()];
        if (&a == &b) continue;
        const std::int64_t want =
            expect[a.id().value()][b.id().value()].delay_ns;
        if (want >= 0 && !walk_arrives(a.id().value(), b.id().value())) {
          continue;
        }
        const std::uint64_t drops = network.no_route_drops();
        const SimTime sent = simulator.now();
        arrived = SimTime::infinity();
        a.send(make_packet(a.id(), b.id(), 10));
        // One delivery event per hop, so a routing loop cannot hang the test.
        simulator.run_steps(nodes.size());
        ASSERT_TRUE(simulator.idle())
            << "routing loop " << a.name() << " -> " << b.name();
        if (want < 0) {
          EXPECT_EQ(network.no_route_drops(), drops + 1);
          EXPECT_TRUE(arrived.is_infinite());
        } else {
          EXPECT_EQ((arrived - sent).ns(), want)
              << a.name() << " -> " << b.name();
        }
      }
    };

    for (int phase = 0; phase < 4; ++phase) {
      // Grow the graph: random links with tied and zero delays, parallel
      // links (the previous pair again), asymmetric directions.
      for (int k = 0; k < 4; ++k) add_node(false);
      Node* a = nullptr;
      Node* b = nullptr;
      for (int k = 0; k < 10; ++k) {
        if (a == nullptr || rng() % 4 != 0) {
          a = &any_linkable();
          b = &any_linkable();
        }
        if (a != b) link(*a, *b, random_delay_ms(), random_delay_ms());
      }
      // A direct link slower than a two-hop detour, the shape of
      // client -> fe-far in bench/ext_dns_resolution.
      Node& x = any_linkable();
      Node& relay = add_node(false);
      Node& y = add_node(false);
      link(x, y, 9, 9);
      const std::size_t x_to_relay = link(x, relay, 2, 2);
      link(relay, y, 3, 3);
      route_packets(30);
      const Link* detour = network.first_hop_link(x.id(), y.id());
      ASSERT_NE(detour, nullptr);
      EXPECT_EQ(detour->config().queue_capacity, x_to_relay);
      // An island: add_node() alone must leave every route as it was.
      add_node(true);
      route_packets(30);
      check_every_pair("lazy rows");
    }
    network.compute_routes();
    check_every_pair("after the eager all-rows pass");
  }
}

TEST(Geo, HaversineKnownDistance) {
  // Minneapolis to Chicago is roughly 355 miles.
  const GeoPoint msp{44.98, -93.27};
  const GeoPoint chi{41.88, -87.63};
  EXPECT_NEAR(haversine_miles(msp, chi), 355.0, 15.0);
  EXPECT_NEAR(haversine_km(msp, chi), 571.0, 25.0);
}

TEST(Geo, ZeroDistanceSamePoint) {
  const GeoPoint p{40.0, -100.0};
  EXPECT_DOUBLE_EQ(haversine_miles(p, p), 0.0);
  EXPECT_EQ(propagation_delay(p, p), SimTime::zero());
}

TEST(Geo, PropagationDelayScalesWithDistance) {
  // 124 miles of fiber ~ 1ms one way.
  EXPECT_NEAR(propagation_delay_miles(124.0).to_milliseconds(), 1.0, 1e-6);
  EXPECT_NEAR(propagation_delay_miles(1240.0).to_milliseconds(), 10.0, 1e-6);
}

TEST(Geo, MilesForDelayInvertsDelay) {
  const double miles = 345.0;
  EXPECT_NEAR(miles_for_delay(propagation_delay_miles(miles)), miles, 0.01);
}

}  // namespace
}  // namespace dyncdn::net

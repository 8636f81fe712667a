// A simulated host: named, geographically placed, with a transport handler
// (the node's TCP stack) and capture-tap hooks for tcpdump-like tracing.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "net/address.hpp"
#include "net/geo.hpp"
#include "net/packet.hpp"

namespace dyncdn::sim {
class Simulator;
}  // namespace dyncdn::sim

namespace dyncdn::net {

class Network;

class Node {
 public:
  /// Called when a packet addressed to this node arrives.
  using ReceiveHandler = std::function<void(const PacketPtr&)>;
  /// Capture hook; sees every packet sent from / delivered to this node.
  using TapFn = std::function<void(const PacketPtr&)>;

  Node(Network& network, NodeId id, std::string name, GeoPoint location);

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }
  const GeoPoint& location() const { return location_; }
  Network& network() { return network_; }

  /// The event kernel this node's components schedule on: the Network's
  /// simulator. Host-local components (TCP stacks, servers, clients,
  /// capture) reach the clock through their node.
  sim::Simulator& simulator() const { return simulator_; }

  /// Next packet id in this node's id space: the node index in the high
  /// bits, a per-node sequence below. Ids are unique network-wide and
  /// depend only on what each node sent, not on how sends interleave
  /// across nodes; they are part of the .dtrc capture bytes.
  std::uint64_t next_packet_id() {
    return (static_cast<std::uint64_t>(id_.value()) << 40) |
           ++packets_created_;
  }
  std::uint64_t packets_created() const { return packets_created_; }

  /// Install the transport layer. Exactly one handler per node; a second
  /// registration replaces the first (used by tests).
  void set_receive_handler(ReceiveHandler handler) {
    receive_handler_ = std::move(handler);
  }

  /// Register capture hooks. Multiple taps may coexist (e.g. a trace
  /// recorder plus a live statistics probe).
  void add_send_tap(TapFn tap) { send_taps_.push_back(std::move(tap)); }
  void add_receive_tap(TapFn tap) { receive_taps_.push_back(std::move(tap)); }

  /// Inject a packet originating at this node into the network.
  /// (Transport layers call this; it stamps src and routes.)
  void send(PacketPtr packet);

  /// Called by the network when a packet for this node arrives.
  void deliver(const PacketPtr& packet);

 private:
  Network& network_;
  NodeId id_;
  std::string name_;
  GeoPoint location_;
  sim::Simulator& simulator_;
  std::uint64_t packets_created_ = 0;
  ReceiveHandler receive_handler_;
  std::vector<TapFn> send_taps_;
  std::vector<TapFn> receive_taps_;
};

}  // namespace dyncdn::net

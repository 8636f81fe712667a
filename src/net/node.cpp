#include "net/node.hpp"

#include <utility>

#include "net/network.hpp"

namespace dyncdn::net {

Node::Node(Network& network, NodeId id, std::string name, GeoPoint location)
    : network_(network),
      id_(id),
      name_(std::move(name)),
      location_(location),
      simulator_(network.simulator()) {}

void Node::send(PacketPtr packet) {
  packet->src = id_;
  for (const auto& tap : send_taps_) tap(packet);
  network_.route(id_, std::move(packet));
}

void Node::deliver(const PacketPtr& packet) {
  if (packet->dst != id_) {
    // Transit traffic: forward along the route without surfacing it to the
    // local transport or capture taps (taps model end-host tcpdump).
    network_.route(id_, packet);
    return;
  }
  for (const auto& tap : receive_taps_) tap(packet);
  if (receive_handler_) receive_handler_(packet);
}

}  // namespace dyncdn::net

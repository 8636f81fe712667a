// Unidirectional point-to-point link with propagation delay, serialization
// (bandwidth) delay, a drop-tail FIFO queue, and a pluggable loss model.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "net/loss_model.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace dyncdn::net {

/// Parameters for one direction of a link.
struct LinkConfig {
  sim::SimTime propagation_delay = sim::SimTime::milliseconds(1);
  /// Bits per second; 0 means infinite (no serialization delay).
  double bandwidth_bps = 1e9;
  /// Maximum packets queued or in transmission before tail drop.
  std::size_t queue_capacity = 256;
  /// Factory for this direction's loss model; null means lossless.
  std::function<std::unique_ptr<LossModel>()> loss_factory;
  /// With this probability a packet is delayed by `reorder_extra_delay`
  /// beyond its normal arrival, letting later packets overtake it —
  /// multipath-style reordering (0 = strictly FIFO).
  double reorder_probability = 0.0;
  sim::SimTime reorder_extra_delay = sim::SimTime::milliseconds(3);
  /// Batch contiguous in-flight deliveries (packet trains) behind a single
  /// kernel event instead of one event per packet. Timestamps and handler
  /// ordering are preserved exactly — each packet is still delivered at
  /// its own arrival time — so results are byte-identical with the
  /// uncoalesced path; this is purely an event-count optimization.
  /// Ignored (always per-packet) when reorder_probability > 0, since
  /// reordered arrivals are not FIFO.
  bool coalesce_deliveries = true;
};

/// Counters exposed for tests and benches.
struct LinkStats {
  std::uint64_t packets_offered = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t drops_loss = 0;   // random loss model
  std::uint64_t drops_queue = 0;  // tail drop
  std::uint64_t packets_reordered = 0;
  std::uint64_t bytes_delivered = 0;
  /// Deliveries that rode an earlier packet's train event instead of
  /// scheduling their own (the kernel events saved by coalescing).
  std::uint64_t deliveries_coalesced = 0;

  /// Packets offered and not yet delivered or dropped.
  std::uint64_t in_flight() const {
    return packets_offered - packets_delivered - drops_loss - drops_queue;
  }

  LinkStats& operator+=(const LinkStats& o) {
    packets_offered += o.packets_offered;
    packets_delivered += o.packets_delivered;
    drops_loss += o.drops_loss;
    drops_queue += o.drops_queue;
    packets_reordered += o.packets_reordered;
    bytes_delivered += o.bytes_delivered;
    deliveries_coalesced += o.deliveries_coalesced;
    return *this;
  }
  LinkStats& operator-=(const LinkStats& o) {
    packets_offered -= o.packets_offered;
    packets_delivered -= o.packets_delivered;
    drops_loss -= o.drops_loss;
    drops_queue -= o.drops_queue;
    packets_reordered -= o.packets_reordered;
    bytes_delivered -= o.bytes_delivered;
    deliveries_coalesced -= o.deliveries_coalesced;
    return *this;
  }
};

class Link {
 public:
  using DeliverFn = std::function<void(PacketPtr)>;

  /// `deliver` is invoked (at the simulated arrival time) for every packet
  /// that survives loss and queuing. `rng_name` seeds the loss stream.
  Link(sim::Simulator& simulator, LinkConfig config, DeliverFn deliver,
       std::string rng_name);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Offer a packet to the link at the current simulated time. The packet
  /// may be dropped (loss model or full queue); survivors are delivered
  /// after serialization + propagation delay, FIFO order preserved.
  void transmit(PacketPtr packet);

  const LinkStats& stats() const { return stats_; }
  const LinkConfig& config() const { return config_; }

  /// Serialization time for `bytes` on this link.
  sim::SimTime serialization_delay(std::size_t bytes) const;

  /// Packets currently queued or in flight on the transmitter.
  std::size_t backlog() const;

 private:
  struct PendingDelivery {
    sim::SimTime arrival;
    PacketPtr packet;
  };

  /// Retire transmit-queue slots whose serialization has finished by `now`
  /// (the backlog is drained lazily instead of via one event per packet).
  void drain_tx_done(sim::SimTime now) const;
  /// Deliver the head of the train, then keep delivering as long as no
  /// other pending event precedes the next arrival; otherwise re-arm one
  /// event for the remainder.
  void drain_train();
  void deliver_packet(PacketPtr packet);

  sim::Simulator& simulator_;
  LinkConfig config_;
  DeliverFn deliver_;
  std::unique_ptr<LossModel> loss_;
  sim::RngStream loss_rng_;
  LinkStats stats_;
  /// Time the transmitter finishes serializing the last accepted packet.
  sim::SimTime busy_until_ = sim::SimTime::zero();
  /// Serialization-completion times of accepted packets, oldest first;
  /// entries <= now no longer occupy a queue slot.
  mutable std::deque<sim::SimTime> tx_done_;
  /// In-flight packets awaiting a coalesced train delivery, FIFO.
  std::deque<PendingDelivery> train_;
  bool train_event_armed_ = false;
};

}  // namespace dyncdn::net

#include "net/link.hpp"

#include <algorithm>
#include <utility>

namespace dyncdn::net {

Link::Link(sim::Simulator& simulator, LinkConfig config, DeliverFn deliver,
           std::string rng_name)
    : simulator_(simulator),
      config_(std::move(config)),
      deliver_(std::move(deliver)),
      loss_(config_.loss_factory ? config_.loss_factory() : make_no_loss()),
      loss_rng_(simulator.rng().stream(rng_name)) {}

sim::SimTime Link::serialization_delay(std::size_t bytes) const {
  if (config_.bandwidth_bps <= 0.0) return sim::SimTime::zero();
  const double seconds =
      static_cast<double>(bytes) * 8.0 / config_.bandwidth_bps;
  return sim::SimTime::from_seconds(seconds);
}

void Link::drain_tx_done(sim::SimTime now) const {
  while (!tx_done_.empty() && tx_done_.front() <= now) {
    tx_done_.pop_front();
  }
}

std::size_t Link::backlog() const {
  drain_tx_done(simulator_.now());
  return tx_done_.size();
}

void Link::deliver_packet(PacketPtr packet) {
  ++stats_.packets_delivered;
  stats_.bytes_delivered += packet->wire_size();
  deliver_(std::move(packet));
}

void Link::drain_train() {
  train_event_armed_ = false;
  // Head delivery: the train event was scheduled for exactly this arrival.
  deliver_packet(std::move(train_.front().packet));
  train_.pop_front();
  while (!train_.empty()) {
    const sim::SimTime next_arrival = train_.front().arrival;
    // Ride the train only while no other pending event precedes the next
    // arrival — anything the last delivery scheduled (ACKs, timers) or
    // any other component's event must run first, exactly as it would
    // have with one delivery event per packet. Under run_until the train
    // must also stop at the horizon, so arrivals after the deadline stay
    // pending: re-arming below parks the remainder as one event the next
    // run picks up at the exact same time.
    if (next_arrival < simulator_.horizon() &&
        simulator_.next_event_time() > next_arrival) {
      simulator_.advance_to(next_arrival);
      ++stats_.deliveries_coalesced;
      deliver_packet(std::move(train_.front().packet));
      train_.pop_front();
    } else {
      // A delivery handler transmitting on this same link mid-drain may
      // already have re-armed; never schedule a second train event.
      if (!train_event_armed_) {
        train_event_armed_ = true;
        simulator_.schedule_at(next_arrival, [this]() { drain_train(); });
      }
      return;
    }
  }
}

void Link::transmit(PacketPtr packet) {
  ++stats_.packets_offered;

  if (loss_->should_drop(loss_rng_)) {
    ++stats_.drops_loss;
    return;
  }
  const sim::SimTime now = simulator_.now();
  drain_tx_done(now);
  if (tx_done_.size() >= config_.queue_capacity) {
    ++stats_.drops_queue;
    return;
  }

  const sim::SimTime tx_start = std::max(now, busy_until_);
  const sim::SimTime tx_end =
      tx_start + serialization_delay(packet->wire_size());
  busy_until_ = tx_end;
  // The transmitter frees its queue slot when serialization completes, not
  // when the packet lands after propagation; the slot is reclaimed lazily
  // at the next transmit instead of costing a kernel event.
  tx_done_.push_back(tx_end);

  sim::SimTime arrival = tx_end + config_.propagation_delay;
  if (config_.reorder_probability > 0.0) {
    // Reordered arrivals are not FIFO, so such links never coalesce.
    if (loss_rng_.chance(config_.reorder_probability)) {
      arrival += config_.reorder_extra_delay;
      ++stats_.packets_reordered;
    }
  }
  if (config_.reorder_probability == 0.0 && config_.coalesce_deliveries) {
    // FIFO train: one armed event delivers the whole contiguous batch.
    // Arm at the HEAD's arrival — during a reentrant mid-drain transmit
    // the train still holds earlier, not-yet-delivered packets.
    train_.push_back(PendingDelivery{arrival, std::move(packet)});
    if (!train_event_armed_) {
      train_event_armed_ = true;
      simulator_.schedule_at(train_.front().arrival,
                             [this]() { drain_train(); });
    }
    return;
  }
  simulator_.schedule_at(arrival, [this, packet = std::move(packet)]() mutable {
    deliver_packet(std::move(packet));
  });
}

}  // namespace dyncdn::net

// Simulation facade: clock + event queue + run loop.
//
// All simulated components hold a Simulator& and schedule work through it.
// The Simulator owns nothing else; topology, protocol and application state
// live in their own modules so the kernel stays tiny and easily testable.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace dyncdn::obs {
class TraceSession;  // src/obs/trace.hpp; sim never dereferences it
}  // namespace dyncdn::obs

namespace dyncdn::sim {

class Simulator {
 public:
  /// `seed` drives every RNG stream created through rng().
  explicit Simulator(std::uint64_t seed = 1)
      : rng_factory_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedule `cb` to fire `delay` after the current time.
  EventId schedule_in(SimTime delay, EventQueue::Callback cb) {
    return queue_.schedule(now_ + delay, std::move(cb));
  }

  /// Schedule `cb` at absolute time `at` (must be >= now()).
  EventId schedule_at(SimTime at, EventQueue::Callback cb) {
    return queue_.schedule(at, std::move(cb));
  }

  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Ordering ticket for an event filed later (EventQueue::reserve_seq).
  std::uint64_t reserve_seq() { return queue_.reserve_seq(); }

  /// Schedule `cb` at `at` under a ticket from reserve_seq().
  EventId schedule_at_seq(SimTime at, std::uint64_t seq,
                          EventQueue::Callback cb) {
    return queue_.schedule_with_seq(at, seq, std::move(cb));
  }

  /// Time of the earliest pending event; SimTime::infinity() when idle.
  /// (May advance the timing wheel's cursor internally.)
  SimTime next_event_time() { return queue_.next_time(); }

  /// True while any event is pending. Convenience for host-side loops
  /// (e.g. the time-series sampling loop) that advance tick by tick.
  bool has_pending() { return next_event_time() != SimTime::infinity(); }

  /// Advance the clock to `t` without running an event. `t` must not
  /// precede now() nor overtake the earliest pending event. Link delivery
  /// coalescing uses this to stamp each packet of a drained train with its
  /// true arrival time, so handlers observe exactly the clock they would
  /// have seen with one delivery event per packet.
  void advance_to(SimTime t);

  /// Run until the event queue drains. Returns the final simulated time.
  SimTime run();

  /// Run every event with time <= `deadline`, then advance the clock to
  /// `deadline`. Later events stay pending: while the run is open,
  /// horizon() is `deadline` + 1 ns, so time-advancing components (link
  /// delivery trains) never deliver past the deadline.
  SimTime run_until(SimTime deadline);

  /// Exclusive upper bound on event times the current run may execute:
  /// SimTime::infinity() under run(), `deadline` + 1 ns under run_until().
  SimTime horizon() const { return horizon_; }

  /// Execute at most `n` events (testing hook).
  std::size_t run_steps(std::size_t n);

  bool idle() const { return queue_.empty(); }
  std::size_t pending_events() const { return queue_.pending_count(); }
  std::uint64_t events_executed() const { return events_executed_; }

  const RngFactory& rng() const { return rng_factory_; }

  /// Event-kernel introspection for the metrics layer.
  std::uint64_t events_scheduled() const {
    return queue_.scheduled_count();
  }
  std::uint64_t events_cancelled() const {
    return queue_.cancelled_count();
  }
  std::size_t max_heaped_entries() const { return queue_.max_heaped(); }

  /// Observability hook: a non-owning pointer to the trace session for
  /// this simulation, set by whoever owns both (testbed::Scenario). The
  /// kernel itself never touches it — components reach it through
  /// obs::active_trace(sim) so a null/disabled session costs one branch.
  obs::TraceSession* trace() const { return trace_; }
  void set_trace(obs::TraceSession* session) { trace_ = session; }

 private:
  EventQueue queue_;
  RngFactory rng_factory_;
  SimTime now_ = SimTime::zero();
  SimTime horizon_ = SimTime::infinity();
  std::uint64_t events_executed_ = 0;
  obs::TraceSession* trace_ = nullptr;
};

}  // namespace dyncdn::sim

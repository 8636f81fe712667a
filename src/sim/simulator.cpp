#include "sim/simulator.hpp"

#include <stdexcept>

namespace dyncdn::sim {

void Simulator::advance_to(SimTime t) {
  if (t < now_) {
    throw std::logic_error("Simulator::advance_to: moving the clock back (" +
                           t.to_string() + " < " + now_.to_string() + ")");
  }
  if (queue_.next_time() < t) {
    throw std::logic_error(
        "Simulator::advance_to: overtaking a pending event (" +
        queue_.next_time().to_string() + " < " + t.to_string() + ")");
  }
  now_ = t;
}

SimTime Simulator::run() {
  while (!queue_.empty()) {
    // The clock must advance *before* the callback runs so that work
    // scheduled from inside the callback sees the correct current time.
    now_ = queue_.next_time();
    queue_.pop_and_run();
    ++events_executed_;
  }
  return now_;
}

SimTime Simulator::run_until(SimTime deadline) {
  horizon_ = deadline.is_infinite() ? deadline
                                    : deadline + SimTime::nanoseconds(1);
  while (!queue_.empty() && queue_.next_time() <= deadline) {
    now_ = queue_.next_time();
    queue_.pop_and_run();
    ++events_executed_;
  }
  horizon_ = SimTime::infinity();
  if (now_ < deadline) {
    // Advance the clock to the deadline (even with an empty queue): the
    // caller asked for this much simulated time to pass, and components
    // such as TCP's idle-cwnd validation read the clock directly.
    now_ = deadline;
  }
  return now_;
}

std::size_t Simulator::run_steps(std::size_t n) {
  std::size_t done = 0;
  while (done < n && !queue_.empty()) {
    now_ = queue_.next_time();
    queue_.pop_and_run();
    ++events_executed_;
    ++done;
  }
  return done;
}

}  // namespace dyncdn::sim

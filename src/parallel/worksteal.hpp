// Chase-Lev work-stealing deque, specialized for a fixed task set.
//
// Each worker owns one deque, pre-filled with a contiguous block of task
// ids before any thread starts (plain writes — publication happens via the
// thread fork). The owner pops from the bottom; idle workers steal from
// the top. Because the campaign's task set is fixed up front there are no
// pushes after the threads start, so the classic dynamic-resize machinery
// is unnecessary: the buffer never wraps and a stolen slot is never
// overwritten. All cross-thread transitions use seq_cst, the textbook
// (conservative) ordering for this algorithm.
//
// Pre-fill convention: push tasks highest-first so the owner pops its block
// in ascending order while thieves take from the opposite (highest) end —
// the two never contend except on the final element, which the CAS on
// `top` arbitrates.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

namespace dyncdn::parallel {

class StealDeque {
 public:
  enum class Steal : std::uint8_t {
    kItem,   // stole a task
    kEmpty,  // deque observed empty
    kLost,   // lost the CAS race; caller may retry
  };

  explicit StealDeque(std::size_t capacity) : buffer_(capacity) {}

  /// Owner-only, before worker threads start.
  void prefill(std::size_t task) {
    buffer_[static_cast<std::size_t>(bottom_.load(std::memory_order_relaxed))] =
        task;
    bottom_.store(bottom_.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
  }

  /// Owner-only: take the most recently pushed task (the low end of the
  /// block under the highest-first pre-fill convention).
  bool pop(std::size_t& out) {
    std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    bottom_.store(b, std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    if (t > b) {
      bottom_.store(b + 1, std::memory_order_relaxed);
      return false;
    }
    out = buffer_[static_cast<std::size_t>(b)];
    if (t == b) {
      // Last element: win it against concurrent thieves via top's CAS.
      const bool won = top_.compare_exchange_strong(
          t, t + 1, std::memory_order_seq_cst, std::memory_order_seq_cst);
      bottom_.store(b + 1, std::memory_order_relaxed);
      return won;
    }
    return true;
  }

  /// Thief: take the oldest task (the high end of the block).
  Steal steal(std::size_t& out) {
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) return Steal::kEmpty;
    // Safe to read before the CAS: no pushes happen after threads start,
    // so this slot can never be overwritten.
    const std::size_t task = buffer_[static_cast<std::size_t>(t)];
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_seq_cst)) {
      return Steal::kLost;
    }
    out = task;
    return Steal::kItem;
  }

 private:
  std::vector<std::size_t> buffer_;
  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
};

}  // namespace dyncdn::parallel

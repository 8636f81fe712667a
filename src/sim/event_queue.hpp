// Hybrid timing-wheel / priority-queue event scheduler for the
// discrete-event kernel.
//
// Events are (time, sequence, callback) triples. The sequence number breaks
// ties deterministically: two events scheduled for the same instant fire in
// scheduling order, which makes whole-simulation runs bit-for-bit
// reproducible regardless of container internals.
//
// Hot-path design: callbacks live in a slot table indexed by small integers;
// the ordering containers hold only POD (time, seq, slot, generation)
// entries. An EventId encodes (slot, generation), so cancel is an O(1)
// generation bump — no hash-set insert/erase — and a stale entry is
// recognized by its generation mismatching the slot's.
//
// Near-term events (within ~134 ms of the drain cursor) go straight into a
// binary min-heap, which pops them in exact (time, seq) order. Far-future
// events — RTO timers, idle timeouts, the cancel-churn-heavy population —
// go into a 3-level hierarchical timing wheel (256 buckets per level,
// 2^21 ns ≈ 2.1 ms level-0 granularity): schedule is an O(1) bucket
// append, and a cancelled wheel entry dies in place when its bucket is
// flushed instead of churning the heap. As simulated time advances, the
// wheel cursor sweeps bucket by bucket: level-0 buckets flush into the
// heap (which restores exact global order — wheel entries keep their
// original seq), and higher-level buckets cascade down one level at a
// time, so every entry is touched O(levels) times total. Events beyond
// the level-2 span (~9.5 h) sit in an overflow list. Per-level occupancy
// bitmaps let the cursor jump straight to the next index where a bucket
// flushes or cascades (or the overflow list laps), so a quiet stretch
// costs a few bit scans instead of one step per 2.1 ms bucket.
//
// Both structures bound garbage from cancel churn: dead heap entries are
// skimmed at the top, dead wheel entries die in place when their bucket
// flushes, and a joint compaction pass sweeps both structures once
// cancelled entries outnumber live ones. Total storage stays O(live
// events) no matter how hard timers churn, and cancel itself never
// inspects where the entry lives — it is a generation bump plus one
// counter increment.
//
// Ordering tickets: reserve_seq() hands out the next sequence number
// without queuing anything, and schedule_with_seq() later files an event
// under it. A timer whose deadline keeps moving (TCP's RTO, pushed back
// on every ACK) takes a fresh ticket per move and keeps one queued entry
// that files itself again at (deadline, ticket) when it pops ahead of
// that pair, so it fires exactly where a cancel + schedule per move would
// have put it.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace dyncdn::sim {

/// Opaque handle identifying a scheduled event; usable for cancellation.
class EventId {
 public:
  constexpr EventId() = default;
  constexpr explicit EventId(std::uint64_t v) : value_(v) {}
  constexpr std::uint64_t value() const { return value_; }
  constexpr bool valid() const { return value_ != 0; }
  friend constexpr bool operator==(EventId, EventId) = default;

 private:
  std::uint64_t value_ = 0;  // 0 = invalid / never scheduled
};

/// Timing-wheel + min-heap hybrid with O(1) generation-counter cancellation.
class EventQueue {
 public:
  using Callback = sim::Callback;

  /// Heap/wheel boundary: events within this many level-0 buckets of the
  /// drain cursor skip the wheel (typical network events — transmissions,
  /// propagation delays — stay pure-heap; RTO-scale timers go to the wheel).
  static constexpr std::int64_t kNearBuckets = 64;
  /// log2 of the level-0 bucket width in ns: 2^21 ns ≈ 2.097 ms.
  static constexpr int kWheelShift = 21;
  static constexpr int kLevels = 3;
  static constexpr std::uint64_t kBucketsPerLevel = 256;
  /// Cancelled entries tolerated before a compaction pass considers
  /// running: a sweep must visit every wheel bucket, so sweeping too
  /// eagerly when few timers are live would dominate the O(1) cancel
  /// path it exists to protect.
  static constexpr std::size_t kCompactSlack = 1024;

  /// A fresh queue per scenario would otherwise pay a dozen
  /// geometric-growth reallocations on each vector before reaching its
  /// steady-state footprint.
  EventQueue() {
    heap_.reserve(64);
    slots_.reserve(64);
    free_slots_.reserve(64);
  }

  /// Schedule `cb` to fire at absolute time `at`. `at` must not precede the
  /// last popped event time (no scheduling into the past).
  EventId schedule(SimTime at, Callback cb) {
    return schedule_with_seq(at, next_seq_++, std::move(cb));
  }

  /// Take the next sequence number without queuing anything: an ordering
  /// ticket for an event filed later by schedule_with_seq(). Ties at one
  /// instant then break as if the event had been scheduled now.
  std::uint64_t reserve_seq() { return next_seq_++; }

  /// Schedule `cb` at `at` under `seq`, a number reserve_seq() returned
  /// that no queued event carries. Same precondition as schedule().
  EventId schedule_with_seq(SimTime at, std::uint64_t seq, Callback cb);

  /// Cancel a previously scheduled event. Safe to call with an already-fired
  /// or already-cancelled id (no-op). Returns true if the event was pending.
  bool cancel(EventId id);

  bool empty() const { return live_ == 0; }

  /// Time of the earliest pending event; SimTime::infinity() when empty.
  /// May advance the wheel cursor (flushing due buckets into the heap).
  SimTime next_time();

  /// Pop and run the earliest event; returns its scheduled time.
  /// Precondition: !empty().
  SimTime pop_and_run();

  std::size_t pending_count() const { return live_; }

  /// Introspection for stress tests: entries currently in the heap /
  /// wheel+overflow, including cancelled-but-not-yet-collected ones, and
  /// the slot-table size. All are bounded by O(live events) regardless of
  /// cancel churn.
  std::size_t heaped_entries() const { return heap_.size(); }
  std::size_t wheel_entries() const { return wheel_size_; }
  std::size_t slot_count() const { return slots_.size(); }
  /// Level-0 buckets the cursor has processed (flushed, with any cascade
  /// starting there). Empty stretches are jumped, not counted.
  std::uint64_t cursor_steps() const { return cursor_steps_; }

  /// Lifetime counters for the metrics layer (maintained unconditionally:
  /// one increment / one comparison per schedule or cancel, noise next to
  /// the container push itself). scheduled_count() is the number of
  /// sequence numbers issued, reserved tickets included.
  std::uint64_t scheduled_count() const { return next_seq_ - 1; }
  std::uint64_t cancelled_count() const { return cancelled_; }
  std::size_t max_heaped() const { return max_heaped_; }
  std::size_t max_wheeled() const { return max_wheeled_; }

 private:
  struct Entry {
    SimTime at;
    std::uint64_t seq;     // global schedule order, breaks time ties
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct Slot {
    Callback cb;
    std::uint32_t gen = 1;   // bumped when the slot's event fires/cancels
  };
  using Bucket = std::vector<Entry>;
  /// One bit per bucket of a level: set while the bucket holds entries.
  using Occupancy = std::array<std::uint64_t, kBucketsPerLevel / 64>;

  /// Heap order (a max-heap comparator makes a min-heap): a function
  /// object, so every sift step inlines the comparison.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  bool entry_dead(const Entry& e) const {
    return slots_[e.slot].gen != e.gen;
  }

  /// Push an entry onto the min-heap.
  void heap_push(Entry e);
  /// Drop cancelled entries from the top of the heap.
  void skim();
  /// Sweep dead entries out of heap, wheel, and overflow once they
  /// dominate the live population.
  void maybe_compact();
  /// Retire a slot whose event fired or was cancelled.
  void retire_slot(std::uint32_t slot);

  /// File an entry (known to be >= kNearBuckets ahead of the cursor) into
  /// the shallowest wheel level that can hold it, or the overflow list.
  void wheel_place(Entry e);
  /// Re-file an entry pulled out of a cascading bucket: near entries go to
  /// the heap, the rest one wheel level down.
  void replace_after_cascade(Entry e);
  /// Advance the cursor one level-0 bucket: cascade any higher-level
  /// buckets whose window begins here, then flush the due level-0 bucket
  /// into the heap (dead entries die in place).
  void step_cursor();
  /// The first level-0 index after the cursor at which step_cursor() has
  /// work: an occupied level-0 bucket, the window start of an occupied
  /// level-1 or level-2 bucket, or an overflow lap with entries waiting.
  /// UINT64_MAX when the wheel and overflow are empty.
  std::uint64_t next_busy_index() const;
  /// Advance the cursor so every wheel entry with time <= `t` is heaped.
  void drain_wheel_to(SimTime t);
  /// Advance the cursor until the heap is non-empty (requires live wheel
  /// entries) so the true next event is visible at the heap top.
  void advance_until_heap_nonempty();

  std::vector<Entry> heap_;           // binary min-heap via std::*_heap
  std::array<std::array<Bucket, kBucketsPerLevel>, kLevels> wheel_;
  std::array<Occupancy, kLevels> occupied_{};
  std::vector<Entry> overflow_;       // beyond the level-2 span (~9.5 h)
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t cursor_idx0_ = 0;     // level-0 bucket index of the cursor
  std::uint64_t cursor_steps_ = 0;
  std::size_t live_ = 0;              // scheduled and not fired/cancelled
  std::size_t dead_total_ = 0;        // cancelled entries not yet collected
  std::size_t wheel_size_ = 0;        // entries (live or dead) in wheel+overflow
  std::uint64_t next_seq_ = 1;
  std::uint64_t cancelled_ = 0;
  std::size_t max_heaped_ = 0;
  std::size_t max_wheeled_ = 0;
  SimTime last_popped_ = SimTime::zero();
};

}  // namespace dyncdn::sim

#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace dyncdn::sim {

namespace {

constexpr std::uint64_t kBucketMask = EventQueue::kBucketsPerLevel - 1;

/// Level-0 bucket index of an absolute time.
constexpr std::int64_t idx0_of(SimTime t) {
  return t.ns() >> EventQueue::kWheelShift;
}

template <typename Occupancy>
void mark(Occupancy& bits, std::uint64_t bucket, bool occupied) {
  const std::uint64_t bit = std::uint64_t{1} << (bucket & 63);
  if (occupied) {
    bits[bucket >> 6] |= bit;
  } else {
    bits[bucket >> 6] &= ~bit;
  }
}

/// Buckets from `from` (wrapping) to the first occupied one, or
/// kBucketsPerLevel when none is.
template <typename Occupancy>
std::uint64_t distance_to_occupied(const Occupancy& bits, std::uint64_t from) {
  std::uint64_t word = from >> 6;
  std::uint64_t scan = bits[word] & (~std::uint64_t{0} << (from & 63));
  // The fifth pass revisits the first word's low bits, which wrap.
  for (std::size_t pass = 0; pass <= bits.size(); ++pass) {
    if (scan != 0) {
      const std::uint64_t bucket =
          (word << 6) + static_cast<std::uint64_t>(std::countr_zero(scan));
      return (bucket - from) & kBucketMask;
    }
    word = (word + 1) % bits.size();
    scan = bits[word];
  }
  return EventQueue::kBucketsPerLevel;
}

}  // namespace

void EventQueue::heap_push(Entry e) {
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  if (heap_.size() > max_heaped_) max_heaped_ = heap_.size();
}

EventId EventQueue::schedule_with_seq(SimTime at, std::uint64_t seq,
                                      Callback cb) {
  if (at < last_popped_) {
    throw std::logic_error("EventQueue::schedule: scheduling into the past (" +
                           at.to_string() + " < " + last_popped_.to_string() +
                           ")");
  }
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].cb = std::move(cb);

  const std::uint32_t gen = slots_[slot].gen;
  const Entry entry{at, seq, slot, gen};
  // Near events (and any event behind the cursor, which can happen when
  // next_time() has drained ahead of last_popped_) go straight to the
  // heap; far cancellable timers go to the wheel.
  if (idx0_of(at) <
      static_cast<std::int64_t>(cursor_idx0_) + kNearBuckets) {
    heap_push(entry);
  } else {
    wheel_place(entry);
    if (++wheel_size_ > max_wheeled_) max_wheeled_ = wheel_size_;
  }
  ++live_;
  return EventId{(static_cast<std::uint64_t>(slot) << 32) | gen};
}

void EventQueue::wheel_place(Entry e) {
  const std::uint64_t at = static_cast<std::uint64_t>(e.at.ns());
  const std::uint64_t cur = cursor_idx0_ << kWheelShift;
  for (int level = 0; level < kLevels; ++level) {
    const int shift = kWheelShift + 8 * level;
    if ((at >> shift) - (cur >> shift) < kBucketsPerLevel) {
      const std::uint64_t index = (at >> shift) & kBucketMask;
      auto& bucket = wheel_[static_cast<std::size_t>(level)][index];
      // Buckets keep their capacity across cascades (clear(), not a fresh
      // vector), but a cold bucket's first few pushes would still double
      // through 1/2/4; start at a useful size instead.
      if (bucket.capacity() == 0) bucket.reserve(8);
      bucket.push_back(e);
      mark(occupied_[static_cast<std::size_t>(level)], index, true);
      return;
    }
  }
  overflow_.push_back(e);
}

void EventQueue::replace_after_cascade(Entry e) {
  if (entry_dead(e)) {
    --dead_total_;
    --wheel_size_;
    return;
  }
  if (idx0_of(e.at) <
      static_cast<std::int64_t>(cursor_idx0_) + kNearBuckets) {
    --wheel_size_;
    heap_push(e);
  } else {
    wheel_place(e);  // stays in the wheel, one level down
  }
}

void EventQueue::step_cursor() {
  const std::uint64_t next = cursor_idx0_ + 1;
  cursor_idx0_ = next;
  ++cursor_steps_;
  if ((next & kBucketMask) == 0) {
    // The cursor enters a new level-1 bucket window: cascade it down.
    // Entering a new level-2 window (and a new overflow lap) cascades the
    // higher structures first; re-filed entries can never land in a
    // bucket that is itself about to cascade, because wheel_place always
    // prefers the shallowest level that fits.
    if ((next & 0xFFFF) == 0) {
      if ((next & 0xFFFFFF) == 0 && !overflow_.empty()) {
        std::vector<Entry> pending;
        pending.swap(overflow_);
        for (Entry& e : pending) replace_after_cascade(e);
      }
      Bucket& b2 = wheel_[2][(next >> 16) & kBucketMask];
      if (!b2.empty()) {
        mark(occupied_[2], (next >> 16) & kBucketMask, false);
        Bucket pending;
        pending.swap(b2);
        for (Entry& e : pending) replace_after_cascade(e);
        b2 = std::move(pending);  // reuse capacity
        b2.clear();
      }
    }
    Bucket& b1 = wheel_[1][(next >> 8) & kBucketMask];
    if (!b1.empty()) {
      mark(occupied_[1], (next >> 8) & kBucketMask, false);
      Bucket pending;
      pending.swap(b1);
      for (Entry& e : pending) replace_after_cascade(e);
      b1 = std::move(pending);
      b1.clear();
    }
  }
  Bucket& due = wheel_[0][next & kBucketMask];
  mark(occupied_[0], next & kBucketMask, false);
  wheel_size_ -= due.size();
  for (Entry& e : due) {
    if (entry_dead(e)) {
      --dead_total_;  // a cancelled wheel entry dies here, in place
      continue;
    }
    heap_push(e);
  }
  due.clear();
}

std::uint64_t EventQueue::next_busy_index() const {
  // A level-l bucket holds entries of one window only, the one within
  // kBucketsPerLevel windows after the cursor's that shares its residue:
  // wheel_place files entries of the cursor's own window a level lower.
  const std::uint64_t cur = cursor_idx0_;
  std::uint64_t next = UINT64_MAX;
  for (int level = 0; level < kLevels; ++level) {
    const int shift = 8 * level;
    const std::uint64_t window = (cur >> shift) + 1;
    const std::uint64_t d = distance_to_occupied(
        occupied_[static_cast<std::size_t>(level)], window & kBucketMask);
    if (d < kBucketsPerLevel) next = std::min(next, (window + d) << shift);
  }
  if (!overflow_.empty()) next = std::min(next, ((cur >> 24) + 1) << 24);
  return next;
}

void EventQueue::drain_wheel_to(SimTime t) {
  const std::uint64_t target =
      static_cast<std::uint64_t>(idx0_of(t));
  while (cursor_idx0_ < target) {
    // Indices before the next busy one have nothing to flush or cascade.
    const std::uint64_t busy = next_busy_index();
    if (busy > target) {
      cursor_idx0_ = target;
      return;
    }
    cursor_idx0_ = busy - 1;
    step_cursor();
  }
}

void EventQueue::advance_until_heap_nonempty() {
  while (heap_.empty()) {
    assert(wheel_size_ > 0 &&
           "advance_until_heap_nonempty without wheel entries");
    cursor_idx0_ = next_busy_index() - 1;
    step_cursor();
    skim();  // a flushed bucket may contain only entries cancelled later
  }
}

void EventQueue::retire_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.cb.reset();
  ++s.gen;
  free_slots_.push_back(slot);
  --live_;
}

bool EventQueue::cancel(EventId id) {
  if (!id.valid()) return false;
  const std::uint32_t slot = static_cast<std::uint32_t>(id.value() >> 32);
  const std::uint32_t gen = static_cast<std::uint32_t>(id.value());
  if (slot >= slots_.size() || slots_[slot].gen != gen) {
    return false;  // already fired/cancelled (or never scheduled here)
  }
  retire_slot(slot);
  ++cancelled_;
  // The orphaned entry dies in place wherever it lives — skimmed off the
  // heap top, dropped at bucket flush/cascade, or removed by the joint
  // compaction below. Cancel itself never has to know which.
  ++dead_total_;
  maybe_compact();
  return true;
}

void EventQueue::skim() {
  while (!heap_.empty() && entry_dead(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    --dead_total_;
  }
}

void EventQueue::maybe_compact() {
  // Sweep once cancelled entries dominate the live population: total
  // storage (heap + wheel + overflow) stays within 2x live events plus
  // slack no matter how hard timers churn. With an empty wheel every dead
  // entry is in the heap, so a tight slack keeps heap sifts shallow;
  // otherwise the slack is sized for the wheel — a sweep must at least
  // look at every bucket (768 of them), so sweeping every few dozen
  // cancels when few timers are live would dominate the O(1) cancel path
  // it exists to protect.
  const bool heap_only = wheel_size_ == 0;
  if (dead_total_ < (heap_only ? 64 : kCompactSlack) ||
      dead_total_ <= live_) {
    return;
  }
  const auto is_dead = [this](const Entry& e) { return entry_dead(e); };
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(), is_dead),
              heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  if (heap_only) {
    dead_total_ = 0;
    return;
  }
  for (std::size_t level = 0; level < wheel_.size(); ++level) {
    for (std::uint64_t b = 0; b < kBucketsPerLevel; ++b) {
      Bucket& bucket = wheel_[level][b];
      if (bucket.empty()) continue;
      const std::size_t before = bucket.size();
      bucket.erase(std::remove_if(bucket.begin(), bucket.end(), is_dead),
                   bucket.end());
      wheel_size_ -= before - bucket.size();
      if (bucket.empty()) mark(occupied_[level], b, false);
    }
  }
  const std::size_t overflow_before = overflow_.size();
  overflow_.erase(
      std::remove_if(overflow_.begin(), overflow_.end(), is_dead),
      overflow_.end());
  wheel_size_ -= overflow_before - overflow_.size();
  dead_total_ = 0;
}

SimTime EventQueue::next_time() {
  if (live_ == 0) return SimTime::infinity();
  skim();
  if (heap_.empty()) advance_until_heap_nonempty();
  // A wheel entry could still precede the current heap top; draining up to
  // it flushes any such entry into the heap, making the top exact.
  drain_wheel_to(heap_.front().at);
  return heap_.front().at;
}

SimTime EventQueue::pop_and_run() {
  assert(live_ > 0 && "pop_and_run on empty queue");
  skim();
  if (heap_.empty()) advance_until_heap_nonempty();
  drain_wheel_to(heap_.front().at);
  const Entry entry = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  // Move the callback out and retire the slot *before* running: the
  // callback may itself schedule (possibly reusing this slot) or try to
  // cancel its own id, which must report "already fired".
  Callback cb = std::move(slots_[entry.slot].cb);
  retire_slot(entry.slot);
  last_popped_ = entry.at;
  cb();
  return entry.at;
}

}  // namespace dyncdn::sim

// Fixed-size slab allocator for hot-path simulation state.
//
// A SlabPool hands out fixed-size blocks from a free list refilled in
// chunks, so steady-state acquire/release is a vector pop/push instead of
// a heap round trip. Pools are NOT thread-safe by design: the intended
// instances are thread_local (one per worker thread) or owned by one
// component of a scenario. Either way they rely on one invariant: a
// scenario's blocks are acquired and released on the thread that builds,
// runs and destroys it. A block therefore always returns to the pool that
// handed it out, and chunk storage is reclaimed at thread/pool teardown,
// after every block of every scenario on that thread is back.
//
// Under AddressSanitizer (DYNCDN_SANITIZE builds) every free-listed block
// is poisoned, so use-after-release of slab state faults exactly like a
// heap use-after-free would.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DYNCDN_MEM_ASAN 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define DYNCDN_MEM_ASAN 1
#endif

#ifndef DYNCDN_MEM_ASAN
#define DYNCDN_MEM_ASAN 0
#endif

#if DYNCDN_MEM_ASAN
#include <sanitizer/asan_interface.h>
#define DYNCDN_MEM_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define DYNCDN_MEM_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define DYNCDN_MEM_POISON(p, n) ((void)(p), (void)(n))
#define DYNCDN_MEM_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace dyncdn::mem {

class SlabPool {
 public:
  /// `block_size` is rounded up to max_align_t alignment so any object that
  /// fits can live in a block. `blocks_per_chunk` controls refill
  /// granularity: one heap allocation buys that many blocks.
  explicit SlabPool(std::size_t block_size, std::size_t blocks_per_chunk = 64)
      : block_size_(round_up(block_size)),
        blocks_per_chunk_(blocks_per_chunk == 0 ? 1 : blocks_per_chunk) {}

  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;

  ~SlabPool() {
    for (void* chunk : chunks_) {
      DYNCDN_MEM_UNPOISON(chunk, chunk_bytes());
      ::operator delete(chunk);
    }
  }

  void* allocate() {
    if (free_.empty()) refill();
    void* p = free_.back();
    free_.pop_back();
    DYNCDN_MEM_UNPOISON(p, block_size_);
    return p;
  }

  void deallocate(void* p) {
    if (p == nullptr) return;
    DYNCDN_MEM_POISON(p, block_size_);
    free_.push_back(p);
  }

  std::size_t block_size() const { return block_size_; }
  std::size_t free_count() const { return free_.size(); }
  std::size_t chunk_count() const { return chunks_.size(); }

  /// Whether `p` lies inside one of this pool's chunks (tests only; O(chunks)).
  bool owns(const void* p) const {
    const auto* b = static_cast<const std::byte*>(p);
    for (void* chunk : chunks_) {
      const auto* c = static_cast<const std::byte*>(chunk);
      if (b >= c && b < c + chunk_bytes()) return true;
    }
    return false;
  }

 private:
  static std::size_t round_up(std::size_t n) {
    const std::size_t a = alignof(std::max_align_t);
    return n < a ? a : (n + a - 1) / a * a;
  }

  std::size_t chunk_bytes() const { return block_size_ * blocks_per_chunk_; }

  void refill() {
    auto* chunk = static_cast<std::byte*>(::operator new(chunk_bytes()));
    chunks_.push_back(chunk);
    free_.reserve(free_.size() + blocks_per_chunk_);
    // Push in reverse so the pool hands out blocks in ascending address
    // order — deterministic layout, friendlier prefetch.
    for (std::size_t i = blocks_per_chunk_; i-- > 0;) {
      std::byte* block = chunk + i * block_size_;
      DYNCDN_MEM_POISON(block, block_size_);
      free_.push_back(block);
    }
  }

  std::size_t block_size_;
  std::size_t blocks_per_chunk_;
  std::vector<void*> free_;   // external free list: never reads freed blocks
  std::vector<void*> chunks_;
};

/// Typed facade over SlabPool: placement-constructs T in a slab block and
/// destroys it on release. One instance per owning component (per-stack
/// socket slab, per-analyzer timeline slab, ...).
template <class T>
class TypedSlab {
 public:
  explicit TypedSlab(std::size_t blocks_per_chunk = 64)
      : pool_(sizeof(T), blocks_per_chunk) {}

  template <class... Args>
  T* create(Args&&... args) {
    void* p = pool_.allocate();
    try {
      return new (p) T(std::forward<Args>(args)...);
    } catch (...) {
      pool_.deallocate(p);
      throw;
    }
  }

  void destroy(T* p) {
    if (p == nullptr) return;
    p->~T();
    pool_.deallocate(p);
  }

  std::size_t free_count() const { return pool_.free_count(); }

 private:
  SlabPool pool_;
};

}  // namespace dyncdn::mem

// Bump-pointer arena for build-then-drop-together allocations.
//
// An Arena carves variable-size allocations out of chunked slabs with a
// pointer bump; individual allocations are never freed — reset() returns
// the whole arena to empty in O(chunks), retaining the chunk storage for
// the next cycle. Use it where a group of allocations shares one lifetime
// (a boundary probe's pending segments, a routing recompute's scratch);
// use SlabPool where objects of one size are acquired and released
// individually. Like SlabPool, an Arena is single-thread by design, and
// reset() poisons the reclaimed space under ASan so stale pointers into a
// previous cycle fault.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <vector>

#include "mem/slab.hpp"  // DYNCDN_MEM_POISON / DYNCDN_MEM_UNPOISON

namespace dyncdn::mem {

class Arena {
 public:
  explicit Arena(std::size_t chunk_bytes = 64 * 1024)
      : chunk_bytes_(chunk_bytes < 256 ? 256 : chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  ~Arena() {
    for (const Chunk& c : chunks_) {
      DYNCDN_MEM_UNPOISON(c.base, c.size);
      ::operator delete(c.base);
    }
  }

  void* allocate(std::size_t bytes,
                 std::size_t align = alignof(std::max_align_t)) {
    if (bytes == 0) bytes = 1;
    std::size_t off = (used_ + align - 1) / align * align;
    if (current_ >= chunks_.size() || off + bytes > chunks_[current_].size) {
      next_chunk(bytes, align);
      off = 0;
    }
    std::byte* p = chunks_[current_].base + off;
    used_ = off + bytes;
    bytes_allocated_ += bytes;
    DYNCDN_MEM_UNPOISON(p, bytes);
    return p;
  }

  /// Copy `n` bytes into the arena.
  void* copy(const void* src, std::size_t n) {
    void* p = allocate(n == 0 ? 1 : n, 1);
    if (n > 0) std::memcpy(p, src, n);
    return p;
  }

  /// Drop every allocation, keeping chunk storage for reuse.
  void reset() {
    for (const Chunk& c : chunks_) DYNCDN_MEM_POISON(c.base, c.size);
    current_ = 0;
    used_ = 0;
    bytes_allocated_ = 0;
  }

  /// Bytes handed out since construction/reset (excludes alignment waste).
  std::size_t bytes_allocated() const { return bytes_allocated_; }
  std::size_t chunk_count() const { return chunks_.size(); }

 private:
  struct Chunk {
    std::byte* base;
    std::size_t size;
  };

  void next_chunk(std::size_t bytes, std::size_t align) {
    // Advance into retained chunks first; allocate a fresh one only when
    // they are exhausted (or too small for an oversized request).
    const std::size_t need = bytes + align;
    if (current_ + 1 < chunks_.size() && chunks_[current_ + 1].size >= need) {
      ++current_;
      used_ = 0;
      return;
    }
    const std::size_t size = need > chunk_bytes_ ? need : chunk_bytes_;
    auto* base = static_cast<std::byte*>(::operator new(size));
    DYNCDN_MEM_POISON(base, size);
    chunks_.push_back(Chunk{base, size});
    current_ = chunks_.size() - 1;
    used_ = 0;
  }

  std::size_t chunk_bytes_;
  std::vector<Chunk> chunks_;
  std::size_t current_ = 0;  // index of the chunk being bumped
  std::size_t used_ = 0;     // bytes consumed in chunks_[current_]
  std::size_t bytes_allocated_ = 0;
};

}  // namespace dyncdn::mem

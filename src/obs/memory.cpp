#include "obs/memory.hpp"

#include <pthread.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <new>

#if defined(__linux__)
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>
#endif

#ifndef DYNCDN_MEM_TRACK
#define DYNCDN_MEM_TRACK 1
#endif

namespace dyncdn::obs {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

/// One thread's counters. Only the owning thread writes them, with a plain
/// load and store (no locked read-modify-write on the allocation path);
/// memory_snapshot() reads them from any thread. `live` is signed: a thread
/// may free what another one allocated.
struct Counters {
  std::atomic<std::int64_t> live{0};
  std::atomic<std::int64_t> peak{0};      // high-water mark of live ...
  std::atomic<std::uint64_t> epoch{0};    // ... since this reset epoch
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> frees{0};
};

/// Folded totals of threads that have exited (and counts made on a thread
/// after its block was folded).
struct Retired {
  std::int64_t live = 0;
  std::int64_t peak = 0;  // sum of the folded threads' high-water marks
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
};

struct ThreadBlock;

/// The registry, guarded by g_mutex: running threads' blocks and the
/// retired totals. Touched on a thread's first count, at its exit and by
/// readers, never per allocation.
std::mutex g_mutex;
ThreadBlock* g_blocks = nullptr;
Retired g_retired;
/// Bumped by reset_peak_live_bytes() (under g_mutex). A block whose epoch
/// is older has not counted since the reset, so its high-water mark since
/// then is its live size; its owner rebases at its next count.
std::atomic<std::uint64_t> g_epoch{1};

template <class T>
void bump(std::atomic<T>& counter, T delta) {
  counter.store(counter.load(kRelaxed) + delta, kRelaxed);
}

/// High-water mark of `c` since the last reset, as a reader sees it.
std::int64_t peak_since_reset(const Counters& c, std::uint64_t epoch) {
  return c.epoch.load(kRelaxed) == epoch ? c.peak.load(kRelaxed)
                                         : c.live.load(kRelaxed);
}

/// Owner side of a reset: the first count after it starts the new
/// high-water mark at the live size the reset saw (unchanged since, as
/// only the owner changes it).
void rebase(Counters& c, std::int64_t live) {
  const std::uint64_t epoch = g_epoch.load(kRelaxed);
  if (c.epoch.load(kRelaxed) != epoch) {
    c.peak.store(live, kRelaxed);
    c.epoch.store(epoch, kRelaxed);
  }
}

void fold(const Counters& c) {
  g_retired.peak += peak_since_reset(c, g_epoch.load(kRelaxed));
  g_retired.live += c.live.load(kRelaxed);
  g_retired.allocs += c.allocs.load(kRelaxed);
  g_retired.frees += c.frees.load(kRelaxed);
}

/// The calling thread's block, linked into g_blocks on the thread's first
/// count and folded into g_retired at its exit, so joined workers still
/// count. It is constant-initialized and trivially destructible: no TLS
/// guard on the allocation path, and no C++ exit-handler registration,
/// which would allocate from the heap and move later chunks. A pthread
/// key's destructor does the fold instead, after the thread's C++
/// thread_local destructors have run (and counted their frees); the main
/// thread's block stays linked.
struct ThreadBlock {
  enum class State : unsigned char { kNew, kLinked, kFolded };
  Counters counters;
  ThreadBlock* prev = nullptr;
  ThreadBlock* next = nullptr;
  State state = State::kNew;
};

thread_local ThreadBlock t_block;

void fold_at_exit(void* arg) {
  auto* block = static_cast<ThreadBlock*>(arg);
  const std::lock_guard<std::mutex> lock(g_mutex);
  fold(block->counters);
  if (block->prev != nullptr) block->prev->next = block->next;
  if (block->next != nullptr) block->next->prev = block->prev;
  if (g_blocks == block) g_blocks = block->next;
  block->state = ThreadBlock::State::kFolded;
}

pthread_key_t exit_key() {
  static const pthread_key_t key = [] {
    pthread_key_t k;
    if (pthread_key_create(&k, &fold_at_exit) != 0) std::abort();
    return k;
  }();
  return key;
}

/// The calling thread's counters; nullptr once its block is folded
/// (exit-time destructors that run after the fold may still allocate).
Counters* thread_counters() {
  ThreadBlock& block = t_block;
  if (block.state == ThreadBlock::State::kLinked) [[likely]] {
    return &block.counters;
  }
  if (block.state == ThreadBlock::State::kFolded) return nullptr;
  const pthread_key_t key = exit_key();
  {
    const std::lock_guard<std::mutex> lock(g_mutex);
    block.counters.epoch.store(g_epoch.load(kRelaxed), kRelaxed);
    block.next = g_blocks;
    if (g_blocks != nullptr) g_blocks->prev = &block;
    g_blocks = &block;
    block.state = ThreadBlock::State::kLinked;
  }
  // A low key index lives in the thread descriptor: no allocation.
  pthread_setspecific(key, &block);
  return &block.counters;
}

/// Count on a thread whose block is already folded.
void count_retired(std::int64_t delta) {
  const std::lock_guard<std::mutex> lock(g_mutex);
  g_retired.live += delta;
  if (delta > 0) {
    ++g_retired.allocs;
    if (g_retired.live > g_retired.peak) g_retired.peak = g_retired.live;
  } else {
    ++g_retired.frees;
  }
}

#if DYNCDN_MEM_TRACK

inline std::size_t usable_size(void* p) {
#if defined(__linux__)
  return malloc_usable_size(p);
#else
  (void)p;
  return 0;
#endif
}

void* tracked_alloc(std::size_t size) {
  void* p = std::malloc(size);
  if (p != nullptr) count_allocation(usable_size(p));
  return p;
}

void* tracked_aligned_alloc(std::size_t size, std::size_t alignment) {
  void* p = nullptr;
#if defined(__linux__)
  if (posix_memalign(&p, alignment, size) != 0) p = nullptr;
#else
  p = std::aligned_alloc(alignment, size);
#endif
  if (p != nullptr) count_allocation(usable_size(p));
  return p;
}

void tracked_free(void* p) {
  if (p == nullptr) return;
  count_free(usable_size(p));
  std::free(p);
}

#endif  // DYNCDN_MEM_TRACK

}  // namespace

void count_allocation(std::size_t bytes) {
  Counters* c = thread_counters();
  if (c == nullptr) {
    count_retired(static_cast<std::int64_t>(bytes));
    return;
  }
  bump<std::uint64_t>(c->allocs, 1);
  const std::int64_t before = c->live.load(kRelaxed);
  const std::int64_t live = before + static_cast<std::int64_t>(bytes);
  rebase(*c, before);
  c->live.store(live, kRelaxed);
  if (live > c->peak.load(kRelaxed)) c->peak.store(live, kRelaxed);
}

void count_free(std::size_t bytes) {
  Counters* c = thread_counters();
  if (c == nullptr) {
    count_retired(-static_cast<std::int64_t>(bytes));
    return;
  }
  bump<std::uint64_t>(c->frees, 1);
  const std::int64_t before = c->live.load(kRelaxed);
  rebase(*c, before);
  c->live.store(before - static_cast<std::int64_t>(bytes), kRelaxed);
}

MemorySnapshot memory_snapshot() {
  std::int64_t live = 0;
  std::int64_t peak = 0;
  MemorySnapshot s;
  {
    const std::lock_guard<std::mutex> lock(g_mutex);
    const std::uint64_t epoch = g_epoch.load(kRelaxed);
    live = g_retired.live;
    peak = g_retired.peak;
    s.allocations = g_retired.allocs;
    s.frees = g_retired.frees;
    for (const ThreadBlock* b = g_blocks; b != nullptr; b = b->next) {
      live += b->counters.live.load(kRelaxed);
      peak += peak_since_reset(b->counters, epoch);
      s.allocations += b->counters.allocs.load(kRelaxed);
      s.frees += b->counters.frees.load(kRelaxed);
    }
  }
  s.live_bytes = live > 0 ? static_cast<std::uint64_t>(live) : 0;
  s.peak_live_bytes = peak > 0 ? static_cast<std::uint64_t>(peak) : 0;
  return s;
}

void reset_peak_live_bytes() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  g_epoch.fetch_add(1, kRelaxed);
  g_retired.peak = g_retired.live;
}

bool memory_tracking_enabled() {
#if DYNCDN_MEM_TRACK
  return true;
#else
  return false;
#endif
}

std::uint64_t peak_rss_bytes() {
#if defined(__linux__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  // Linux reports ru_maxrss in kilobytes.
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024u;
#else
  return 0;
#endif
}

std::uint64_t current_rss_bytes() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<std::uint64_t>(resident) *
         static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
#else
  return 0;
#endif
}

}  // namespace dyncdn::obs

#if DYNCDN_MEM_TRACK

// Global allocation hooks. Each form funnels into the tracker above; sizes
// are measured via malloc_usable_size at both ends, so new/delete pairs
// balance exactly even when the sized-delete hint differs from the usable
// size.
void* operator new(std::size_t size) {
  void* p = dyncdn::obs::tracked_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  void* p = dyncdn::obs::tracked_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return dyncdn::obs::tracked_alloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return dyncdn::obs::tracked_alloc(size);
}

void* operator new(std::size_t size, std::align_val_t alignment) {
  void* p = dyncdn::obs::tracked_aligned_alloc(
      size, static_cast<std::size_t>(alignment));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size, std::align_val_t alignment) {
  void* p = dyncdn::obs::tracked_aligned_alloc(
      size, static_cast<std::size_t>(alignment));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { dyncdn::obs::tracked_free(p); }
void operator delete[](void* p) noexcept { dyncdn::obs::tracked_free(p); }
void operator delete(void* p, std::size_t) noexcept {
  dyncdn::obs::tracked_free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  dyncdn::obs::tracked_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  dyncdn::obs::tracked_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  dyncdn::obs::tracked_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  dyncdn::obs::tracked_free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  dyncdn::obs::tracked_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  dyncdn::obs::tracked_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  dyncdn::obs::tracked_free(p);
}

#endif  // DYNCDN_MEM_TRACK

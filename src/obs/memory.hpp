// Process-wide memory accounting for the campaign pipeline.
//
// Two complementary views:
//
//   * Allocation tracker — global operator new/delete replacements
//     (compiled when DYNCDN_MEM_TRACK=1, the default) count allocations,
//     frees and live bytes. Byte sizes come from malloc_usable_size, so
//     the numbers reflect what the allocator actually holds, not what was
//     requested. Each thread counts in its own block, which only it
//     writes; memory_snapshot() sums the blocks. A thread registers its
//     block on its first allocation and folds it into a retired total when
//     it exits, so joined workers still count. reset_peak_live_bytes()
//     rebases the high-water marks to the current live sizes, which lets a
//     bench isolate the peak of one phase (e.g. one campaign) inside a
//     long-lived process where RSS is monotonic.
//
//   * OS view — peak/current RSS from getrusage / /proc, for whole-process
//     reporting in BENCH.json.
//
// `allocations`, `frees` and `live_bytes` are exact sums at any thread
// count. `peak_live_bytes` is the sum of the per-thread high-water marks
// since the last reset: exact whenever one thread allocates (the others'
// live sizes stay put), as in a serial campaign, and an upper bound on
// the true process peak when several threads allocate at once. None of
// these numbers is deterministic across thread counts (allocation
// interleaving moves the peaks), so they belong in bench reports and CLI
// summaries — never in the merged experiment registries whose exports are
// compared byte-identical across thread counts. For deterministic
// accounting of the dominant campaign consumers, see
// capture::PacketTrace::retained_bytes() and
// analysis::StreamingAnalyzer::peak_live_bytes(), surfaced through
// testbed::Scenario::collect_memory_metrics().
#pragma once

#include <cstddef>
#include <cstdint>

namespace dyncdn::obs {

struct MemorySnapshot {
  std::uint64_t live_bytes = 0;       // currently allocated via new
  std::uint64_t peak_live_bytes = 0;  // sum of per-thread high-water marks
                                      // since the last reset
  std::uint64_t allocations = 0;      // cumulative operator-new calls
  std::uint64_t frees = 0;            // cumulative operator-delete calls
};

/// Current tracker counters, summed over running and exited threads. All
/// zeros when tracking is compiled out and nothing called the counters
/// below.
MemorySnapshot memory_snapshot();

/// Rebase every thread's high-water mark to its current live size.
void reset_peak_live_bytes();

/// Count one allocation / free of `bytes` on the calling thread: what the
/// allocation hooks call. Compiled in every build, so tests can drive the
/// per-thread counters where the hooks are compiled out (sanitizer
/// builds).
void count_allocation(std::size_t bytes);
void count_free(std::size_t bytes);

/// True when the allocation tracker was compiled in (DYNCDN_MEM_TRACK=1).
bool memory_tracking_enabled();

/// Process peak resident set size (VmHWM), bytes. 0 if unavailable.
std::uint64_t peak_rss_bytes();

/// Process current resident set size, bytes. 0 if unavailable.
std::uint64_t current_rss_bytes();

}  // namespace dyncdn::obs

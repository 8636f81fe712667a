// Deterministic parallel replica execution.
//
// The paper's campaigns are embarrassingly parallel: hundreds of vantage
// points, sweep points and bench repetitions, each an independent
// simulation of several milliseconds. The ReplicaExecutor runs such
// replicas on a fixed set of worker threads that take work from one shared
// counter: each worker claims the next replica index with one fetch_add
// until the index space is exhausted. A worker that draws a slow replica
// simply claims fewer, so uneven replica costs (loss sweeps, cold vs warm
// caches) balance one replica at a time without any per-worker queue.
//
// Determinism is preserved because scheduling only decides *where* a
// replica runs, never *what it computes*: replica i's body sees only its
// own index, and its result lands at slot i regardless of which worker ran
// it or in what order. The merged output stays bit-identical at any thread
// count — the equivalence tests in tests/parallel_test.cpp and
// tests/streaming_test.cpp hold at 1, 2 and 4 threads.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

namespace dyncdn::parallel {

struct ExecutorConfig {
  /// Worker count. 0 = use DYNCDN_THREADS if set, else
  /// std::thread::hardware_concurrency().
  std::size_t threads = 0;
};

/// Thread count an ExecutorConfig resolves to (env var / hardware probe
/// applied, floor of 1).
std::size_t resolve_threads(const ExecutorConfig& config);

/// Scheduling counters from the most recent run() (not part of the result
/// contract — purely observability).
struct ExecutorStats {
  std::uint64_t tasks = 0;    // replicas executed in total
  // Always 0: workers share one counter, so nothing is stolen. Kept only
  // because campaign_bench/ reads it for its parallel.steals and
  // parallel.steal_ratio rows.
  std::uint64_t steals = 0;
  std::size_t workers = 0;    // threads actually spawned (1 = inline)
  // Replicas run per worker (index = worker id) for the telemetry layer;
  // the inline path reports one pseudo-worker. Wall-clock free, but the
  // split across workers is scheduling-dependent — runtime telemetry
  // only, never part of the deterministic result contract.
  std::vector<std::uint64_t> tasks_by_worker;
};

class ReplicaExecutor {
 public:
  explicit ReplicaExecutor(ExecutorConfig config = {})
      : threads_(resolve_threads(config)) {}

  std::size_t threads() const { return threads_; }
  const ExecutorStats& last_stats() const { return stats_; }

  /// Run fn(0) .. fn(count-1), returning results in index order. With one
  /// thread (or one replica) everything runs inline on the caller — the
  /// serial path is literally the same code. Exceptions propagate: the
  /// lowest-index replica's exception is rethrown after all workers join.
  template <class Fn>
  auto run(std::size_t count, Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
    using R = std::invoke_result_t<Fn&, std::size_t>;
    static_assert(!std::is_void_v<R>,
                  "ReplicaExecutor::run requires a result per replica");

    std::vector<std::optional<R>> slots(count);
    const std::size_t workers = std::min(threads_, count);
    stats_ = ExecutorStats{};
    stats_.tasks = count;
    stats_.workers = workers > 0 ? workers : 1;

    if (workers <= 1) {
      for (std::size_t i = 0; i < count; ++i) slots[i].emplace(fn(i));
      stats_.tasks_by_worker.assign(1, count);
    } else {
      std::vector<std::exception_ptr> errors(count);
      std::vector<std::uint64_t> tasks_by_worker(workers, 0);
      std::atomic<std::size_t> next{0};
      const auto work = [&](std::size_t w) {
        std::uint64_t my_tasks = 0;
        for (std::size_t i = next.fetch_add(1); i < count;
             i = next.fetch_add(1)) {
          ++my_tasks;
          try {
            slots[i].emplace(fn(i));
          } catch (...) {
            errors[i] = std::current_exception();
          }
        }
        // Single writer per index; join() publishes to the caller.
        tasks_by_worker[w] = my_tasks;
      };
      std::vector<std::thread> pool;
      pool.reserve(workers);
      try {
        for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(work, w);
      } catch (...) {
        // Join the workers already started before their data goes away.
        for (std::thread& t : pool) t.join();
        throw;
      }
      for (std::thread& t : pool) t.join();
      stats_.tasks_by_worker = std::move(tasks_by_worker);
      for (const std::exception_ptr& e : errors) {
        if (e) std::rethrow_exception(e);
      }
    }

    std::vector<R> out;
    out.reserve(count);
    for (std::optional<R>& s : slots) out.push_back(std::move(*s));
    return out;
  }

 private:
  std::size_t threads_;
  ExecutorStats stats_;
};

}  // namespace dyncdn::parallel

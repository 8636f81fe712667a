// perf_smoke — machine-readable performance trajectory for the repo.
//
// Times the simulator's hot paths (event kernel, cancel churn, timer-churn
// wheel workload, link batch delivery, TCP bulk transfer, scattered-send
// gather) and the sharded experiment engine (queries/sec, thread-scaling
// curve) and writes everything as JSON so each future PR can diff perf
// against its predecessor:
//
//   ./perf_smoke [output.json]          quick mode (CI: the bench-smoke
//                                       ctest target runs this)
//   DYNCDN_FULL=1 ./perf_smoke          paper-scale sizes
//   DYNCDN_BENCH_JSON=path ./perf_smoke write to `path`
//   --trace-out=FILE                    Chrome trace of the serial campaign
//   --metrics-out=FILE                  Prometheus dump of its registry
//
// JSON schema: {"mode", "threads_available", "build_type" (the
// CMAKE_BUILD_TYPE it was compiled under), "event_kernel": {...
// events_per_sec}, "cancel_churn": {...}, "timer_churn": {...},
// "link_batch": {...}, "tcp_bulk": {...}, "gather_fastpath": {...},
// "obs_overhead": {...}, "telemetry": {ts_interval_ms, ticks, plain_ms,
// sampled_ms, telemetry_overhead_pct, "attribution": {queries,
// reconcile_failures, skipped, "components": {name: {count, mean, p50,
// p99, p999, min, max}}}}, "memory": {"peak_rss_bytes", "capture": {...},
// "stream": {...}, "allocs_per_query", "stream_reduction_pct"},
// "spill": {records, text_bytes, dtrc_bytes, spill_compression_x,
// encode_wall_ms, bytes_per_sec, budget_bytes, spill_blocks,
// spill_bytes_written, plain_ms, budgeted_ms, spill_overhead_pct}
// (durable-trace pipeline: .dtrc size vs the text format on the same
// headers-only captures — gated >=4x — plus the budgeted-capture
// campaign's spill overhead, ceiling-gated like telemetry),
// "experiment": {"queries",
// "serial_wall_ms", "queries_per_sec_best", "thread_scaling": [{threads,
// threads_available, oversubscribed, wall_ms, queries_per_sec,
// speedup_vs_1}], "metrics": {...}}.
// A copy also lands at <repo-root>/BENCH_latest.json (gitignored) so the
// latest numbers are always one `cat` away. See docs/PERF.md; the
// bench_diff ctest target gates these numbers against
// bench/BASELINE_quick.json via tools/bench_diff.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "capture/serialize.hpp"
#include "capture/spill.hpp"
#include "net/link.hpp"
#include "net/network.hpp"
#include "obs/export_chrome.hpp"
#include "obs/export_prometheus.hpp"
#include "obs/memory.hpp"
#include "obs/obs.hpp"
#include "parallel/replica.hpp"
#include "search/keywords.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "tcp/stack.hpp"
#include "testbed/parallel_experiment.hpp"
#include "testbed/scenario.hpp"

using namespace dyncdn;
using namespace dyncdn::sim::literals;

namespace {

double wall_ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct Rate {
  double wall_ms = 0;
  double per_sec = 0;
  std::uint64_t items = 0;
};

/// Schedule-and-fire throughput of the event kernel.
Rate bench_event_kernel(std::uint64_t events) {
  const auto start = std::chrono::steady_clock::now();
  sim::EventQueue q;
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < events; ++i) {
    q.schedule(sim::SimTime::microseconds(static_cast<std::int64_t>(i % 997)),
               [&sum, i] { sum += i; });
  }
  while (!q.empty()) q.pop_and_run();
  Rate r;
  r.wall_ms = wall_ms_since(start);
  r.items = events + (sum & 1);  // keep `sum` observable
  r.per_sec = static_cast<double>(events) / (r.wall_ms / 1000.0);
  return r;
}

/// TCP-RTO-style churn: every event is cancelled and re-armed.
Rate bench_cancel_churn(std::uint64_t rearms) {
  const auto start = std::chrono::steady_clock::now();
  sim::EventQueue q;
  sim::EventId pending;
  for (std::uint64_t i = 0; i < rearms; ++i) {
    if (pending.valid()) q.cancel(pending);
    pending = q.schedule(
        sim::SimTime::microseconds(static_cast<std::int64_t>(1000 + i)),
        [] {});
  }
  while (!q.empty()) q.pop_and_run();
  Rate r;
  r.wall_ms = wall_ms_since(start);
  r.items = rearms;
  r.per_sec = static_cast<double>(rearms) / (r.wall_ms / 1000.0);
  return r;
}

/// The cancel-churn-heavy *population* profile: thousands of concurrent
/// far-future RTO-style timers, re-armed round-robin (flows ACK in turn,
/// each re-arming its retransmit timer) 200ms..3s out while the simulated
/// clock creeps forward through interleaved near-term events. This is the
/// workload the hierarchical timing wheel targets: with a global binary
/// heap every re-arm pays an O(log n) sift through the whole timer
/// population plus dead-entry compaction; wheel entries die in place.
Rate bench_timer_churn(std::size_t timers, std::uint64_t rearms) {
  const auto start = std::chrono::steady_clock::now();
  sim::EventQueue q;
  std::uint64_t fired = 0;
  // Deterministic xorshift so baseline and optimized runs see the same
  // schedule pattern.
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  const auto rnd = [&x]() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  sim::SimTime now = sim::SimTime::zero();
  const auto rto_delay = [&rnd]() {
    return sim::SimTime::milliseconds(
        200 + static_cast<std::int64_t>(rnd() % 2800));
  };
  std::vector<sim::EventId> ids(timers);
  for (std::size_t i = 0; i < timers; ++i) {
    ids[i] = q.schedule(now + rto_delay(), [&fired] { ++fired; });
  }
  std::uint64_t pops = 0;
  for (std::uint64_t i = 0; i < rearms; ++i) {
    // ACK-burst re-arm: a flow receiving a window of ACKs re-arms its own
    // RTO several times in a row before the next flow's burst arrives.
    const std::size_t pick = static_cast<std::size_t>((i / 16) % timers);
    q.cancel(ids[pick]);
    ids[pick] = q.schedule(now + rto_delay(), [&fired] { ++fired; });
    if ((i & 255u) == 0) {
      // An ACK-like near-term event arrives and advances the clock; the
      // RTO population stays far in the future.
      q.schedule(now + 50_us, [&fired] { ++fired; });
      now = q.pop_and_run();
      ++pops;
    }
  }
  while (!q.empty()) {
    q.pop_and_run();
    ++pops;
  }
  Rate r;
  r.wall_ms = wall_ms_since(start);
  r.items = rearms + pops + (fired & 1);
  r.per_sec = static_cast<double>(r.items) / (r.wall_ms / 1000.0);
  return r;
}

/// Link-layer delivery throughput: bursts of MSS-sized packets through one
/// Link into a counting sink. Contiguous arrivals on a FIFO link are the
/// packet-train case link event coalescing batches into single deliveries.
Rate bench_link_batch(std::size_t packets) {
  const auto start = std::chrono::steady_clock::now();
  sim::Simulator simulator(7);
  net::LinkConfig cfg;
  cfg.propagation_delay = 10_ms;
  cfg.bandwidth_bps = 1e9;
  cfg.queue_capacity = 1u << 20;
  std::uint64_t delivered = 0;
  std::uint64_t bytes = 0;
  net::Link link(
      simulator, cfg,
      [&delivered, &bytes](net::PacketPtr p) {
        ++delivered;
        bytes += p->wire_size();
      },
      "bench/link-batch");
  const std::size_t kBurst = 64;
  auto payload = net::make_buffer(std::vector<std::uint8_t>(1448, 0xAB));
  const std::size_t bursts = (packets + kBurst - 1) / kBurst;
  std::size_t remaining = packets;
  for (std::size_t b = 0; b < bursts; ++b) {
    const std::size_t n = std::min(kBurst, remaining);
    remaining -= n;
    simulator.schedule_at(
        sim::SimTime::milliseconds(static_cast<std::int64_t>(b)),
        [&link, payload, n]() {
          for (std::size_t i = 0; i < n; ++i) {
            auto p = net::acquire_packet();
            p->payload = net::PayloadRef{payload, 0, payload->size()};
            link.transmit(std::move(p));
          }
        });
  }
  simulator.run();
  Rate r;
  r.wall_ms = wall_ms_since(start);
  r.items = delivered;
  r.per_sec = static_cast<double>(delivered) / (r.wall_ms / 1000.0);
  if (delivered != packets) {
    std::fprintf(stderr, "perf_smoke: link batch lost packets (%llu/%zu)\n",
                 static_cast<unsigned long long>(delivered), packets);
    std::exit(1);
  }
  return r;
}

/// Full-stack segment throughput: one bulk TCP transfer end to end. When
/// `attach_disabled_trace`, a TraceSession is attached to the simulator
/// but runtime-disabled — the configuration whose cost the zero-overhead
/// policy bounds (docs/OBSERVABILITY.md): every instrumentation site
/// reduces to one pointer load + test. `chunk_bytes` > 0 feeds the send
/// buffer in chunks of that size instead of one write, so MSS segments
/// span application writes — the scattered-send gather path.
Rate bench_tcp_bulk(std::size_t bytes, bool attach_disabled_trace = false,
                    std::size_t chunk_bytes = 0) {
  const auto start = std::chrono::steady_clock::now();
  sim::Simulator simulator(1);
  obs::TraceSession disabled_trace;
  if (attach_disabled_trace) {
    disabled_trace.set_enabled(false);
    simulator.set_trace(&disabled_trace);
  }
  net::Network network(simulator);
  net::Node& a = network.add_node("a");
  net::Node& b = network.add_node("b");
  net::LinkConfig cfg;
  cfg.propagation_delay = 10_ms;
  cfg.bandwidth_bps = 1e9;
  network.connect(a, b, cfg);
  tcp::TcpStack sa(a), sb(b);
  std::size_t received = 0;
  sb.listen(80, [&received](tcp::TcpSocket& s) {
    tcp::TcpSocket::Callbacks cb;
    cb.on_data = [&received](net::PayloadRef d) { received += d.length; };
    s.set_callbacks(std::move(cb));
  });
  tcp::TcpSocket& c = sa.connect({b.id(), 80}, {});
  auto buf = net::make_buffer(std::vector<std::uint8_t>(bytes, 0x55));
  if (chunk_bytes == 0) {
    c.send(net::PayloadRef{buf, 0, bytes});
  } else {
    for (std::size_t off = 0; off < bytes; off += chunk_bytes) {
      c.send(net::PayloadRef{buf, off, std::min(chunk_bytes, bytes - off)});
    }
  }
  c.close();
  simulator.run();
  Rate r;
  r.wall_ms = wall_ms_since(start);
  r.items = simulator.events_executed();
  r.per_sec = static_cast<double>(r.items) / (r.wall_ms / 1000.0);
  if (received != bytes) {
    std::fprintf(stderr, "perf_smoke: tcp transfer incomplete (%zu/%zu)\n",
                 received, bytes);
    std::exit(1);
  }
  return r;
}

struct ScalePoint {
  std::size_t threads = 0;
  double wall_ms = 0;
  double queries_per_sec = 0;
  bool oversubscribed = false;  // threads > cores: wall time is noise
};

/// One serial quick campaign in the given analysis mode, with the
/// allocation tracker's high-water mark rebased first so the phase's peak
/// is isolated (process RSS is monotonic and useless for an in-process
/// A/B). Returns tracked + deterministic byte accounting.
struct MemoryPhase {
  std::uint64_t peak_live_delta_bytes = 0;  // tracker, whole phase
  std::uint64_t allocations = 0;            // tracker, whole phase
  std::int64_t retained_bytes_peak = 0;     // deterministic capture gauge
  std::int64_t analyzer_bytes_peak = 0;     // deterministic streaming gauge
  std::uint64_t timelines_online = 0;
  std::uint64_t late_packets = 0;
};

/// run_fixed_fe_experiment(sc, 0, eo) on a warmed-up scenario, timing
/// ONLY the campaign (run_experiment_subset): the boundary probe, which
/// builds, warms and runs a probe scenario of its own (discover_boundary),
/// runs before the clock starts, as a replica campaign's runs before its
/// replicas.
testbed::ExperimentResult run_campaign_timed(
    testbed::Scenario& sc, const testbed::ExperimentOptions& eo,
    double& wall_ms) {
  const std::size_t boundary = testbed::discover_boundary(sc, 0, 0);
  std::vector<std::size_t> all(sc.clients().size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  const auto start = std::chrono::steady_clock::now();
  testbed::ExperimentResult result = testbed::run_experiment_subset(
      sc, eo, all, [](std::size_t) { return std::size_t{0}; }, boundary);
  wall_ms = wall_ms_since(start);
  return result;
}

/// One serial campaign with the 100ms sim-time sampler on or off, timing
/// ONLY the campaign: scenario construction, warm-up and the boundary
/// probe stay outside the clock, since they are identical on both sides
/// and their allocation noise would drown the per-tick sampling cost the
/// telemetry overhead gate compares.
double bench_campaign_wall_ms(const testbed::ScenarioOptions& base,
                              const testbed::ExperimentOptions& eo,
                              bool sampled) {
  testbed::ScenarioOptions so = base;
  so.enable_tracing = false;
  so.ts_interval =
      sampled ? sim::SimTime::milliseconds(100) : sim::SimTime::zero();
  testbed::Scenario sc(so);
  sc.warm_up();
  double wall_ms = 0;
  run_campaign_timed(sc, eo, wall_ms);
  return wall_ms;
}

MemoryPhase bench_campaign_memory(const testbed::ScenarioOptions& base,
                                  const testbed::ExperimentOptions& eo,
                                  bool streaming) {
  testbed::ScenarioOptions so = base;
  so.stream_analysis = streaming;
  so.enable_tracing = false;

  obs::reset_peak_live_bytes();
  const obs::MemorySnapshot before = obs::memory_snapshot();
  obs::MetricsRegistry mem;
  {
    testbed::Scenario scenario(so);
    scenario.warm_up();
    testbed::run_fixed_fe_experiment(scenario, 0, eo);
    scenario.collect_memory_metrics(mem);
  }
  const obs::MemorySnapshot after = obs::memory_snapshot();

  MemoryPhase phase;
  if (obs::memory_tracking_enabled()) {
    phase.peak_live_delta_bytes = after.peak_live_bytes - before.live_bytes;
    phase.allocations = after.allocations - before.allocations;
  }
  for (const auto& [name, value] : mem.gauges()) {
    if (name == "capture_retained_bytes_peak") phase.retained_bytes_peak = value;
    if (name == "analyzer_live_bytes_peak") phase.analyzer_bytes_peak = value;
  }
  for (const auto& [name, value] : mem.counters()) {
    if (name == "stream_timelines_online") phase.timelines_online = value;
    if (name == "stream_late_packets") phase.late_packets = value;
  }
  return phase;
}

/// Durable-trace pipeline costs: how compact the block-columnar .dtrc
/// encoding is versus the text format, and how fast it encodes.
struct SpillPhase {
  std::uint64_t records = 0;
  std::uint64_t text_bytes = 0;  // headers-only text serialization
  std::uint64_t dtrc_bytes = 0;  // same captures as .dtrc files
  double compression_x = 0;      // text_bytes / dtrc_bytes
  double encode_wall_ms = 0;     // one encode pass over every capture
  double bytes_per_sec = 0;      // logical (text) bytes encoded per second
};

/// Runs the quick campaign in full-capture mode with queries driven by
/// hand — run_fixed_fe_experiment clears each recorder after analysis, so
/// the capture would be gone before it could be serialized — then encodes
/// every client capture both ways. Sizes are deterministic (the campaign
/// is); only encode_wall_ms varies, measured best-of over `passes` with
/// `iters` encodes per pass to stretch the sample past timer resolution.
SpillPhase bench_spill_encode(const testbed::ScenarioOptions& base,
                              int passes, int iters) {
  namespace fs = std::filesystem;
  testbed::ScenarioOptions so = base;
  so.stream_analysis = false;  // retain packets
  so.enable_tracing = false;
  so.ts_interval = sim::SimTime::zero();
  testbed::Scenario sc(so);
  sc.warm_up();
  const net::Endpoint fe = sc.fe_endpoint(0);
  const search::KeywordCatalog catalog(5);
  const auto keywords = catalog.distinct_corpus(4);
  for (std::size_t i = 0; i < sc.clients().size(); ++i) {
    sc.connect_client_to_fe(i, 0);
  }
  for (std::size_t i = 0; i < sc.clients().size(); ++i) {
    auto& client = sc.clients()[i];
    sim::SimTime at = sim::SimTime::milliseconds(
        static_cast<std::int64_t>(100 * i));
    for (const search::Keyword& kw : keywords) {
      client.node->simulator().schedule_in(at, [&client, fe, kw]() {
        client.query_client->submit(fe, kw, [](const cdn::QueryResult&) {});
      });
      at = at + sim::SimTime::milliseconds(1500);
    }
  }
  sc.run();

  SpillPhase phase;
  const fs::path dir = fs::temp_directory_path() / "dyncdn-bench-spill";
  fs::create_directories(dir);
  std::vector<const capture::PacketTrace*> traces;
  for (const auto& client : sc.clients()) {
    const capture::PacketTrace& trace = client.recorder->trace();
    traces.push_back(&trace);
    phase.records += trace.size();
    phase.text_bytes +=
        capture::serialize_trace(trace, /*with_payloads=*/false).size();
  }
  const fs::path scratch = dir / "capture.dtrc";
  for (int pass = 0; pass < passes; ++pass) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      for (const capture::PacketTrace* trace : traces) {
        capture::save_trace_dtrc(*trace, scratch.string());
      }
    }
    const double ms = wall_ms_since(start) / iters;
    if (pass == 0 || ms < phase.encode_wall_ms) phase.encode_wall_ms = ms;
  }
  int ci = 0;
  for (const capture::PacketTrace* trace : traces) {
    const fs::path per = dir / ("capture-" + std::to_string(ci++) + ".dtrc");
    capture::save_trace_dtrc(*trace, per.string());
    phase.dtrc_bytes += fs::file_size(per);
  }
  fs::remove_all(dir);
  phase.compression_x =
      phase.dtrc_bytes > 0 ? static_cast<double>(phase.text_bytes) /
                                 static_cast<double>(phase.dtrc_bytes)
                           : 0.0;
  phase.bytes_per_sec = static_cast<double>(phase.text_bytes) /
                        (phase.encode_wall_ms / 1000.0);
  return phase;
}

/// One full-capture campaign with the given spill budget (0 = spilling
/// off), timing only the campaign — the telemetry-gate discipline.
/// Returns the wall time plus the run's spill counters so the caller can
/// assert the budgeted side actually spilled mid-campaign.
struct SpillCampaignRun {
  double wall_ms = 0;
  std::uint64_t spill_blocks = 0;
  std::uint64_t spill_bytes = 0;
};

SpillCampaignRun bench_spill_campaign(const testbed::ScenarioOptions& base,
                                      const testbed::ExperimentOptions& eo,
                                      std::size_t budget) {
  testbed::ScenarioOptions so = base;
  so.stream_analysis = false;  // spilling rides on packet retention
  so.enable_tracing = false;
  so.ts_interval = sim::SimTime::zero();
  so.capture_budget = budget;
  testbed::Scenario sc(so);
  sc.warm_up();
  SpillCampaignRun run;
  const testbed::ExperimentResult result =
      run_campaign_timed(sc, eo, run.wall_ms);
  run.spill_blocks = result.metrics.counter("spill_blocks");
  run.spill_bytes = result.metrics.counter("spill_bytes_written");
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = bench::full_scale();
  const std::uint64_t kernel_events = full ? 4'000'000 : 400'000;
  const std::uint64_t churn_rearms = full ? 2'000'000 : 200'000;
  // Production-scale RTO population: hundreds of thousands of concurrent
  // connections, each with one pending retransmission timer. At this size
  // the final drain dominates a global binary heap (deep sift-downs over
  // cold memory) while the timing wheel flushes buckets in near order.
  const std::size_t churn_timers = 262144;
  const std::uint64_t timer_churn_rearms = full ? 2'000'000 : 400'000;
  const std::size_t batch_packets = full ? 400'000 : 100'000;
  const std::size_t tcp_bytes = full ? 4'000'000 : 1'000'000;
  const std::size_t gather_bytes = full ? 2'000'000 : 1'000'000;
  const std::size_t gather_chunk = 256;
  const std::size_t clients = full ? 24 : 8;
  const std::size_t reps = full ? 10 : 4;

  std::string out_path = "BENCH.json";
  std::string trace_out, metrics_out;
  if (const char* env = std::getenv("DYNCDN_BENCH_JSON")) out_path = env;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--trace-out=")) {
      trace_out = arg.substr(12);
    } else if (arg.starts_with("--metrics-out=")) {
      metrics_out = arg.substr(14);
    } else {
      out_path = argv[i];
    }
  }

  bench::banner("perf_smoke — hot-path micro-benchmarks",
                std::string("mode: ") + (full ? "full" : "quick") +
                    ", output: " + out_path);

  // Every gated section reports best-of-3 in quick mode: single-pass
  // numbers on a shared CI box swing ±15% with whatever ran a moment ago,
  // which is wider than the 10% gate. Best-of converges on the machine's
  // actual capability, so baseline and candidate meet on stable ground.
  // Full-mode sections run long enough to be stable single-pass.
  const int section_passes = full ? 1 : 3;
  const auto best_of = [section_passes](auto&& fn) {
    Rate best = fn();
    for (int i = 1; i < section_passes; ++i) {
      const Rate r = fn();
      if (r.wall_ms < best.wall_ms) best = r;
    }
    return best;
  };

  const Rate kernel = best_of([&] { return bench_event_kernel(kernel_events); });
  std::printf("event kernel:   %10.0f events/sec (%.1f ms)\n", kernel.per_sec,
              kernel.wall_ms);
  const Rate churn = best_of([&] { return bench_cancel_churn(churn_rearms); });
  std::printf("cancel churn:   %10.0f re-arms/sec (%.1f ms)\n", churn.per_sec,
              churn.wall_ms);
  const Rate timer_churn = best_of(
      [&] { return bench_timer_churn(churn_timers, timer_churn_rearms); });
  std::printf("timer churn:    %10.0f events/sec (%.1f ms, %zu live timers)\n",
              timer_churn.per_sec, timer_churn.wall_ms, churn_timers);
  const Rate link_batch = best_of([&] { return bench_link_batch(batch_packets); });
  std::printf("link batch:     %10.0f packets/sec (%.1f ms)\n",
              link_batch.per_sec, link_batch.wall_ms);
  const Rate tcp = best_of([&] { return bench_tcp_bulk(tcp_bytes); });
  std::printf("tcp bulk:       %10.0f bytes/sec (%.1f ms, %llu events)\n",
              static_cast<double>(tcp_bytes) / (tcp.wall_ms / 1000.0),
              tcp.wall_ms, static_cast<unsigned long long>(tcp.items));
  const Rate gather =
      best_of([&] { return bench_tcp_bulk(gather_bytes, false, gather_chunk); });
  const double gather_bytes_per_sec =
      static_cast<double>(gather_bytes) / (gather.wall_ms / 1000.0);
  std::printf("gather fast:    %10.0f bytes/sec (%.1f ms, %zuB chunks)\n",
              gather_bytes_per_sec, gather.wall_ms, gather_chunk);

  // Zero-overhead policy check: the same transfer with a runtime-disabled
  // TraceSession attached. Interleaved best-of-5 *pairs* after a shared
  // warm-up pair, so allocator/cache warm-up and CPU-frequency drift hit
  // both sides equally — a one-sided ordering here once produced a
  // nonsensical negative overhead. The transfer is deliberately larger
  // than the throughput bench: sub-millisecond samples put timer
  // resolution in the same order as the effect being measured. The 1%
  // target (docs/OBSERVABILITY.md) is reported, but only a gross
  // regression (>10%) fails the bench — wall-clock noise on shared CI
  // machines exceeds 1% routinely.
  const std::size_t obs_bytes = full ? 8'000'000 : 4'000'000;
  double plain_ms = 1e300, traced_ms = 1e300;
  bench_tcp_bulk(obs_bytes, false);  // warm-up pair, discarded
  bench_tcp_bulk(obs_bytes, true);
  for (int i = 0; i < 5; ++i) {
    plain_ms = std::min(plain_ms, bench_tcp_bulk(obs_bytes, false).wall_ms);
    traced_ms = std::min(traced_ms, bench_tcp_bulk(obs_bytes, true).wall_ms);
  }
  const double overhead_pct = (traced_ms - plain_ms) / plain_ms * 100.0;
  std::printf("obs overhead:   %+10.2f %% (tracing attached but disabled; "
              "target <1%%)\n",
              overhead_pct);
  if (overhead_pct > 1.0) {
    std::fprintf(stderr,
                 "perf_smoke: warning: disabled-tracing overhead %.2f%% "
                 "exceeds the 1%% target\n",
                 overhead_pct);
  }
  if (overhead_pct > 10.0) {
    std::fprintf(stderr,
                 "perf_smoke: disabled-tracing overhead %.2f%% exceeds the "
                 "10%% hard limit\n",
                 overhead_pct);
    return 1;
  }

  // Experiment engine: a fixed-FE campaign sharded one-replica-per-vantage-
  // point over the replica executor; wall time per thread count gives
  // the scaling curve. Runs the streaming (online-analysis) pipeline — the
  // product default; results are byte-identical to capture mode.
  testbed::ScenarioOptions scenario;
  scenario.profile = cdn::google_like_profile();
  scenario.client_count = clients;
  scenario.seed = 4242;
  scenario.stream_analysis = true;
  scenario.enable_tracing = !trace_out.empty();
  testbed::ExperimentOptions eo;
  eo.reps_per_node = reps;
  eo.interval = 900_ms;
  search::KeywordCatalog catalog(5);
  eo.keywords = {catalog.figure3_keywords().front()};

  const std::size_t hw = std::max<std::size_t>(
      1, std::thread::hardware_concurrency());
  // Quick mode always records {1, 2, 4} so BENCH.json captures the
  // parallel-engine trend across PRs even on small CI boxes (replicas are
  // independent; oversubscribing cores is harmless and still
  // deterministic). Oversubscribed rows (threads > cores) are flagged and
  // excluded from the gated queries_per_sec_best — on a 1-core runner the
  // 2- and 4-thread rows measure context-switch overhead, not the
  // scheduler, and once read as 0.85x "regressions". Full mode
  // additionally climbs to 8 when cores allow.
  std::vector<std::size_t> thread_counts{1, 2, 4};
  if (full && hw >= 8) thread_counts.push_back(8);

  std::vector<ScalePoint> scaling;
  std::size_t queries = 0;
  obs::MetricsRegistry campaign_metrics;
  // Quick campaigns finish in tens of milliseconds, so a single pass is
  // at the mercy of whatever the machine was doing a moment ago (the gate
  // once tripped at -17% right after a 500-test ctest sweep). Best-of-3
  // like obs_overhead: the run is deterministic, only the clock varies.
  const int passes = full ? 1 : 3;
  for (const std::size_t threads : thread_counts) {
    testbed::ReplicaPlan plan;  // default: one shard per vantage point
    plan.executor.threads = threads;
    ScalePoint p;
    p.threads = threads;
    p.wall_ms = 0;
    testbed::ExperimentResult result;
    for (int pass = 0; pass < passes; ++pass) {
      const auto start = std::chrono::steady_clock::now();
      result = testbed::run_fixed_fe_experiment(scenario, 0, eo, plan);
      const double ms = wall_ms_since(start);
      if (pass == 0 || ms < p.wall_ms) p.wall_ms = ms;
    }
    p.oversubscribed = threads > hw;
    queries = result.all().size();
    p.queries_per_sec = static_cast<double>(queries) / (p.wall_ms / 1000.0);
    scaling.push_back(p);
    std::printf("experiment:     %zu threads -> %8.1f ms (%zu queries, "
                "%.0f queries/sec)%s\n",
                threads, p.wall_ms, queries, p.queries_per_sec,
                p.oversubscribed ? " [oversubscribed]" : "");
    if (threads == thread_counts.front()) {
      // Snapshot from the serial run; merged registries are bit-identical
      // at every thread count anyway (tests/parallel_test.cpp proves it).
      campaign_metrics = result.metrics;
      if (!trace_out.empty() && result.trace) {
        obs::write_chrome_trace(*result.trace, trace_out);
        std::printf("[chrome trace written: %s]\n", trace_out.c_str());
      }
    }
  }
  if (!metrics_out.empty()) {
    obs::write_prometheus(campaign_metrics, metrics_out);
    std::printf("[metrics written: %s]\n", metrics_out.c_str());
  }

  // Time-resolved telemetry cost: the same serial campaign with the 100ms
  // sim-time sampler on versus off, measured with the obs_overhead
  // discipline (interleaved warm-up pair, then interleaved best-of pairs,
  // so allocator warm-up and CPU-frequency drift hit both sides equally).
  // The quick campaign runs in single-digit milliseconds, so the rep count
  // is raised to stretch each timed sample well past timer resolution —
  // the same reasoning as obs_overhead's enlarged transfer. The <1%
  // observability target is reported; as with obs_overhead only a gross
  // regression (>10%) fails — CI wall-clock noise exceeds 1%.
  testbed::ExperimentOptions telem_eo = eo;
  telem_eo.reps_per_node = full ? reps : reps * 20;
  const int telem_pairs = full ? 1 : 5;
  double telem_plain_ms = 1e300, telem_sampled_ms = 1e300;
  bench_campaign_wall_ms(scenario, telem_eo, false);  // warm-up, discarded
  bench_campaign_wall_ms(scenario, telem_eo, true);
  for (int i = 0; i < telem_pairs; ++i) {
    telem_plain_ms = std::min(telem_plain_ms,
                              bench_campaign_wall_ms(scenario, telem_eo, false));
    telem_sampled_ms = std::min(
        telem_sampled_ms, bench_campaign_wall_ms(scenario, telem_eo, true));
  }
  const double telemetry_overhead_pct =
      (telem_sampled_ms - telem_plain_ms) / telem_plain_ms * 100.0;
  std::printf("telemetry:      %+10.2f %% (100ms sim-time sampler; "
              "target <1%%)\n",
              telemetry_overhead_pct);
  if (telemetry_overhead_pct > 1.0) {
    std::fprintf(stderr,
                 "perf_smoke: warning: time-series sampling overhead %.2f%% "
                 "exceeds the 1%% target\n",
                 telemetry_overhead_pct);
  }
  if (telemetry_overhead_pct > 10.0) {
    std::fprintf(stderr,
                 "perf_smoke: time-series sampling overhead %.2f%% exceeds "
                 "the 10%% hard limit\n",
                 telemetry_overhead_pct);
    return 1;
  }

  // Attribution reducer over a traced run of the same campaign: the
  // per-component percentiles land in BENCH.json, and any query that
  // violates the exact telescoping identity (components sum != T_dynamic
  // in integer nanoseconds) fails the bench outright — the values are
  // sim-time derived and deterministic, so a failure is a real bug, not
  // noise.
  testbed::ScenarioOptions attr_so = scenario;
  attr_so.enable_tracing = true;
  attr_so.ts_interval = sim::SimTime::milliseconds(100);
  testbed::Scenario attr_sc(attr_so);
  attr_sc.warm_up();
  const testbed::ExperimentResult attr_result =
      testbed::run_fixed_fe_experiment(attr_sc, 0, eo);
  const obs::QueryAttribution& attr = attr_result.attribution;
  {
    const obs::Histogram* td =
        attr.registry().histogram("attr_t_dynamic_ms");
    std::printf("attribution:    %llu queries (%llu skipped, %zu ts ticks), "
                "t_dynamic p50 %.2f ms p99 %.2f ms\n",
                static_cast<unsigned long long>(attr.queries()),
                static_cast<unsigned long long>(attr.skipped()),
                attr_result.timeseries.sample_count(),
                td != nullptr ? td->quantile(0.50) : 0.0,
                td != nullptr ? td->quantile(0.99) : 0.0);
  }
  if (attr.reconcile_failures() > 0) {
    std::fprintf(stderr,
                 "perf_smoke: %llu queries failed attribution "
                 "reconciliation (component sums != T_dynamic)\n",
                 static_cast<unsigned long long>(attr.reconcile_failures()));
    return 1;
  }
  // The traced campaign must decompose every analyzed query; silently
  // attributing zero queries would make the reconciliation gate vacuous.
  if (attr.queries() == 0) {
    std::fprintf(stderr, "perf_smoke: attribution decomposed 0 queries\n");
    return 1;
  }

  // queries_per_sec at the best *measured* (non-oversubscribed) thread
  // count — the scalar bench_diff gates. Oversubscribed rows stay in the
  // JSON for the trend but never gate.
  double qps_best = 0;
  std::size_t qps_best_threads = 1;
  for (const ScalePoint& p : scaling) {
    if (!p.oversubscribed && p.queries_per_sec > qps_best) {
      qps_best = p.queries_per_sec;
      qps_best_threads = p.threads;
    }
  }

  // Memory A/B: the same serial quick campaign with streaming analysis
  // versus full capture retention. Streaming runs first so the capture
  // run's larger footprint cannot pre-warm the allocator in its favor.
  const MemoryPhase mem_stream = bench_campaign_memory(scenario, eo, true);
  const MemoryPhase mem_capture = bench_campaign_memory(scenario, eo, false);
  // Gated reduction: deterministic byte accounting of what each pipeline
  // holds at its peak (capture: retained PacketRecords + payloads;
  // streaming: per-flow analyzer state). Allocator/thread-count
  // independent, so it gates cleanly; the tracked allocator delta is
  // reported alongside as the whole-process view.
  const double stream_reduction_pct =
      mem_capture.retained_bytes_peak > 0
          ? (1.0 - static_cast<double>(mem_stream.analyzer_bytes_peak) /
                       static_cast<double>(mem_capture.retained_bytes_peak)) *
                100.0
          : 0.0;
  const double tracked_reduction_pct =
      mem_capture.peak_live_delta_bytes > 0
          ? (1.0 - static_cast<double>(mem_stream.peak_live_delta_bytes) /
                       static_cast<double>(mem_capture.peak_live_delta_bytes)) *
                100.0
          : 0.0;
  // Heap-allocation intensity of the default (streaming) pipeline. The
  // campaign is deterministic, so under DYNCDN_MEM_TRACK=1 this count is
  // exactly reproducible and bench_diff gates it as lower-is-better; with
  // tracking off it reports 0 and never gates.
  const double allocs_per_query =
      queries > 0
          ? static_cast<double>(mem_stream.allocations) /
                static_cast<double>(queries)
          : 0.0;
  std::printf("memory:         capture %.1f KB peak vs stream %.1f KB peak "
              "(%.1f%% lower; tracked delta %.1f%%)\n",
              static_cast<double>(mem_capture.retained_bytes_peak) / 1024.0,
              static_cast<double>(mem_stream.analyzer_bytes_peak) / 1024.0,
              stream_reduction_pct, tracked_reduction_pct);
  if (obs::memory_tracking_enabled()) {
    std::printf("allocations:    %10.1f allocs/query (%llu allocs, "
                "%zu queries, streaming pipeline)\n",
                allocs_per_query,
                static_cast<unsigned long long>(mem_stream.allocations),
                queries);
  }
  if (mem_stream.late_packets != 0) {
    std::fprintf(stderr,
                 "perf_smoke: streaming analyzer saw %llu late packets "
                 "(stream/capture results may diverge)\n",
                 static_cast<unsigned long long>(mem_stream.late_packets));
    return 1;
  }

  // Durable traces: the block-columnar .dtrc encoding versus the text
  // serialization of the same headers-only quick-campaign captures. Both
  // sizes are deterministic, so the >=4x ratio is a hard gate, not a
  // noise-tolerant one; encode throughput is reported best-of like every
  // other timed section.
  const SpillPhase spill = bench_spill_encode(
      scenario, section_passes, full ? 4 : 16);
  std::printf("spill encode:   %10.0f bytes/sec (%.2f ms, %llu records, "
              "%.1f KB text -> %.1f KB dtrc, %.1fx)\n",
              spill.bytes_per_sec, spill.encode_wall_ms,
              static_cast<unsigned long long>(spill.records),
              static_cast<double>(spill.text_bytes) / 1024.0,
              static_cast<double>(spill.dtrc_bytes) / 1024.0,
              spill.compression_x);
  if (spill.compression_x < 4.0) {
    std::fprintf(stderr,
                 "perf_smoke: .dtrc compression %.2fx is below the 4x "
                 "floor (text %llu bytes, dtrc %llu bytes)\n",
                 spill.compression_x,
                 static_cast<unsigned long long>(spill.text_bytes),
                 static_cast<unsigned long long>(spill.dtrc_bytes));
    return 1;
  }

  // Spill overhead: the full-capture campaign with the budget forced low
  // enough that every client spills mid-run, against the identical
  // campaign with spilling off. Measured with the telemetry-gate
  // discipline (interleaved warm-up pair, then interleaved best-of pairs;
  // raised rep count so each sample clears timer resolution). <1% is the
  // target; the hard limit is 20% rather than the in-memory sections'
  // 10% because spilling does real disk I/O — its wall-clock share swings
  // much more under concurrent CI load (typical idle readings are 3-5%).
  const std::size_t spill_budget = 64u << 10;
  double spill_plain_ms = 1e300, spill_budgeted_ms = 1e300;
  bench_spill_campaign(scenario, telem_eo, 0);  // warm-up pair, discarded
  const SpillCampaignRun spill_probe =
      bench_spill_campaign(scenario, telem_eo, spill_budget);
  if (spill_probe.spill_blocks == 0) {
    std::fprintf(stderr,
                 "perf_smoke: %zu-byte budget produced no spills — the "
                 "overhead A/B would be vacuous\n",
                 spill_budget);
    return 1;
  }
  for (int i = 0; i < telem_pairs; ++i) {
    spill_plain_ms = std::min(
        spill_plain_ms, bench_spill_campaign(scenario, telem_eo, 0).wall_ms);
    spill_budgeted_ms = std::min(
        spill_budgeted_ms,
        bench_spill_campaign(scenario, telem_eo, spill_budget).wall_ms);
  }
  const double spill_overhead_pct =
      (spill_budgeted_ms - spill_plain_ms) / spill_plain_ms * 100.0;
  std::printf("spill overhead: %+10.2f %% (%zuK budget, %llu blocks, "
              "%.1f KB spilled; target <1%%)\n",
              spill_overhead_pct, spill_budget >> 10,
              static_cast<unsigned long long>(spill_probe.spill_blocks),
              static_cast<double>(spill_probe.spill_bytes) / 1024.0);
  if (spill_overhead_pct > 1.0) {
    std::fprintf(stderr,
                 "perf_smoke: warning: spill overhead %.2f%% exceeds the "
                 "1%% target\n",
                 spill_overhead_pct);
  }
  if (spill_overhead_pct > 20.0) {
    std::fprintf(stderr,
                 "perf_smoke: spill overhead %.2f%% exceeds the 20%% hard "
                 "limit\n",
                 spill_overhead_pct);
    return 1;
  }

  std::string json;
  char line[512];
  const auto emit = [&json, &line](auto... args) {
    std::snprintf(line, sizeof(line), args...);
    json += line;
  };
  emit("{\n");
  emit("  \"mode\": \"%s\",\n", full ? "full" : "quick");
  emit("  \"threads_available\": %zu,\n", hw);
  emit("  \"build_type\": \"%s\",\n", DYNCDN_BUILD_TYPE);
  emit("  \"event_kernel\": {\"events\": %llu, \"wall_ms\": %.3f, "
       "\"events_per_sec\": %.0f},\n",
       static_cast<unsigned long long>(kernel_events), kernel.wall_ms,
       kernel.per_sec);
  emit("  \"cancel_churn\": {\"rearms\": %llu, \"wall_ms\": %.3f, "
       "\"rearms_per_sec\": %.0f},\n",
       static_cast<unsigned long long>(churn_rearms), churn.wall_ms,
       churn.per_sec);
  emit("  \"timer_churn\": {\"timers\": %zu, \"rearms\": %llu, "
       "\"ops\": %llu, \"wall_ms\": %.3f, \"events_per_sec\": %.0f},\n",
       churn_timers, static_cast<unsigned long long>(timer_churn_rearms),
       static_cast<unsigned long long>(timer_churn.items),
       timer_churn.wall_ms, timer_churn.per_sec);
  emit("  \"link_batch\": {\"packets\": %zu, \"wall_ms\": %.3f, "
       "\"packets_per_sec\": %.0f},\n",
       batch_packets, link_batch.wall_ms, link_batch.per_sec);
  // Gated on payload throughput, not events/sec: link delivery coalescing
  // collapses a windowful of per-packet events into one train drain, so
  // the event count is no longer proportional to work done.
  emit("  \"tcp_bulk\": {\"bytes\": %zu, \"sim_events\": %llu, "
       "\"wall_ms\": %.3f, \"bytes_per_sec\": %.0f},\n",
       tcp_bytes, static_cast<unsigned long long>(tcp.items), tcp.wall_ms,
       static_cast<double>(tcp_bytes) / (tcp.wall_ms / 1000.0));
  emit("  \"gather_fastpath\": {\"bytes\": %zu, \"chunk_bytes\": %zu, "
       "\"sim_events\": %llu, \"wall_ms\": %.3f, \"bytes_per_sec\": "
       "%.0f},\n",
       gather_bytes, gather_chunk,
       static_cast<unsigned long long>(gather.items), gather.wall_ms,
       gather_bytes_per_sec);
  emit("  \"obs_overhead\": {\"bytes\": %zu, \"plain_ms\": %.3f, "
       "\"disabled_trace_ms\": %.3f, \"overhead_pct\": %.3f, "
       "\"target_pct\": 1.0, \"hard_limit_pct\": 10.0},\n",
       obs_bytes, plain_ms, traced_ms, overhead_pct);
  emit("  \"telemetry\": {\"ts_interval_ms\": 100.0, \"ticks\": %zu, "
       "\"plain_ms\": %.3f, \"sampled_ms\": %.3f, "
       "\"telemetry_overhead_pct\": %.3f, \"target_pct\": 1.0, "
       "\"hard_limit_pct\": 10.0,\n",
       attr_result.timeseries.sample_count(), telem_plain_ms,
       telem_sampled_ms, telemetry_overhead_pct);
  // attribution JSON can exceed the snprintf line buffer; append directly.
  json += "    \"attribution\": ";
  json += attr.to_json();
  json += "},\n";
  emit("  \"memory\": {\n");
  emit("    \"tracking\": %s,\n",
       obs::memory_tracking_enabled() ? "true" : "false");
  emit("    \"peak_rss_bytes\": %llu,\n",
       static_cast<unsigned long long>(obs::peak_rss_bytes()));
  emit("    \"capture\": {\"retained_bytes_peak\": %lld, "
       "\"peak_live_delta_bytes\": %llu, \"allocations\": %llu},\n",
       static_cast<long long>(mem_capture.retained_bytes_peak),
       static_cast<unsigned long long>(mem_capture.peak_live_delta_bytes),
       static_cast<unsigned long long>(mem_capture.allocations));
  emit("    \"stream\": {\"analyzer_bytes_peak\": %lld, "
       "\"peak_live_delta_bytes\": %llu, \"allocations\": %llu, "
       "\"timelines_online\": %llu, \"late_packets\": %llu},\n",
       static_cast<long long>(mem_stream.analyzer_bytes_peak),
       static_cast<unsigned long long>(mem_stream.peak_live_delta_bytes),
       static_cast<unsigned long long>(mem_stream.allocations),
       static_cast<unsigned long long>(mem_stream.timelines_online),
       static_cast<unsigned long long>(mem_stream.late_packets));
  emit("    \"allocs_per_query\": %.2f,\n", allocs_per_query);
  emit("    \"stream_reduction_pct\": %.2f,\n", stream_reduction_pct);
  emit("    \"tracked_reduction_pct\": %.2f\n", tracked_reduction_pct);
  emit("  },\n");
  emit("  \"spill\": {\"records\": %llu, \"text_bytes\": %llu, "
       "\"dtrc_bytes\": %llu, \"spill_compression_x\": %.2f, "
       "\"min_compression_x\": 4.0, \"encode_wall_ms\": %.3f, "
       "\"bytes_per_sec\": %.0f,\n",
       static_cast<unsigned long long>(spill.records),
       static_cast<unsigned long long>(spill.text_bytes),
       static_cast<unsigned long long>(spill.dtrc_bytes),
       spill.compression_x, spill.encode_wall_ms, spill.bytes_per_sec);
  emit("    \"budget_bytes\": %zu, \"spill_blocks\": %llu, "
       "\"spill_bytes_written\": %llu, \"plain_ms\": %.3f, "
       "\"budgeted_ms\": %.3f, \"spill_overhead_pct\": %.3f, "
       "\"target_pct\": 1.0, \"hard_limit_pct\": 20.0},\n",
       spill_budget,
       static_cast<unsigned long long>(spill_probe.spill_blocks),
       static_cast<unsigned long long>(spill_probe.spill_bytes),
       spill_plain_ms, spill_budgeted_ms, spill_overhead_pct);
  emit("  \"experiment\": {\n");
  emit("    \"vantage_points\": %zu,\n", clients);
  emit("    \"queries\": %zu,\n", queries);
  emit("    \"serial_wall_ms\": %.3f,\n", scaling.front().wall_ms);
  emit("    \"queries_per_sec_serial\": %.1f,\n",
       static_cast<double>(queries) / (scaling.front().wall_ms / 1000.0));
  emit("    \"queries_per_sec_best\": %.1f,\n", qps_best);
  emit("    \"best_threads\": %zu,\n", qps_best_threads);
  emit("    \"thread_scaling\": [\n");
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    emit("      {\"threads\": %zu, \"threads_available\": %zu, "
         "\"oversubscribed\": %s, \"wall_ms\": %.3f, "
         "\"queries_per_sec\": %.1f, \"speedup_vs_1\": %.3f}%s\n",
         scaling[i].threads, hw, scaling[i].oversubscribed ? "true" : "false",
         scaling[i].wall_ms, scaling[i].queries_per_sec,
         scaling.front().wall_ms / scaling[i].wall_ms,
         i + 1 < scaling.size() ? "," : "");
  }
  emit("    ],\n");
  // Metrics snapshot of the serial campaign: counters and gauges verbatim,
  // histograms reduced to count/sum/p50.
  emit("    \"metrics\": {\n");
  {
    std::vector<std::string> entries;
    for (const auto& [name, value] : campaign_metrics.counters()) {
      std::snprintf(line, sizeof(line), "      \"%s\": %llu", name.c_str(),
                    static_cast<unsigned long long>(value));
      entries.push_back(line);
    }
    for (const auto& [name, value] : campaign_metrics.gauges()) {
      std::snprintf(line, sizeof(line), "      \"%s\": %lld", name.c_str(),
                    static_cast<long long>(value));
      entries.push_back(line);
    }
    for (const auto& [name, h] : campaign_metrics.histograms()) {
      std::snprintf(line, sizeof(line),
                    "      \"%s\": {\"count\": %llu, \"sum\": %.6f, "
                    "\"p50\": %.6f}",
                    name.c_str(),
                    static_cast<unsigned long long>(h.count()), h.sum(),
                    h.quantile(0.5));
      entries.push_back(line);
    }
    for (std::size_t i = 0; i < entries.size(); ++i) {
      json += entries[i];
      json += i + 1 < entries.size() ? ",\n" : "\n";
    }
  }
  emit("    }\n");
  emit("  }\n");
  emit("}\n");

  const auto write_file = [&json](const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "perf_smoke: cannot open %s\n", path.c_str());
      return false;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    return true;
  };
  if (!write_file(out_path)) return 1;
  std::printf("\n[bench json written: %s]\n", out_path.c_str());
  // Convenience copy at the repo root (gitignored via BENCH*.json) so the
  // latest numbers survive `rm -rf build`.
#ifdef DYNCDN_REPO_ROOT
  const std::string latest = std::string(DYNCDN_REPO_ROOT) +
                             "/BENCH_latest.json";
  if (latest != out_path && write_file(latest)) {
    std::printf("[bench json copied: %s]\n", latest.c_str());
  }
#endif
  return 0;
}

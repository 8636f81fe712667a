// Experiment runners: drive the paper's measurement campaigns through a
// Scenario and run the full capture -> reassembly -> boundary -> timeline
// -> inference pipeline, exactly as the paper did offline on tcpdump data.
//
//   Datasets A  (run_default_fe_experiment): every vantage point queries
//               its default (DNS-nearest) FE repeatedly.
//   Datasets B  (run_fixed_fe_experiment): every vantage point queries one
//               fixed FE server.
//   Caching     (run_caching_experiment): same-query-repeated vs
//               distinct-queries against a fixed FE.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/cache_detector.hpp"
#include "core/inference.hpp"
#include "core/timings.hpp"
#include "obs/attribution.hpp"
#include "obs/flight.hpp"
#include "parallel/replica.hpp"
#include "search/keywords.hpp"
#include "testbed/scenario.hpp"

namespace dyncdn::testbed {

/// Discover the static/dynamic boundary the way the paper does: submit
/// `num_keywords` distinct queries from one client to one FE and take the
/// longest common prefix of the responses (analysis::probe_boundary over
/// the client's payload capture, kept in memory whatever the capture
/// budget). The probe runs in a throw-away probe scenario (streaming,
/// unsampled, untraced) of the probing client, the FE and the BE, built
/// from `scenario`'s fleet record; `scenario` is left as it was, so a
/// caller that then sends from the client to the FE links them itself
/// (Scenario::connect_client_to_fe). Throws std::logic_error unless
/// `scenario` has a fleet record (it has warmed up, or shares a
/// campaign's), drives the client and builds the FE.
std::size_t discover_boundary(Scenario& scenario, std::size_t client_index,
                              std::size_t fe_index,
                              std::size_t num_keywords = 6);

/// A campaign's probe pass, run before any of its scenarios is built
/// (parallel_experiment.hpp): `base` as a probe scenario driving client 0
/// only, warmed up with `warm_up` as the floor; its fleet record, then the
/// boundary probed from client 0 to `fixed_fe`, else to its default FE,
/// as discover_boundary probes.
struct CampaignProbe {
  std::size_t boundary = 0;
  std::shared_ptr<const FleetWarmup> fleet;
};
CampaignProbe probe_campaign(const ScenarioOptions& base, sim::SimTime warm_up,
                             std::optional<std::size_t> fixed_fe);

struct ExperimentOptions {
  std::size_t reps_per_node = 25;
  sim::SimTime interval = sim::SimTime::seconds(2);
  /// Per-client start stagger so vantage points don't fire synchronously.
  sim::SimTime stagger = sim::SimTime::milliseconds(73);
  /// Keywords cycled across repetitions (single-element = fixed query).
  std::vector<search::Keyword> keywords;

  /// When set, `keywords` is ignored and each query draws from a
  /// Zipf(alpha) popularity distribution over a synthesized catalog —
  /// the realistic mixed workload of Datasets A.
  struct ZipfWorkload {
    std::size_t catalog_size = 500;
    double alpha = 1.0;
  };
  std::optional<ZipfWorkload> zipf;

  /// Slow-query flight recorder configuration (only consulted when the
  /// scenario traces: the recorder is fed from the span forest).
  obs::FlightRecorder::Options flight;

  /// Directory to save each analyzed vantage point's whole capture in, as
  /// DIR/<vantage name>.dtrc: the packets its timings are computed from
  /// (empty = off). Needs a capture-mode scenario; a streaming one is
  /// refused with std::invalid_argument before anything runs.
  std::string save_traces;
};

struct ExperimentResult {
  std::size_t boundary = 0;
  /// One aggregate per vantage point, aligned with scenario.clients().
  std::vector<core::NodeAggregate> per_node;
  /// Raw per-query timings per vantage point (same alignment).
  std::vector<std::vector<core::QueryTimings>> per_node_timings;

  /// Operational counters + per-query latency histograms. Sharded runs
  /// merge shard registries in shard-index order; the merge rules
  /// (counters add, gauges max, histogram bins add) make the result
  /// thread-count invariant.
  obs::MetricsRegistry metrics;

  /// Event-kernel counters (Scenario::collect_kernel_metrics). Kept apart
  /// from `metrics` because they legitimately differ with the replica
  /// layout, while `metrics` is byte-identical at any shard/thread count.
  obs::MetricsRegistry kernel_metrics;

  /// Trace session of the run (merged across shards, stamped with replica
  /// ids). Null unless ScenarioOptions::enable_tracing.
  std::shared_ptr<obs::TraceSession> trace;

  /// Sim-time metric series (empty unless ScenarioOptions::ts_interval).
  /// Replica merges align by absolute tick and sum, so the deterministic
  /// exports are byte-identical at any thread count.
  obs::TimeSeriesSampler timeseries;

  /// Per-component latency attribution over the span forest (empty unless
  /// the scenario traces). Fed in deterministic completion order.
  obs::QueryAttribution attribution;

  /// Slow-query flight recorder (empty unless the scenario traces).
  obs::FlightRecorder flight;

  /// Replica executor counters (replicas run, per worker); filled by
  /// run_sharded, default for serial runs. Runtime telemetry only.
  parallel::ExecutorStats executor_stats;

  /// All timings flattened.
  std::vector<core::QueryTimings> all() const;
};

/// Analyze one client's captured trace into per-query timings (requires
/// capture_clients=true): drain its streaming analyzer, or in capture mode
/// replay its whole capture through a fresh one and clear the recorder.
/// Shared by the serial and sharded experiment runners.
std::vector<core::QueryTimings> analyze_client_trace(Scenario::Client& client,
                                                     std::size_t boundary);

/// Core measurement loop over an explicit subset of vantage points, given
/// the campaign's static/dynamic boundary (it never probes): schedules
/// the query sequence for the listed clients — each keeps its *global*
/// stagger slot, so a client's schedule is identical whether it runs
/// alongside the full fleet or alone in a replica — and analyzes their
/// traces, saving each one first when `options.save_traces` is set.
/// Result vectors align with `client_indices`, not with
/// scenario.clients(). This is the unit the parallel replica engine
/// (parallel_experiment.hpp) shards and merges.
ExperimentResult run_experiment_subset(
    Scenario& scenario, const ExperimentOptions& options,
    std::span<const std::size_t> client_indices,
    const std::function<std::size_t(std::size_t)>& fe_for_client,
    std::size_t boundary);

/// Datasets B: all clients query the FE at `fe_index`. These serial
/// overloads discover the boundary from client 0 (discover_boundary).
ExperimentResult run_fixed_fe_experiment(Scenario& scenario,
                                         std::size_t fe_index,
                                         const ExperimentOptions& options);

/// Datasets A: each client queries its default FE.
ExperimentResult run_default_fe_experiment(Scenario& scenario,
                                           const ExperimentOptions& options);

struct CachingExperimentResult {
  core::CacheDetectionResult detection;
  std::vector<double> t_dynamic_same_ms;
  std::vector<double> t_dynamic_distinct_ms;
  std::size_t fe_cache_hits = 0;  // ground truth from the FE, for tests
};

/// §3 caching experiment against the FE at `fe_index`. `reps` queries with
/// one repeated keyword, then `reps` distinct keywords, from one client.
CachingExperimentResult run_caching_experiment(Scenario& scenario,
                                               std::size_t client_index,
                                               std::size_t fe_index,
                                               std::size_t reps);

}  // namespace dyncdn::testbed

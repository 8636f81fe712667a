// The replica runner: every measurement campaign, "replica plan -> merge".
//
// run_sharded (parallel_experiment.cpp) is the one runner. It splits the
// campaign's vantage points into independent replicas — each replica
// rebuilds the *same* scenario (same seed, same topology, same named RNG
// streams) and drives only its shard through run_experiment_subset
// (experiment.hpp) — and runs the replicas on a deterministic thread pool
// (parallel/replica.hpp). Datasets A and B call it directly; Fig. 9's
// fetch factoring is a Datasets-A campaign over a distance sweep whose
// regression reads the merged per-probe medians. Before any replica is
// built, one probe pass (probe_campaign, experiment.hpp) warms up the FE
// fleet and probes the static/dynamic boundary from client 0, once per
// campaign; replicas get that boundary and run campaign queries only. A
// replica builds only the vantage points of its shard
// (ScenarioOptions::driven_clients); the others keep just their node ids. In
// a plan of more than one replica, each also builds only the FEs its
// clients query, warms up to the pass's recorded end, where the whole
// fleet is quiet, and its exports count the other FEs' warm-up from that
// shared record (ScenarioOptions::fleet_warmup). Merging scatters each
// shard's per-node results back into fleet order and merges metrics,
// traces, time series, attribution and the flight recorder by shard index.
//
// Determinism contract:
//   * For a fixed ReplicaPlan::shards, the merged result is bit-identical
//     at every thread count (1, 2, N...): replicas share no mutable state
//     and results are merged by index, never by completion order.
//   * With shards == 1 the single replica is exactly the serial path of
//     the Scenario& overloads in experiment.hpp (construct, warm_up,
//     discover_boundary, run_experiment_subset over every vantage point),
//     so the two can be diffed bit-for-bit.
//   * With shards > 1, vantage points in different shards no longer
//     contend inside one simulator; per-client submission schedules are
//     unchanged (global stagger slots), but FE/BE queueing reflects only
//     same-shard traffic. The default (one shard per vantage point) models
//     the paper's PlanetLab reality: measurement clients do not share an
//     access path, and a 60-node campaign perturbing one FE is exactly
//     what Datasets A/B measured.
#pragma once

#include "parallel/replica.hpp"
#include "testbed/experiment.hpp"
#include "testbed/scenario.hpp"

namespace dyncdn::testbed {

struct ReplicaPlan {
  /// Number of replicas the vantage-point set is split into.
  /// 0 = one shard per vantage point (maximum parallelism).
  /// 1 = legacy serial semantics (whole fleet in one simulator).
  std::size_t shards = 0;
  /// Worker-thread resolution (DYNCDN_THREADS / hardware concurrency).
  parallel::ExecutorConfig executor;
  /// Floor of the warm-up before measurement (Scenario::warm_up), which
  /// runs on until the FE fleet is quiet.
  sim::SimTime warm_up = sim::SimTime::seconds(5);
};

/// Vantage points a ScenarioOptions will build (sweep-aware).
std::size_t planned_client_count(const ScenarioOptions& options);

/// The scenario one replica builds: `base` driving only `group`; with a
/// fleet warm-up, building only the FEs they query (`fixed_fe`, else each
/// one's default FE).
ScenarioOptions replica_options(const ScenarioOptions& base,
                                const std::vector<std::size_t>& group,
                                std::shared_ptr<const FleetWarmup> fleet,
                                std::optional<std::size_t> fixed_fe);

/// Datasets B, sharded: all clients query the FE at `fe_index`.
ExperimentResult run_fixed_fe_experiment(const ScenarioOptions& scenario_options,
                                         std::size_t fe_index,
                                         const ExperimentOptions& options,
                                         const ReplicaPlan& plan = {});

/// Datasets A, sharded: each client queries its default (DNS-nearest) FE.
ExperimentResult run_default_fe_experiment(
    const ScenarioOptions& scenario_options, const ExperimentOptions& options,
    const ReplicaPlan& plan = {});

/// Fig. 9's fetch-time factoring (§5): the distance-sweep probes' series
/// and its regression, plus the campaign it was measured in.
struct FetchFactoringResult {
  /// One point per probe that analyzed a query: its FE's distance to the
  /// BE and the probe's median T_dynamic.
  std::vector<double> distances_miles;
  std::vector<double> med_t_dynamic_ms;
  core::FetchFactoring factoring;
  /// The Datasets-A campaign: per-probe results, metrics, trace, time
  /// series, attribution and flight recorder.
  ExperimentResult campaign;
};

/// Fig. 9: a Datasets-A campaign over a distance sweep
/// (ScenarioOptions::fe_distance_sweep_miles, else std::logic_error). Probe
/// i queries sweep FE i, its default FE, `reps` times, 1.7 s apart, all
/// probes starting together; T_proc and the per-mile slope come from
/// regressing each probe's median T_dynamic on its FE's distance to the
/// BE. `flight` configures the campaign's slow-query recorder.
FetchFactoringResult run_fetch_factoring_experiment(
    const ScenarioOptions& scenario_options, const search::Keyword& keyword,
    std::size_t reps, const ReplicaPlan& plan = {},
    const obs::FlightRecorder::Options& flight = {});

}  // namespace dyncdn::testbed

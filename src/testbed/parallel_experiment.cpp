#include "testbed/parallel_experiment.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/inference.hpp"

namespace dyncdn::testbed {

namespace {

/// Contiguous block partition of [0, clients) into `shards` groups. The
/// partition depends only on (clients, shards) — never on thread count —
/// which is what makes merged results thread-count-invariant.
std::vector<std::vector<std::size_t>> partition_clients(std::size_t clients,
                                                        std::size_t shards) {
  std::vector<std::vector<std::size_t>> groups(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t lo = s * clients / shards;
    const std::size_t hi = (s + 1) * clients / shards;
    for (std::size_t i = lo; i < hi; ++i) groups[s].push_back(i);
  }
  return groups;
}

std::size_t resolve_shards(const ReplicaPlan& plan, std::size_t clients) {
  if (clients == 0) {
    throw std::invalid_argument("sharded experiment: no vantage points");
  }
  const std::size_t requested = plan.shards == 0 ? clients : plan.shards;
  return std::min(requested, clients);
}

ExperimentResult run_sharded(const ScenarioOptions& base,
                             const ExperimentOptions& options,
                             const ReplicaPlan& plan,
                             std::optional<std::size_t> fixed_fe) {
  const std::size_t clients = planned_client_count(base);
  const std::size_t shards = resolve_shards(plan, clients);
  const auto groups = partition_clients(clients, shards);
  // Before any campaign scenario is built: the boundary, probed once, and
  // the fleet warm-up, which the replicas of a multi-replica plan share (a
  // single replica builds every FE itself).
  const CampaignProbe probe = probe_campaign(base, plan.warm_up, fixed_fe);
  const auto fleet = shards > 1 ? probe.fleet : nullptr;

  parallel::ReplicaExecutor executor(plan.executor);
  auto shard_results =
      executor.run(shards, [&](std::size_t s) -> ExperimentResult {
        // Same seed -> identical topology everywhere.
        Scenario scenario(replica_options(base, groups[s], fleet, fixed_fe));
        scenario.warm_up(plan.warm_up);
        auto& scenario_clients = scenario.clients();
        const auto fe_for_client = [&](std::size_t i) {
          return fixed_fe ? *fixed_fe : scenario_clients[i].default_fe;
        };
        return run_experiment_subset(scenario, options, groups[s],
                                     fe_for_client, probe.boundary);
      });

  // Scatter shard results back into fleet order. Metrics and traces merge
  // by shard index — never completion order — so the output is identical
  // at every thread count.
  ExperimentResult merged;
  merged.boundary = probe.boundary;
  merged.flight = obs::FlightRecorder(options.flight);
  merged.per_node.resize(clients);
  merged.per_node_timings.resize(clients);
  for (std::size_t s = 0; s < shards; ++s) {
    for (std::size_t k = 0; k < groups[s].size(); ++k) {
      merged.per_node[groups[s][k]] = std::move(shard_results[s].per_node[k]);
      merged.per_node_timings[groups[s][k]] =
          std::move(shard_results[s].per_node_timings[k]);
    }
    merged.metrics.merge(shard_results[s].metrics);
    merged.kernel_metrics.merge(shard_results[s].kernel_metrics);
    // Telemetry merges in replica-index order: time-series rows align by
    // absolute tick and sum, attribution histograms add bins, flight
    // entries concatenate — all thread-count invariant.
    merged.timeseries.merge(shard_results[s].timeseries);
    merged.attribution.merge(shard_results[s].attribution);
    merged.flight.merge(shard_results[s].flight);
    if (shard_results[s].trace) {
      if (!merged.trace) {
        merged.trace = std::make_shared<obs::TraceSession>();
      }
      merged.trace->merge_from(std::move(*shard_results[s].trace),
                               static_cast<std::uint32_t>(s));
    }
  }
  merged.executor_stats = executor.last_stats();
  return merged;
}

}  // namespace

std::size_t planned_client_count(const ScenarioOptions& options) {
  if (options.fe_distance_sweep_miles) {
    return options.fe_distance_sweep_miles->size();
  }
  return options.client_count;
}

ScenarioOptions replica_options(const ScenarioOptions& base,
                                const std::vector<std::size_t>& group,
                                std::shared_ptr<const FleetWarmup> fleet,
                                std::optional<std::size_t> fixed_fe) {
  ScenarioOptions options = base;
  options.driven_clients = group;
  if (fleet != nullptr) {
    for (const std::size_t i : group) {
      options.queried_fes.push_back(fixed_fe ? *fixed_fe
                                             : fleet->default_fe.at(i));
    }
    options.fleet_warmup = std::move(fleet);
  }
  return options;
}

ExperimentResult run_fixed_fe_experiment(const ScenarioOptions& scenario_options,
                                         std::size_t fe_index,
                                         const ExperimentOptions& options,
                                         const ReplicaPlan& plan) {
  return run_sharded(scenario_options, options, plan, fe_index);
}

ExperimentResult run_default_fe_experiment(
    const ScenarioOptions& scenario_options, const ExperimentOptions& options,
    const ReplicaPlan& plan) {
  return run_sharded(scenario_options, options, plan, std::nullopt);
}

FetchFactoringResult run_fetch_factoring_experiment(
    const ScenarioOptions& scenario_options, const search::Keyword& keyword,
    std::size_t reps, const ReplicaPlan& plan,
    const obs::FlightRecorder::Options& flight) {
  if (!scenario_options.fe_distance_sweep_miles) {
    throw std::logic_error(
        "fetch-factoring requires fe_distance_sweep_miles in the scenario");
  }
  // A Datasets-A campaign: probe i queries sweep FE i, its default FE,
  // `reps` times at one shared start.
  ExperimentOptions options;
  options.keywords = {keyword};
  options.reps_per_node = reps;
  options.interval = sim::SimTime::milliseconds(1700);
  options.stagger = sim::SimTime::zero();
  options.flight = flight;

  FetchFactoringResult result;
  result.campaign = run_sharded(scenario_options, options, plan, std::nullopt);
  const cdn::ServiceProfile& profile = scenario_options.profile;
  const std::vector<double>& sweep = *scenario_options.fe_distance_sweep_miles;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const core::NodeAggregate& probe = result.campaign.per_node[i];
    if (probe.samples == 0) continue;
    result.distances_miles.push_back(net::haversine_miles(
        sweep_fe_location(profile, sweep[i]), profile.be_location));
    result.med_t_dynamic_ms.push_back(probe.med_dynamic_ms);
  }
  result.factoring = core::factor_fetch_time(result.distances_miles,
                                             result.med_t_dynamic_ms);
  return result;
}

}  // namespace dyncdn::testbed

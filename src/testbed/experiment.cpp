#include "testbed/experiment.hpp"

#include <filesystem>
#include <memory>
#include <stdexcept>

#include "analysis/boundary.hpp"
#include "analysis/span_attribution.hpp"
#include "analysis/streaming.hpp"
#include "capture/spill.hpp"

namespace dyncdn::testbed {

namespace {
constexpr net::Port kServicePort = 80;

/// Write `client`'s whole capture (any spilled prefix, then the in-memory
/// tail) to DIR/<vantage name>.dtrc, for offline analysis.
void save_client_trace(const Scenario::Client& client, const std::string& dir) {
  std::filesystem::create_directories(dir);
  capture::SpillWriter writer(dir + "/" + client.vantage.name + ".dtrc",
                              client.node->id());
  client.recorder->replay(writer);
  writer.finish();
}

/// `base` as a scenario built only to probe the boundary: its clients
/// capture payloads in streaming mode, which wires no spill writer, so no
/// capture budget can split the probe's capture; no sampler or trace
/// session.
ScenarioOptions probe_options(ScenarioOptions base) {
  base.capture_clients = true;
  base.capture_payloads = true;
  base.stream_analysis = true;
  base.ts_interval = sim::SimTime::zero();
  base.enable_tracing = false;
  return base;
}

/// The probe itself, in a probe scenario: distinct queries from client
/// `client_index` to FE `fe_index`, run to an empty queue, and the common
/// prefix of the responses in the client's capture, kept in memory.
std::size_t run_probe(Scenario& probe, std::size_t client_index,
                      std::size_t fe_index, std::size_t num_keywords) {
  Scenario::Client& client = probe.clients().at(client_index);
  probe.connect_client_to_fe(client_index, fe_index);
  // The probe compares response bytes, so the capture is kept and the
  // analyzer, whose timelines nothing drains here, is detached.
  client.recorder->set_sink(nullptr);
  client.recorder->set_retain_packets(true);

  // Distinct keywords: the paper's content analysis relies on responses to
  // *different* queries so the common prefix stops at the static portion.
  const search::KeywordCatalog catalog(probe.simulator().rng().seed());
  const net::Endpoint fe = probe.fe_endpoint(fe_index);
  for (const search::Keyword& kw : catalog.distinct_corpus(num_keywords)) {
    client.query_client->submit(fe, kw, [](const cdn::QueryResult&) {});
  }
  probe.run();

  const analysis::ProbedBoundary probed =
      analysis::probe_boundary(client.recorder->trace(), kServicePort);
  if (probed.responses < 2) {
    throw std::runtime_error("discover_boundary: not enough responses");
  }
  if (probed.boundary == 0) {
    throw std::runtime_error("discover_boundary: no common prefix found");
  }
  return probed.boundary;
}

}  // namespace

std::vector<core::QueryTimings> analyze_client_trace(Scenario::Client& client,
                                                     std::size_t boundary) {
  client.require_driven();
  if (!client.recorder) {
    throw std::logic_error("experiment requires capture_clients=true");
  }
  if (client.analyzer) {
    // Streaming mode: flows were reduced online. No recorder->clear() here
    // — the trace buffer is empty (retention is off) and clearing would
    // also reset the analyzer's boundary, which multi-phase experiments
    // reuse.
    return core::timings_from_timelines(client.analyzer->drain(boundary));
  }
  // Capture mode: replay the whole capture (any spilled prefix, then the
  // in-memory tail) through a fresh analyzer that learns the boundary at
  // drain().
  analysis::StreamingAnalyzer analyzer(kServicePort);
  client.recorder->replay(analyzer);
  client.recorder->clear();
  return core::timings_from_timelines(analyzer.drain(boundary));
}

std::size_t discover_boundary(Scenario& scenario, std::size_t client_index,
                              std::size_t fe_index,
                              std::size_t num_keywords) {
  scenario.clients().at(client_index).require_driven();
  scenario.fes().at(fe_index).require_built();
  std::shared_ptr<const FleetWarmup> fleet = scenario.fleet_record();
  if (fleet == nullptr) {
    throw std::logic_error("discover_boundary needs a warmed-up scenario");
  }
  // A lean scenario of the same fleet: the probing client, its FE and the
  // BE, quiet at the same end as `scenario`'s warm-up.
  ScenarioOptions options = probe_options(scenario.options());
  options.driven_clients = {client_index};
  options.queried_fes = {fe_index};
  options.fleet_warmup = std::move(fleet);
  Scenario probe(std::move(options));
  probe.warm_up(sim::SimTime::zero());
  return run_probe(probe, client_index, fe_index, num_keywords);
}

CampaignProbe probe_campaign(const ScenarioOptions& base, sim::SimTime warm_up,
                             std::optional<std::size_t> fixed_fe) {
  ScenarioOptions options = probe_options(base);
  options.driven_clients = {0};
  options.fleet_warmup.reset();
  options.queried_fes.clear();
  Scenario pass(std::move(options));
  pass.warm_up(warm_up);
  CampaignProbe out;
  // Taken before the probe, so the record holds the warm-up only.
  out.fleet = pass.fleet_record();
  out.boundary = run_probe(pass, 0,
                           fixed_fe.value_or(pass.clients()[0].default_fe),
                           /*num_keywords=*/6);
  return out;
}

ExperimentResult run_experiment_subset(
    Scenario& scenario, const ExperimentOptions& options,
    std::span<const std::size_t> client_indices,
    const std::function<std::size_t(std::size_t)>& fe_for_client,
    std::size_t boundary) {
  if (options.keywords.empty() && !options.zipf) {
    throw std::invalid_argument("ExperimentOptions.keywords is empty");
  }
  if (!options.save_traces.empty() && scenario.streaming()) {
    throw std::invalid_argument(
        "ExperimentOptions.save_traces needs a capture-mode scenario");
  }

  // Streaming mode: once the boundary is known, flows collapse to
  // timelines the moment their teardown is captured.
  scenario.set_stream_boundary(boundary);

  // Launch the query schedule for the selected vantage points.
  sim::Simulator& simulator = scenario.simulator();
  auto& clients = scenario.clients();
  for (const std::size_t i : client_indices) {
    const std::size_t fe = fe_for_client(i);
    scenario.connect_client_to_fe(i, fe);
    const net::Endpoint endpoint = scenario.fe_endpoint(fe);

    // Per-client query sequence: the configured rotation, or fresh Zipf
    // popularity draws (each client gets an independent stream).
    std::vector<search::Keyword> sequence;
    if (options.zipf) {
      const search::KeywordCatalog catalog(simulator.rng().seed());
      const auto universe = catalog.generate(search::KeywordClass::kPopular,
                                             options.zipf->catalog_size);
      sim::RngStream draw_rng = simulator.rng().stream(
          "experiment/zipf/" + clients[i].vantage.name);
      sequence = search::KeywordCatalog::zipf_sample(
          universe, options.reps_per_node, options.zipf->alpha, draw_rng);
    }

    for (std::size_t r = 0; r < options.reps_per_node; ++r) {
      const search::Keyword kw =
          options.zipf ? sequence[r]
                       : options.keywords[r % options.keywords.size()];
      // Stagger by the client's *global* index: a vantage point keeps the
      // same submission schedule whether it runs in the full fleet or in a
      // single-client replica.
      const sim::SimTime at =
          options.stagger * static_cast<std::int64_t>(i) +
          options.interval * static_cast<std::int64_t>(r);
      simulator.schedule_in(at, [&clients, i, endpoint, kw]() {
        clients[i].query_client->submit(endpoint, kw,
                                        [](const cdn::QueryResult&) {});
      });
    }
  }
  scenario.run();

  // Offline analysis per selected vantage point (result aligns with
  // client_indices).
  ExperimentResult result;
  result.boundary = boundary;
  result.per_node_timings.reserve(client_indices.size());
  for (const std::size_t i : client_indices) {
    if (!options.save_traces.empty()) {
      save_client_trace(clients[i], options.save_traces);
    }
    auto timings = analyze_client_trace(clients[i], boundary);
    for (const core::QueryTimings& t : timings) {
      result.metrics.add("queries_analyzed", 1);
      result.metrics.observe("query_rtt_ms", t.rtt_ms);
      result.metrics.observe("query_t_static_ms", t.t_static_ms);
      result.metrics.observe("query_t_dynamic_ms", t.t_dynamic_ms);
      result.metrics.observe("query_t_delta_ms", t.t_delta_ms);
      result.metrics.observe("query_overall_ms", t.overall_ms);
    }
    result.per_node.push_back(
        core::aggregate_node(clients[i].vantage.name, timings));
    result.per_node_timings.push_back(std::move(timings));
  }
  scenario.collect_metrics(result.metrics);
  // Budgeted capture opts its spill counters into the main registry: they
  // are layout-invariant (see collect_spill_metrics), and runs without a
  // budget keep the exact export of previous releases.
  if (scenario.spilling_active()) scenario.collect_spill_metrics(result.metrics);
  scenario.collect_kernel_metrics(result.kernel_metrics);
  result.trace = scenario.shared_trace();
  result.timeseries = scenario.take_timeseries();

  // Telemetry reducers over the span forest: per-component latency
  // attribution plus the slow-query flight recorder, fed in deterministic
  // completion order. The walker reuses the capture pipeline's timeline
  // code, so attribution sums reconcile with packet-derived T_dynamic at
  // tolerance 0.
  result.flight = obs::FlightRecorder(options.flight);
  if (result.trace != nullptr && !result.trace->spans().empty()) {
    analysis::reduce_attribution(result.trace->spans(), boundary,
                                 result.attribution, &result.flight);
  }
  return result;
}

namespace {
ExperimentResult run_experiment(Scenario& scenario,
                                const ExperimentOptions& options,
                                const std::function<std::size_t(std::size_t)>&
                                    fe_for_client) {
  std::vector<std::size_t> all(scenario.clients().size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  // The probe runs from client 0, as a replica campaign's does.
  return run_experiment_subset(
      scenario, options, all, fe_for_client,
      discover_boundary(scenario, 0, fe_for_client(0)));
}
}  // namespace

std::vector<core::QueryTimings> ExperimentResult::all() const {
  std::vector<core::QueryTimings> out;
  for (const auto& v : per_node_timings) out.insert(out.end(), v.begin(), v.end());
  return out;
}

ExperimentResult run_fixed_fe_experiment(Scenario& scenario,
                                         std::size_t fe_index,
                                         const ExperimentOptions& options) {
  return run_experiment(scenario, options,
                        [fe_index](std::size_t) { return fe_index; });
}

ExperimentResult run_default_fe_experiment(Scenario& scenario,
                                           const ExperimentOptions& options) {
  auto& clients = scenario.clients();
  return run_experiment(scenario, options, [&clients](std::size_t i) {
    return clients[i].default_fe;
  });
}

CachingExperimentResult run_caching_experiment(Scenario& scenario,
                                               std::size_t client_index,
                                               std::size_t fe_index,
                                               std::size_t reps) {
  CachingExperimentResult result;
  const std::size_t boundary =
      discover_boundary(scenario, client_index, fe_index);
  scenario.set_stream_boundary(boundary);
  scenario.connect_client_to_fe(client_index, fe_index);

  Scenario::Client& client = scenario.clients().at(client_index);
  const net::Endpoint fe = scenario.fe_endpoint(fe_index);
  sim::Simulator& simulator = scenario.simulator();

  const search::KeywordCatalog catalog(simulator.rng().seed() + 17);
  const auto corpus = catalog.distinct_corpus(reps + 1);

  // Phase 1: the same keyword, repeated sequentially.
  client.query_client->submit_repeated(fe, corpus.front(), reps,
                                       sim::SimTime::milliseconds(1500),
                                       [](const cdn::QueryResult&) {});
  scenario.run();
  {
    auto timings = analyze_client_trace(client, boundary);
    for (const auto& q : timings) {
      result.t_dynamic_same_ms.push_back(q.t_dynamic_ms);
    }
  }

  // Phase 2: distinct keywords, one each.
  for (std::size_t r = 0; r < reps; ++r) {
    simulator.schedule_in(
        sim::SimTime::milliseconds(1500) * static_cast<std::int64_t>(r),
        [&client, fe, kw = corpus[r + 1]]() {
          client.query_client->submit(fe, kw, [](const cdn::QueryResult&) {});
        });
  }
  scenario.run();
  {
    auto timings = analyze_client_trace(client, boundary);
    for (const auto& q : timings) {
      result.t_dynamic_distinct_ms.push_back(q.t_dynamic_ms);
    }
  }

  result.detection = core::detect_fe_caching(result.t_dynamic_same_ms,
                                             result.t_dynamic_distinct_ms);
  result.fe_cache_hits = scenario.fes().at(fe_index).server->cache_hits();
  return result;
}

}  // namespace dyncdn::testbed

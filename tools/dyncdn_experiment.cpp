// dyncdn_experiment — command-line driver for the measurement campaigns.
//
// Runs one of the paper's experiment types against a chosen deployment
// profile and prints per-node results as TSV (easily plotted or piped into
// further analysis). Optionally saves each vantage point's packet trace.
//
//   dyncdn_experiment --experiment=fixed-fe --service=bing --clients=80
//       --reps=20 --seed=7 --save-traces=/tmp/traces    (one command line)
//
// Experiments:
//   fixed-fe    Datasets B: every client queries FE #0.
//   default-fe  Datasets A: every client queries its DNS-nearest FE.
//   caching     §3 same-vs-distinct caching probe.
//   factoring   Fig. 9 fetch-time factoring over an FE distance sweep.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/inference.hpp"
#include "obs/export_chrome.hpp"
#include "obs/export_prometheus.hpp"
#include "obs/memory.hpp"
#include "search/keywords.hpp"
#include "sim/parse.hpp"
#include "testbed/parallel_experiment.hpp"
#include "testbed/scenario.hpp"

using namespace dyncdn;
using namespace dyncdn::sim::literals;

namespace {

struct CliOptions {
  std::string experiment = "fixed-fe";
  std::string service = "google";
  std::size_t clients = 60;
  std::size_t reps = 15;
  std::uint64_t seed = 1;
  std::string save_traces;  // directory; empty = off
  std::size_t threads = 0;  // 0 = DYNCDN_THREADS / hardware concurrency
  std::size_t shards = 0;   // 0 = one replica per vantage point
  std::string trace_out;    // Chrome trace_event JSON; empty = off
  std::string metrics_out;  // Prometheus text dump; empty = off
  bool stream = true;       // online timeline analysis (--capture = off)
  std::size_t capture_budget = 0;  // bytes/client before spill-to-disk; 0=off
  double ts_interval_ms = 0.0;  // 0 = default 100ms when a ts output is set
  std::string ts_out;           // time series (.csv -> CSV, else JSON)
  std::string ts_runtime_out;   // the series + executor JSON
  std::string attribution_out;  // per-component latency JSON
  std::string slow_log;         // flight-recorder slow-query JSON
  double slow_threshold_ms = 0.0;  // explicit trigger; 0 = adaptive
};

void usage() {
  std::fprintf(
      stderr,
      "usage: dyncdn_experiment [--experiment=fixed-fe|default-fe|caching|"
      "factoring]\n"
      "                         [--service=google|bing] [--clients=N]\n"
      "                         [--reps=N] [--seed=S] [--save-traces=DIR]\n"
      "                         [--threads=N] [--shards=N]\n"
      "                         [--trace-out=FILE] [--metrics-out=FILE]\n"
      "                         [--ts-interval=MS] [--ts-out=FILE]\n"
      "                         [--ts-runtime-out=FILE]\n"
      "                         [--attribution-out=FILE] [--slow-log=FILE]\n"
      "                         [--slow-threshold=MS]\n"
      "                         [--stream | --capture] "
      "[--capture-budget=BYTES]\n"
      "  --save-traces  also save each vantage point's capture, payloads\n"
      "             included, as DIR/NAME.dtrc: the packets its TSV row is\n"
      "             computed from (fixed-fe and default-fe only). Implies\n"
      "             --capture; not with --stream\n"
      "  --threads  worker threads for sharded experiments "
      "(0 = DYNCDN_THREADS or all cores); not with caching\n"
      "  --shards   replica count (0 = one per vantage point; "
      "1 = legacy serial semantics); not with caching\n"
      "  --stream   reduce flows to timelines online (default): campaign "
      "memory is O(in-flight flows)\n"
      "  --capture  retain full packet traces and replay them through the\n"
      "             same reducer afterwards. Live streaming collapses a\n"
      "             flow at teardown, a replay after all its packets:\n"
      "             results agree unless the stream counts late packets\n"
      "             (lossy or reordering paths)\n"
      "  --capture-budget  per-client capture memory budget (accepts k/m/g\n"
      "                 suffixes, e.g. 64k). Once a client's retained bytes\n"
      "                 reach the budget the buffer spills to a binary\n"
      "                 .dtrc trace file and resets; analysis replays the\n"
      "                 spilled prefix, so results stay byte-identical to\n"
      "                 unbudgeted --capture. 0 = DYNCDN_CAPTURE_BUDGET or\n"
      "                 unlimited. Implies --capture; not with --stream\n"
      "  --trace-out    write per-query span timelines as Chrome "
      "trace_event JSON (chrome://tracing, Perfetto)\n"
      "  --metrics-out  write the run's metrics registry in Prometheus "
      "text format\n"
      "  --ts-interval  sim-time sampling tick in ms (default 100); needs\n"
      "                 --ts-out or --ts-runtime-out\n"
      "  --ts-out       write the sampled metric series; a .csv suffix\n"
      "                 selects CSV, anything else JSON. Byte-identical\n"
      "                 at any --threads value\n"
      "  --ts-runtime-out  write runtime-health JSON (the series plus the\n"
      "                 per-worker replica counts); layout-dependent by\n"
      "                 nature, so kept out of --ts-out\n"
      "  --attribution-out  write per-component latency attribution JSON\n"
      "                 (dns/connect/uplink/fe wait/fetch/delivery "
      "percentiles);\n"
      "                 implies tracing; not with caching\n"
      "  --slow-log     write the slow-query flight recorder dump (span\n"
      "                 trees of promoted queries); implies tracing; not\n"
      "                 with caching\n"
      "  --slow-threshold  promote queries with T_dynamic above this many\n"
      "                 ms (0 = adaptive: p90 of the running distribution "
      "x 3); needs --slow-log\n");
}

/// Store the whole number `text` in `out`, or report the flag and fail.
template <class T>
bool whole_number(const char* flag, const std::string& text, T& out) {
  const std::optional<std::uint64_t> v = sim::parse_uint(text);
  if (!v) {
    std::fprintf(stderr, "bad %s value '%s': expected a whole number\n", flag,
                 text.c_str());
    return false;
  }
  out = static_cast<T>(*v);
  return true;
}

/// Store the finite, non-negative number `text` in `out`, or report the
/// flag and fail.
bool non_negative_number(const char* flag, const std::string& text,
                         double& out) {
  const std::optional<double> v = sim::parse_double(text);
  if (!v) {
    std::fprintf(stderr,
                 "bad %s value '%s': expected a non-negative number\n", flag,
                 text.c_str());
    return false;
  }
  out = *v;
  return true;
}

std::optional<CliOptions> parse_args(int argc, char** argv) {
  CliOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&](std::string_view prefix)
        -> std::optional<std::string> {
      if (arg.starts_with(prefix)) {
        return std::string(arg.substr(prefix.size()));
      }
      return std::nullopt;
    };
    if (auto v = value("--experiment=")) {
      opt.experiment = *v;
    } else if (auto v = value("--service=")) {
      opt.service = *v;
    } else if (auto v = value("--clients=")) {
      if (!whole_number("--clients", *v, opt.clients)) return std::nullopt;
    } else if (auto v = value("--reps=")) {
      if (!whole_number("--reps", *v, opt.reps)) return std::nullopt;
    } else if (auto v = value("--seed=")) {
      if (!whole_number("--seed", *v, opt.seed)) return std::nullopt;
    } else if (auto v = value("--save-traces=")) {
      opt.save_traces = *v;
    } else if (auto v = value("--threads=")) {
      if (!whole_number("--threads", *v, opt.threads)) return std::nullopt;
    } else if (auto v = value("--shards=")) {
      if (!whole_number("--shards", *v, opt.shards)) return std::nullopt;
    } else if (auto v = value("--trace-out=")) {
      opt.trace_out = *v;
    } else if (auto v = value("--metrics-out=")) {
      opt.metrics_out = *v;
    } else if (auto v = value("--ts-interval=")) {
      if (!non_negative_number("--ts-interval", *v, opt.ts_interval_ms)) {
        return std::nullopt;
      }
    } else if (auto v = value("--ts-out=")) {
      opt.ts_out = *v;
    } else if (auto v = value("--ts-runtime-out=")) {
      opt.ts_runtime_out = *v;
    } else if (auto v = value("--attribution-out=")) {
      opt.attribution_out = *v;
    } else if (auto v = value("--slow-log=")) {
      opt.slow_log = *v;
    } else if (auto v = value("--slow-threshold=")) {
      if (!non_negative_number("--slow-threshold", *v,
                               opt.slow_threshold_ms)) {
        return std::nullopt;
      }
    } else if (auto v = value("--capture-budget=")) {
      const auto bytes = sim::parse_byte_size(*v);
      if (!bytes) {
        std::fprintf(stderr, "bad --capture-budget value: %s\n", v->c_str());
        return std::nullopt;
      }
      opt.capture_budget = *bytes;
      opt.stream = false;  // budgeted spill needs the retained-capture path
    } else if (arg == "--stream") {
      opt.stream = true;
    } else if (arg == "--capture") {
      opt.stream = false;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return std::nullopt;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      usage();
      return std::nullopt;
    }
  }
  if (opt.experiment != "fixed-fe" && opt.experiment != "default-fe" &&
      opt.experiment != "caching" && opt.experiment != "factoring") {
    std::fprintf(stderr, "bad --experiment value\n");
    return std::nullopt;
  }
  if (opt.service != "google" && opt.service != "bing") {
    std::fprintf(stderr, "bad --service value\n");
    return std::nullopt;
  }
  if (opt.clients == 0 || opt.reps == 0) {
    std::fprintf(stderr, "--clients and --reps must be positive\n");
    return std::nullopt;
  }
  // Refuse what a mode cannot honor before anything is written. The
  // caching probe is one client's two phases in one scenario: it has no
  // replicas to spread over threads, no campaign to attribute and no slow
  // log to keep. Factoring saves no traces, and --stream retains no
  // capture: nothing to save, nothing for a budget to bound. A sampling
  // tick or slow-query threshold with no file to write would only
  // perturb the run or be dropped.
  const auto refuse = [](const char* flag, const std::string& mode) {
    std::fprintf(stderr, "%s is unavailable with %s\n", flag, mode.c_str());
    return std::nullopt;
  };
  const auto unwritten = [](const char* flag, const char* outputs) {
    std::fprintf(stderr, "%s needs %s\n", flag, outputs);
    return std::nullopt;
  };
  const auto given = [argc, argv](std::string_view flag) {
    return std::any_of(argv + 1, argv + argc, [flag](const char* arg) {
      return std::string_view(arg).starts_with(flag);
    });
  };
  const std::string experiment = "--experiment=" + opt.experiment;
  if (!opt.save_traces.empty() &&
      (opt.experiment == "caching" || opt.experiment == "factoring")) {
    return refuse("--save-traces", experiment);
  }
  if (opt.experiment == "caching") {
    if (given("--threads=")) return refuse("--threads", experiment);
    if (given("--shards=")) return refuse("--shards", experiment);
    if (!opt.attribution_out.empty()) {
      return refuse("--attribution-out", experiment);
    }
    if (!opt.slow_log.empty()) return refuse("--slow-log", experiment);
  }
  if (given("--stream")) {
    if (!opt.save_traces.empty()) return refuse("--save-traces", "--stream");
    if (given("--capture-budget=")) {
      return refuse("--capture-budget", "--stream");
    }
  }
  if (given("--ts-interval=") && opt.ts_out.empty() &&
      opt.ts_runtime_out.empty()) {
    return unwritten("--ts-interval", "--ts-out or --ts-runtime-out");
  }
  if (given("--slow-threshold=") && opt.slow_log.empty()) {
    return unwritten("--slow-threshold", "--slow-log");
  }
  // A requested time-series output without an interval gets the default
  // 100ms tick.
  if (opt.ts_interval_ms == 0.0 &&
      (!opt.ts_out.empty() || !opt.ts_runtime_out.empty())) {
    opt.ts_interval_ms = 100.0;
  }
  return opt;
}

// Sampling tick as sim time (zero = sampling off).
sim::SimTime ts_interval(const CliOptions& cli) {
  return sim::SimTime::nanoseconds(
      static_cast<std::int64_t>(cli.ts_interval_ms * 1e6));
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return true;
}

void write_timeseries_outputs(const CliOptions& cli,
                              const obs::TimeSeriesSampler& ts,
                              const parallel::ExecutorStats* exec) {
  if (!cli.ts_out.empty()) {
    const bool csv = cli.ts_out.size() >= 4 &&
                     cli.ts_out.compare(cli.ts_out.size() - 4, 4, ".csv") == 0;
    if (write_text_file(cli.ts_out, csv ? ts.to_csv() : ts.to_json())) {
      std::fprintf(stderr, "time series (%zu ticks) written to %s\n",
                   ts.sample_count(), cli.ts_out.c_str());
    }
  }
  if (!cli.ts_runtime_out.empty()) {
    // Runtime view: the series, plus the executor's per-worker breakdown
    // when a replica campaign supplied one.
    std::string out = "{\"timeseries\":";
    out += ts.to_json();
    if (exec != nullptr) {
      out += ",\"executor\":{\"workers\":" + std::to_string(exec->workers) +
             ",\"tasks\":" + std::to_string(exec->tasks) +
             ",\"tasks_by_worker\":[";
      for (std::size_t i = 0; i < exec->tasks_by_worker.size(); ++i) {
        if (i != 0) out += ',';
        out += std::to_string(exec->tasks_by_worker[i]);
      }
      out += "]}";
    }
    out += "}";
    if (write_text_file(cli.ts_runtime_out, out)) {
      std::fprintf(stderr, "runtime telemetry written to %s\n",
                   cli.ts_runtime_out.c_str());
    }
  }
}

void write_attribution_outputs(const CliOptions& cli,
                               const obs::QueryAttribution& attribution,
                               const obs::FlightRecorder& flight) {
  if (!cli.attribution_out.empty()) {
    if (write_text_file(cli.attribution_out, attribution.to_json())) {
      std::fprintf(stderr,
                   "attribution (%llu queries, %llu reconcile failures) "
                   "written to %s\n",
                   static_cast<unsigned long long>(attribution.queries()),
                   static_cast<unsigned long long>(
                       attribution.reconcile_failures()),
                   cli.attribution_out.c_str());
    }
  }
  if (!cli.slow_log.empty()) {
    if (write_text_file(cli.slow_log, flight.to_json())) {
      std::fprintf(stderr, "slow-query log (%zu entries) written to %s\n",
                   flight.slow().size(), cli.slow_log.c_str());
    }
  }
}

void print_memory_summary(bool streaming) {
  const obs::MemorySnapshot snap = obs::memory_snapshot();
  std::fprintf(stderr, "# mode=%s peak_rss=%.1fMB",
               streaming ? "stream" : "capture",
               static_cast<double>(obs::peak_rss_bytes()) / (1024.0 * 1024.0));
  if (obs::memory_tracking_enabled()) {
    std::fprintf(stderr, " peak_live=%.1fMB allocations=%llu",
                 static_cast<double>(snap.peak_live_bytes) / (1024.0 * 1024.0),
                 static_cast<unsigned long long>(snap.allocations));
  }
  std::fprintf(stderr, "\n");
}

void write_obs_outputs(const CliOptions& cli, const obs::TraceSession* trace,
                       const obs::MetricsRegistry& metrics) {
  // Every --trace-out run traces (scenario_options), so `trace` is set.
  if (!cli.trace_out.empty()) {
    obs::write_chrome_trace(*trace, cli.trace_out);
    std::fprintf(stderr, "chrome trace written to %s\n",
                 cli.trace_out.c_str());
  }
  if (!cli.metrics_out.empty()) {
    obs::write_prometheus(metrics, cli.metrics_out);
    std::fprintf(stderr, "metrics written to %s\n", cli.metrics_out.c_str());
  }
}

/// The scenario every experiment builds from the flags.
testbed::ScenarioOptions scenario_options(const CliOptions& cli) {
  testbed::ScenarioOptions so;
  so.profile = cli.service == "google" ? cdn::google_like_profile()
                                       : cdn::bing_like_profile();
  so.client_count = cli.clients;
  so.seed = cli.seed;
  // Attribution and the flight recorder reduce the span forest, so they
  // imply tracing just like --trace-out.
  so.enable_tracing = !cli.trace_out.empty() || !cli.attribution_out.empty() ||
                      !cli.slow_log.empty();
  so.ts_interval = ts_interval(cli);
  // Saved traces are the retained capture, payload bytes included.
  so.stream_analysis = cli.stream && cli.save_traces.empty();
  so.capture_payloads = !cli.save_traces.empty();
  so.capture_budget = cli.capture_budget;
  return so;
}

/// Fig. 9's distance sweep: max(clients / 5, 6) FEs from 30 to 500 miles.
std::vector<double> factoring_sweep(std::size_t clients) {
  std::vector<double> distances;
  for (std::size_t i = 0; i < std::max<std::size_t>(clients / 5, 6); ++i) {
    distances.push_back(30.0 + 470.0 * static_cast<double>(i) /
                                   std::max<std::size_t>(clients / 5 - 1, 5));
  }
  return distances;
}

/// The replica campaigns: Datasets B (fixed-fe), Datasets A (default-fe)
/// and Fig. 9's factoring, a Datasets-A campaign over a distance sweep.
/// Each prints its TSV and writes every requested output of its result.
int run_measurement(const CliOptions& cli) {
  const bool fixed_fe = cli.experiment == "fixed-fe";
  const bool factoring = cli.experiment == "factoring";
  testbed::ScenarioOptions so = scenario_options(cli);
  if (factoring) so.fe_distance_sweep_miles = factoring_sweep(cli.clients);

  testbed::ExperimentOptions eo;
  eo.reps_per_node = cli.reps;
  eo.interval = 1200_ms;
  eo.flight.threshold_ms = cli.slow_threshold_ms;
  eo.save_traces = cli.save_traces;
  search::KeywordCatalog catalog(cli.seed);
  eo.keywords = catalog.figure3_keywords();

  testbed::ReplicaPlan plan;
  plan.shards = cli.shards;
  plan.executor.threads = cli.threads;
  testbed::ExperimentResult result;
  if (factoring) {
    const search::Keyword keyword{"command line factoring probe",
                                  search::KeywordClass::kGranular, 5000};
    testbed::FetchFactoringResult r = testbed::run_fetch_factoring_experiment(
        so, keyword, cli.reps, plan, eo.flight);
    std::printf("# experiment=factoring service=%s reps=%zu seed=%llu\n",
                cli.service.c_str(), cli.reps,
                static_cast<unsigned long long>(cli.seed));
    std::printf("distance_miles\tmed_t_dynamic_ms\n");
    for (std::size_t i = 0; i < r.distances_miles.size(); ++i) {
      std::printf("%.1f\t%.2f\n", r.distances_miles[i],
                  r.med_t_dynamic_ms[i]);
    }
    std::printf("# %s\n", r.factoring.to_string().c_str());
    result = std::move(r.campaign);
  } else {
    result = fixed_fe ? testbed::run_fixed_fe_experiment(so, 0, eo, plan)
                      : testbed::run_default_fe_experiment(so, eo, plan);
    std::printf("# experiment=%s service=%s clients=%zu reps=%zu seed=%llu "
                "boundary=%zu\n",
                cli.experiment.c_str(), cli.service.c_str(), cli.clients,
                cli.reps, static_cast<unsigned long long>(cli.seed),
                result.boundary);
    std::printf("node\trtt_ms\tt_static_ms\tt_dynamic_ms\tt_delta_ms\t"
                "overall_ms\tsamples\n");
    for (const auto& n : result.per_node) {
      std::printf("%s\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%zu\n",
                  n.node_name.c_str(), n.rtt_ms, n.med_static_ms,
                  n.med_dynamic_ms, n.med_delta_ms, n.med_overall_ms,
                  n.samples);
    }
    const auto threshold = core::estimate_delta_threshold(result.per_node);
    std::printf("# %s\n", threshold.to_string().c_str());
    if (!cli.save_traces.empty()) {
      std::fprintf(stderr, "traces of %zu vantage points saved under %s\n",
                   result.per_node.size(), cli.save_traces.c_str());
    }
  }
  write_obs_outputs(cli, result.trace.get(), result.metrics);
  write_timeseries_outputs(cli, result.timeseries, &result.executor_stats);
  write_attribution_outputs(cli, result.attribution, result.flight);
  print_memory_summary(so.stream_analysis);
  return 0;
}

int run_caching(const CliOptions& cli) {
  testbed::ScenarioOptions so = scenario_options(cli);
  so.client_count = std::max<std::size_t>(cli.clients, 4);
  testbed::Scenario scenario(so);
  scenario.warm_up();

  // Probe from the lowest-RTT vantage point (see EXPERIMENTS.md).
  std::size_t probe = 0;
  sim::SimTime best = sim::SimTime::infinity();
  for (std::size_t i = 0; i < scenario.clients().size(); ++i) {
    if (scenario.client_fe_rtt(i, 0) < best) {
      best = scenario.client_fe_rtt(i, 0);
      probe = i;
    }
  }
  const auto r =
      testbed::run_caching_experiment(scenario, probe, 0, cli.reps);
  std::printf("# experiment=caching service=%s reps=%zu seed=%llu\n",
              cli.service.c_str(), cli.reps,
              static_cast<unsigned long long>(cli.seed));
  std::printf("same_median_ms\t%.2f\ndistinct_median_ms\t%.2f\n"
              "ks_statistic\t%.4f\nks_p_value\t%.6f\ncaching_detected\t%s\n",
              r.detection.median_same_ms, r.detection.median_distinct_ms,
              r.detection.ks.statistic, r.detection.ks.p_value,
              r.detection.caching_detected ? "yes" : "no");
  obs::MetricsRegistry metrics;
  scenario.collect_metrics(metrics);
  write_obs_outputs(cli, scenario.trace(), metrics);
  if (scenario.timeseries() != nullptr) {
    write_timeseries_outputs(cli, *scenario.timeseries(), nullptr);
  }
  print_memory_summary(so.stream_analysis);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = parse_args(argc, argv);
  if (!cli) return 2;
  try {
    if (cli->experiment == "caching") return run_caching(*cli);
    return run_measurement(*cli);
  } catch (const std::exception& e) {
    // E.g. a malformed DYNCDN_THREADS or DYNCDN_CAPTURE_BUDGET.
    std::fprintf(stderr, "dyncdn_experiment: %s\n", e.what());
    return 1;
  }
}

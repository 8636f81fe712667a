// Campaign benchmark runner.
//
// Runs one of the paper's measurement campaigns end to end through the
// public testbed API (ScenarioOptions -> ReplicaPlan runner -> merged
// ExperimentResult) and prints one JSON result line.
//
//   campaign_bench --workload NAME --seed N --seconds S --trace 0|1
//                  [--scale full|tiny] [--spans-out FILE] [--git-sha SHA]
//   campaign_bench --workload NAME --seed N [--scale ...] [--part P]
//                  --setup-probe K
//
// One --seed stands for kParts generated scenarios (parts). --setup-probe K
// only times K set-ups of part P and prints one per line; the end-to-end
// mode starts such probes as child processes.
//
// --trace 0 measures the end-to-end metrics: set-up time of one scenario
// (median over short-lived probe processes of this binary, started with
// --setup-probe throughout the run), campaign queries/s (analyzed queries
// over campaign wall seconds, pooled over whole cycles through the parts
// for about S seconds, after one discarded warm campaign), process peak RSS
// and the analyzed fraction of submitted queries.
//
// --trace 1 drives part P's campaign phase by phase (constructor, warm_up,
// discover_boundary, schedule + run, analyze_client_trace, collect_*),
// records a wall-clock span around every call, reconciles the phase spans
// against the traced wall clock, times single layers from outside (routing,
// RNG stream lookup, content synthesis, streaming and post-hoc analysis) and
// prints the per-layer metrics: medians over the traced campaigns that fit
// in S seconds. The first campaign's spans are written to --spans-out.
//
// Both modes check correctness: every campaign of a part must give the same
// per-node digest, the traced run must reproduce the untraced one node for
// node, a replica campaign must give the same digest at 1 thread as at N,
// every query must satisfy T_delta <= T_dynamic, and the boundary must be
// non-zero. A failed check sets "correct": false; it is never a metric.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "analysis/streaming.hpp"
#include "analysis/timeline.hpp"
#include "core/inference.hpp"
#include "core/timings.hpp"
#include "obs/memory.hpp"
#include "obs/metrics.hpp"
#include "parallel/replica.hpp"
#include "search/keywords.hpp"
#include "testbed/experiment.hpp"
#include "testbed/parallel_experiment.hpp"
#include "testbed/scenario.hpp"

namespace {

using namespace dyncdn;
using Clock = std::chrono::steady_clock;
using namespace dyncdn::sim::literals;

constexpr net::Port kServicePort = 80;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// Percentile with linear interpolation between order statistics,
/// q in [0, 1].
double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------- workloads

struct Workload {
  std::string name;
  testbed::ScenarioOptions scenario;
  testbed::ExperimentOptions experiment;
  std::optional<std::size_t> fixed_fe;  // nullopt: each VP's default FE
  testbed::ReplicaPlan plan;

  std::size_t submitted() const {
    return testbed::planned_client_count(scenario) *
           experiment.reps_per_node;
  }
};

/// Scenarios per run. The end-to-end run cycles its campaigns through
/// kParts scenarios generated from one --seed, so that a run's figures rest
/// on several generated topologies, not on one: set-up time alone differed
/// by 40% between two seeds' topologies.
constexpr std::size_t kParts = 4;

/// ScenarioOptions::seed of part `part` of the run with seed `seed`; the
/// parts of different seeds never share a scenario.
std::uint64_t part_seed(std::uint64_t seed, std::size_t part) {
  return seed * kParts + part;
}

/// The simulator sees only what this builds from (name, seed, scale).
Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool tiny) {
  Workload w;
  w.name = name;
  w.scenario.seed = seed;
  w.scenario.sim_shards = 1;  // the PDES layout is not measured here
  w.experiment.interval = 1200_ms;
  const search::KeywordCatalog catalog(5);
  w.experiment.keywords = catalog.figure3_keywords();
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());

  if (name == "fixed_fe_steady") {
    // Datasets B: every VP queries FE 0 in one serial scenario, streaming.
    w.scenario.profile = cdn::google_like_profile();
    w.scenario.client_count = tiny ? 8 : 200;
    w.scenario.stream_analysis = true;
    w.experiment.reps_per_node = tiny ? 3 : 50;
    w.fixed_fe = 0;
    w.plan.shards = 1;
    w.plan.executor.threads = 1;
  } else if (name == "replica_fanout") {
    // Datasets A in the CLI-default layout: one replica per VP.
    w.scenario.profile = cdn::bing_like_profile();
    w.scenario.client_count = tiny ? 6 : 400;
    w.scenario.stream_analysis = true;
    w.experiment.reps_per_node = tiny ? 1 : 2;
    w.plan.shards = 0;
    w.plan.executor.threads = std::min<std::size_t>(4, hw);
  } else if (name == "lossy_capture") {
    // Zipf keywords, half the VPs wireless, 1% reordering, retained capture
    // with post-hoc timeline extraction.
    w.scenario.profile = cdn::bing_like_profile();
    w.scenario.client_count = tiny ? 8 : 200;
    w.scenario.stream_analysis = false;
    w.scenario.wireless_fraction = 0.5;
    w.scenario.client_link_reorder = 0.01;
    w.experiment.reps_per_node = tiny ? 3 : 40;
    w.experiment.zipf = testbed::ExperimentOptions::ZipfWorkload{500, 1.0};
    w.plan.shards = 1;
    w.plan.executor.threads = 1;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

testbed::ExperimentResult run_campaign(const Workload& w,
                                       const testbed::ReplicaPlan& plan) {
  return w.fixed_fe ? testbed::run_fixed_fe_experiment(
                          w.scenario, *w.fixed_fe, w.experiment, plan)
                    : testbed::run_default_fe_experiment(w.scenario,
                                                         w.experiment, plan);
}

std::size_t analyzed_queries(
    const std::vector<std::vector<core::QueryTimings>>& per_node) {
  std::size_t n = 0;
  for (const auto& v : per_node) n += v.size();
  return n;
}

// ------------------------------------------------------ digests and checks

class Fnv {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  template <class T>
  void value(const T& v) {
    bytes(&v, sizeof v);
  }
  std::uint64_t get() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t node_digest(const std::vector<core::QueryTimings>& timings) {
  Fnv h;
  h.value(timings.size());
  for (const core::QueryTimings& t : timings) {
    h.value(t.rtt_ms);
    h.value(t.t_static_ms);
    h.value(t.t_dynamic_ms);
    h.value(t.t_delta_ms);
    h.value(t.overall_ms);
    h.value(t.static_bytes);
    h.value(t.dynamic_bytes);
  }
  return h.get();
}

std::vector<std::uint64_t> node_digests(
    const std::vector<std::vector<core::QueryTimings>>& per_node) {
  std::vector<std::uint64_t> out;
  out.reserve(per_node.size());
  for (const auto& t : per_node) out.push_back(node_digest(t));
  return out;
}

std::uint64_t campaign_digest(const std::vector<std::uint64_t>& nodes,
                              std::size_t boundary) {
  Fnv h;
  h.value(boundary);
  for (const std::uint64_t d : nodes) h.value(d);
  return h.get();
}

class Checker {
 public:
  void require(bool condition, const std::string& what) {
    if (condition) return;
    if (failures_ < 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    ++failures_;
  }
  bool ok() const { return failures_ == 0; }

 private:
  std::size_t failures_ = 0;
};

/// Paper invariants every campaign must satisfy.
void check_campaign(Checker& check, std::size_t boundary,
                    const std::vector<std::vector<core::QueryTimings>>& per_node,
                    std::size_t submitted) {
  check.require(boundary > 0, "static/dynamic boundary is zero");
  std::size_t bad = 0;
  for (const auto& node : per_node) {
    for (const core::QueryTimings& t : node) {
      if (!(t.t_delta_ms <= t.t_dynamic_ms) || !(t.t_dynamic_ms > 0)) ++bad;
    }
  }
  check.require(bad == 0, std::to_string(bad) +
                              " queries violate 0 < T_delta <= T_dynamic");
  const std::size_t analyzed = analyzed_queries(per_node);
  check.require(analyzed > 0 && analyzed <= submitted,
                "analyzed " + std::to_string(analyzed) + " of " +
                    std::to_string(submitted) + " submitted queries");
}

// ------------------------------------------------------------------ tracing

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int64_t parent;  // index into the span list, -1 for a root
  std::uint32_t replica;
};

/// In-memory span recorder for the single thread that drives a traced run.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) { spans_.reserve(8192); }

  void begin(const char* name, std::uint32_t replica = 0) {
    const std::int64_t parent =
        open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
    open_.push_back(spans_.size());
    spans_.push_back(Span{name, now_ns(), 0, parent, replica});
  }
  void end() {
    spans_[open_.back()].end_ns = now_ns();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration of every span called `name`, in seconds.
  double total_s(std::string_view name) const {
    std::int64_t ns = 0;
    for (const Span& s : spans_) {
      if (name == s.name) ns += s.end_ns - s.start_ns;
    }
    return static_cast<double>(ns) / 1e9;
  }
  std::vector<double> durations_s(std::string_view name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e9);
      }
    }
    return out;
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint32_t replica = 0)
      : tracer_(tracer) {
    tracer_.begin(name, replica);
  }
  ~ScopedSpan() { tracer_.end(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
};

/// The campaign phases; together they must cover the traced wall clock.
constexpr const char* kPhases[] = {
    "testbed.build",  "testbed.warm_up", "analysis.boundary",
    "sim.schedule",   "sim.run",         "analysis.probe",
    "analysis.drain", "metrics.collect", "testbed.teardown"};

// -------------------------------------------------- traced per-phase drive

/// Output of the traced campaign, in fleet order.
struct TracedCampaign {
  std::size_t boundary = 0;
  std::vector<std::vector<core::QueryTimings>> per_node;
  obs::MetricsRegistry metrics;  // collect_metrics, merged
  obs::MetricsRegistry kernel;   // collect_kernel_metrics, merged
  std::int64_t analyzer_bytes_peak = 0;  // max over scenarios
  std::int64_t retained_bytes_peak = 0;  // max over scenarios, probes excluded
  std::uint64_t failed_results = 0;       // QueryResult::failed callbacks
  std::vector<search::Keyword> keyword_draws;
  std::size_t probe_mismatches = 0;
  std::size_t probed_clients = 0;
  std::uint64_t stream_late_packets = 0;   // StreamingAnalyzer::late_packets
  std::size_t stream_late_divergent = 0;   // replays that diverged with them
};

struct Replay {
  std::vector<core::QueryTimings> timings;
  std::uint64_t late_packets = 0;
};

/// A capture fed through a fresh StreamingAnalyzer with the boundary known
/// up front, so flows collapse at teardown as in a streaming campaign.
Replay replay_streaming(const capture::PacketTrace& trace,
                        std::size_t boundary) {
  analysis::StreamingAnalyzer analyzer(kServicePort);
  analyzer.set_boundary(boundary);
  for (const capture::PacketRecordView v : trace.records()) {
    analyzer.on_packet(capture::PacketRecord{v.timestamp, v.direction, v.src,
                                             v.dst, v.tcp, v.payload_size,
                                             v.payload});
  }
  Replay out;
  out.timings = core::timings_from_timelines(analyzer.drain(boundary));
  out.late_packets = analyzer.late_packets();
  return out;
}

bool same_timings(const std::vector<core::QueryTimings>& a,
                  const std::vector<core::QueryTimings>& b) {
  return node_digest(a) == node_digest(b);
}

/// Drives one scenario (a whole serial campaign, or one replica) through the
/// public per-phase calls in the order run_experiment_subset makes them,
/// then destroys it. `probe` lists the clients whose captures the analysis
/// probes replay.
void drive_scenario(
    const Workload& w, std::span<const std::size_t> subset,
    std::span<const std::size_t> probe, std::uint32_t replica, Tracer& tracer,
    TracedCampaign& out) {
  ScopedSpan replica_span(tracer, "replica", replica);
  std::unique_ptr<testbed::Scenario> sc;
  {
    ScopedSpan s(tracer, "testbed.build", replica);
    sc = std::make_unique<testbed::Scenario>(w.scenario);
  }
  {
    ScopedSpan s(tracer, "testbed.warm_up", replica);
    sc->warm_up(w.plan.warm_up);
  }
  auto& clients = sc->clients();
  const auto fe_for = [&](std::size_t i) {
    return w.fixed_fe ? *w.fixed_fe : clients[i].default_fe;
  };
  std::size_t boundary = 0;
  {
    ScopedSpan s(tracer, "analysis.boundary", replica);
    boundary = testbed::discover_boundary(*sc, 0, fe_for(0));
    sc->set_stream_boundary(boundary);
  }
  out.boundary = boundary;
  {
    ScopedSpan s(tracer, "sim.schedule", replica);
    for (const std::size_t i : probe) {
      clients[i].recorder->set_retain_packets(true);
    }
    sim::Simulator& simulator = sc->simulator();
    std::uint64_t* failed = &out.failed_results;
    for (const std::size_t i : subset) {
      const std::size_t fe = fe_for(i);
      sc->connect_client_to_fe(i, fe);
      const net::Endpoint endpoint = sc->fe_endpoint(fe);
      std::vector<search::Keyword> sequence;
      if (w.experiment.zipf) {
        const search::KeywordCatalog catalog(simulator.rng().seed());
        const auto universe = catalog.generate(
            search::KeywordClass::kPopular, w.experiment.zipf->catalog_size);
        sim::RngStream draw_rng = simulator.rng().stream(
            "experiment/zipf/" + clients[i].vantage.name);
        sequence = search::KeywordCatalog::zipf_sample(
            universe, w.experiment.reps_per_node, w.experiment.zipf->alpha,
            draw_rng);
      }
      for (std::size_t r = 0; r < w.experiment.reps_per_node; ++r) {
        const search::Keyword kw =
            w.experiment.zipf
                ? sequence[r]
                : w.experiment.keywords[r % w.experiment.keywords.size()];
        out.keyword_draws.push_back(kw);
        const sim::SimTime at =
            w.experiment.stagger * static_cast<std::int64_t>(i) +
            w.experiment.interval * static_cast<std::int64_t>(r);
        clients[i].node->simulator().schedule_in(
            at, [&clients, i, endpoint, kw, failed]() {
              clients[i].query_client->submit(
                  endpoint, kw, [failed](const cdn::QueryResult& result) {
                    if (result.failed) ++*failed;
                  });
            });
      }
    }
  }
  {
    ScopedSpan s(tracer, "sim.run", replica);
    sc->run();
  }
  // Probes replay captures before analyze_client_trace clears them (capture
  // mode); in streaming mode they read the retention switched on above.
  std::vector<std::vector<core::QueryTimings>> posthoc;
  std::vector<Replay> replayed;
  {
    ScopedSpan s(tracer, "analysis.probe", replica);
    {
      ScopedSpan p(tracer, "analysis.posthoc", replica);
      for (const std::size_t i : probe) {
        posthoc.push_back(core::timings_from_timelines(
            analysis::extract_all_timelines(clients[i].recorder->trace(),
                                            kServicePort, boundary)));
      }
    }
    {
      ScopedSpan p(tracer, "analysis.stream_replay", replica);
      for (const std::size_t i : probe) {
        replayed.push_back(
            replay_streaming(clients[i].recorder->trace(), boundary));
      }
    }
  }
  {
    ScopedSpan s(tracer, "analysis.drain", replica);
    for (const std::size_t i : subset) {
      auto timings = testbed::analyze_client_trace(clients[i], boundary);
      // run_experiment_subset aggregates each node here; so does the drive.
      core::aggregate_node(clients[i].vantage.name, timings);
      out.per_node[i] = std::move(timings);
    }
  }
  obs::MetricsRegistry memory;
  {
    ScopedSpan s(tracer, "metrics.collect", replica);
    sc->collect_metrics(out.metrics);
    sc->collect_kernel_metrics(out.kernel);
    sc->collect_memory_metrics(memory);
  }
  // Retention switched on only for the probes is not the workload's own.
  std::int64_t retained = memory.gauge("capture_retained_bytes_peak");
  for (const std::size_t i : probe) {
    if (w.scenario.stream_analysis) {
      retained -= static_cast<std::int64_t>(
          clients[i].recorder->peak_retained_bytes());
    }
  }
  out.retained_bytes_peak = std::max(out.retained_bytes_peak, retained);
  out.analyzer_bytes_peak = std::max(
      out.analyzer_bytes_peak, memory.gauge("analyzer_live_bytes_peak"));
  for (std::size_t k = 0; k < probe.size(); ++k) {
    const std::size_t i = probe[k];
    ++out.probed_clients;
    if (!same_timings(posthoc[k], out.per_node[i])) ++out.probe_mismatches;
    // The analyzer's contract is equality with post-hoc extraction unless
    // it saw packets for a flow it had already collapsed (late_packets).
    out.stream_late_packets += replayed[k].late_packets;
    if (!same_timings(replayed[k].timings, out.per_node[i])) {
      if (replayed[k].late_packets == 0) {
        ++out.probe_mismatches;
      } else {
        ++out.stream_late_divergent;
      }
    }
  }
  {
    ScopedSpan s(tracer, "testbed.teardown", replica);
    sc.reset();
  }
}

/// At most `count` indices of [0, n), evenly spread.
std::vector<std::size_t> spread(std::size_t n, std::size_t count) {
  std::vector<std::size_t> out;
  const std::size_t stride = std::max<std::size_t>(1, n / count);
  for (std::size_t i = 0; i < n && out.size() < count; i += stride) {
    out.push_back(i);
  }
  return out;
}

constexpr std::size_t kProbeClients = 8;

/// The traced campaign: one scenario for a serial workload, every replica in
/// turn (on this thread, one alive at a time) for a replica workload.
void drive_campaign(const Workload& w, Tracer& tracer, TracedCampaign& out) {
  const std::size_t clients = testbed::planned_client_count(w.scenario);
  out.per_node.assign(clients, {});
  ScopedSpan root(tracer, "campaign");
  if (w.plan.shards == 1) {
    std::vector<std::size_t> all(clients);
    for (std::size_t i = 0; i < clients; ++i) all[i] = i;
    const auto probe = spread(clients, kProbeClients);
    drive_scenario(w, all, probe, 0, tracer, out);
    return;
  }
  if (w.plan.shards != 0) {
    throw std::logic_error("traced drive supports shards 0 and 1 only");
  }
  const auto probed = spread(clients, kProbeClients);
  for (std::size_t k = 0; k < clients; ++k) {
    const std::size_t one[] = {k};
    const bool is_probe =
        std::find(probed.begin(), probed.end(), k) != probed.end();
    drive_scenario(w, one,
                   is_probe ? std::span<const std::size_t>(one)
                            : std::span<const std::size_t>(),
                   static_cast<std::uint32_t>(k), tracer, out);
  }
}

// ------------------------------------------------------------ layer probes

/// Median seconds of one Network::compute_routes on the built network.
double time_compute_routes(testbed::Scenario& sc, int reps) {
  std::vector<double> xs;
  for (int i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    sc.network().compute_routes();
    xs.push_back(seconds_since(start));
  }
  return median(xs);
}

/// Median nanoseconds of one RngFactory::stream lookup, over the names the
/// network gives its client access links.
double time_rng_stream_ns(testbed::Scenario& sc, std::size_t calls) {
  std::vector<std::string> names;
  for (auto& c : sc.clients()) {
    names.push_back("link/" + c.node->name() + "->" +
                    sc.fes()[c.default_fe].node->name());
  }
  const sim::RngFactory& rng = sc.simulator().rng();
  std::vector<double> xs;
  std::uint64_t sink = 0;
  for (int batch = 0; batch < 5; ++batch) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) {
      sim::RngStream s = rng.stream(names[i % names.size()]);
      sink += s.engine()();
    }
    xs.push_back(seconds_since(start) * 1e9 / static_cast<double>(calls));
  }
  if (sink == 42) std::fprintf(stderr, " ");  // keep the draws observable
  return median(xs);
}

struct BodyReplay {
  double seconds = 0;
  std::uint64_t bytes = 0;
};

/// ContentModel::dynamic_body over the campaign's keyword draws, one call
/// per query the BE served.
BodyReplay time_dynamic_body(testbed::Scenario& sc,
                             const std::vector<search::Keyword>& draws,
                             std::uint64_t calls) {
  BodyReplay out;
  if (draws.empty()) return out;
  sim::RngStream rng = sc.simulator().rng().stream("bench/content");
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < calls; ++i) {
    out.bytes += sc.content().dynamic_body(draws[i % draws.size()], rng).size();
  }
  out.seconds = seconds_since(start);
  return out;
}

// ------------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string fmt(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void write_spans(const std::string& path, const std::string& manifest,
                 const Tracer& tracer) {
  std::ofstream f(path);
  if (!f) {
    throw std::runtime_error("cannot write spans to " + path);
  }
  f << "{\"manifest\": " << manifest << ",\n \"spans\": [";
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    f << (i == 0 ? "\n  " : ",\n  ") << "{\"id\": " << i << ", \"name\": \""
      << s.name << "\", \"parent\": " << s.parent
      << ", \"replica\": " << s.replica << ", \"start_us\": "
      << fmt(static_cast<double>(s.start_ns) / 1e3) << ", \"dur_us\": "
      << fmt(static_cast<double>(s.end_ns - s.start_ns) / 1e3) << "}";
  }
  f << "\n ]}\n";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool tiny = false;
  std::string spans_out;
  std::string git_sha = "unknown";
  std::size_t setup_probe = 0;  // > 0: only time this many set-ups
  std::size_t part = 0;         // scenario of the run (setup probes, traced)
};

std::uint64_t parse_uint(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0' || errno != 0 || v[0] == '-') {
    throw std::invalid_argument(flag + " needs a whole number, got '" + v +
                                "'");
  }
  return x;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = parse_uint(flag, v);
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_uint(flag, v));
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace 0|1");
      a.trace = v == "1";
    } else if (flag == "--scale") {
      if (v != "full" && v != "tiny") {
        throw std::invalid_argument("--scale full|tiny");
      }
      a.tiny = v == "tiny";
    } else if (flag == "--spans-out") {
      a.spans_out = v;
    } else if (flag == "--git-sha") {
      a.git_sha = v;
    } else if (flag == "--setup-probe") {
      a.setup_probe = parse_uint(flag, v);
    } else if (flag == "--part") {
      a.part = parse_uint(flag, v);
      if (a.part >= kParts) {
        throw std::invalid_argument("--part must be below " +
                                    std::to_string(kParts));
      }
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

std::string manifest_json(const Args& a, const Workload& w) {
  const std::size_t threads = w.plan.executor.threads;
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::string m = "{";
  m += "\"git_sha\": \"" + json_escape(a.git_sha) + "\"";
  m += ", \"build_type\": \"" CAMPAIGN_BENCH_BUILD_TYPE "\"";
  m += ", \"DYNCDN_OBS\": " + std::to_string(DYNCDN_OBS);
  m += ", \"DYNCDN_MEM_TRACK\": " + std::to_string(DYNCDN_MEM_TRACK);
  m += ", \"nproc\": " + std::to_string(nproc);
  m += ", \"threads\": " + std::to_string(threads);
  m += std::string(", \"oversubscribed\": ") +
       (threads > nproc ? "true" : "false");
  m += ", \"workload\": \"" + w.name + "\"";
  m += ", \"seed\": " + std::to_string(a.seed);
  // The end-to-end run cycles through every part; the traced run uses one.
  m += ", \"scenario_seeds\": [";
  for (std::size_t k = 0; k < kParts; ++k) {
    if (a.trace == 0 || k == a.part) {
      m += (m.back() == '[' ? "" : ", ") +
           std::to_string(part_seed(a.seed, k));
    }
  }
  m += "]";
  m += ", \"seconds\": " + fmt(a.seconds);
  m += ", \"trace\": " + std::to_string(a.trace);
  m += std::string(", \"scale\": \"") + (a.tiny ? "tiny" : "full") + "\"";
  m += ", \"clients\": " +
       std::to_string(testbed::planned_client_count(w.scenario));
  m += ", \"reps\": " + std::to_string(w.experiment.reps_per_node);
  m += ", \"replica_shards\": " + std::to_string(w.plan.shards);
  m += ", \"sim_shards\": 1";
  m += std::string(", \"analysis\": \"") +
       (w.scenario.stream_analysis ? "streaming" : "capture") + "\"";
  m += "}";
  return m;
}

struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
};

// ------------------------------------------------------- end-to-end mode

/// Seconds of `count` set-ups (construction plus warm-up of one scenario),
/// built one after another in this process.
std::vector<double> time_setups(const Workload& w, std::size_t count) {
  std::vector<double> xs;
  for (std::size_t r = 0; r < count; ++r) {
    const auto start = Clock::now();
    testbed::Scenario sc(w.scenario);
    sc.warm_up(w.plan.warm_up);
    xs.push_back(seconds_since(start));
  }
  return xs;
}

/// Runs this binary again with --setup-probe and returns the set-up times
/// the child prints for scenario `part` of the run. A fresh process gets a
/// fresh randomized address-space layout, and set-up time depends on the
/// layout: processes of one binary and seed clustered at 1.5 ms or 2.4 ms
/// (tiny fixed_fe_steady), so one process alone reports whichever cluster it
/// drew.
std::vector<double> setups_in_child(const Args& a, std::size_t part,
                                    std::size_t count) {
  std::vector<std::string> args = {"campaign_bench",
                                   "--workload",
                                   a.workload,
                                   "--seed",
                                   std::to_string(a.seed),
                                   "--part",
                                   std::to_string(part),
                                   "--scale",
                                   a.tiny ? "tiny" : "full",
                                   "--setup-probe",
                                   std::to_string(count)};
  std::vector<char*> argv;
  for (std::string& s : args) argv.push_back(s.data());
  argv.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string text;
  if (rc == 0) {
    char buf[4096];
    ssize_t n = 0;
    while ((n = read(fds[0], buf, sizeof buf)) != 0) {
      if (n > 0) {
        text.append(buf, static_cast<std::size_t>(n));
      } else if (errno != EINTR) {
        break;
      }
    }
  }
  close(fds[0]);
  if (rc != 0) throw std::runtime_error("cannot start a set-up probe");
  int status = 0;
  while (waitpid(pid, &status, 0) == -1 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up probe failed");
  }
  std::vector<double> xs;
  const char* p = text.c_str();
  char* end = nullptr;
  for (double x = std::strtod(p, &end); end != p; x = std::strtod(p, &end)) {
    xs.push_back(x);
    p = end;
  }
  if (xs.size() != count) throw std::runtime_error("malformed set-up probe");
  return xs;
}

/// Set-ups per probe process. The first one in a process pays for faulting
/// in a fresh heap (about 40% slower) and is dropped; the probe's sample is
/// the median of the rest.
constexpr std::size_t kSetupsPerProbe = 6;
constexpr std::size_t kProbesPerCampaign = 2;

Outcome measure_end_to_end(const Args& a, Checker& check) {
  Outcome out;
  std::vector<Workload> parts;
  for (std::size_t k = 0; k < kParts; ++k) {
    parts.push_back(make_workload(a.workload, part_seed(a.seed, k), a.tiny));
  }
  // Set-up is timed on its own in fresh processes before every campaign, so
  // that the samples see both many address-space layouts and the same mix
  // of host conditions as the campaigns.
  std::vector<double> setups;
  const auto probe_setup = [&](std::size_t part) {
    for (std::size_t p = 0; p < kProbesPerCampaign; ++p) {
      std::vector<double> xs = setups_in_child(a, part, kSetupsPerProbe);
      xs.erase(xs.begin());
      setups.push_back(median(xs));
    }
  };

  // Every campaign of a part must give the digest of its first one. One
  // warm campaign of part 0 is discarded from the timing.
  std::vector<std::optional<std::uint64_t>> reference(kParts);
  const auto check_digest = [&](std::size_t k,
                                const testbed::ExperimentResult& r) {
    check_campaign(check, r.boundary, r.per_node_timings,
                   parts[k].submitted());
    const std::uint64_t d =
        campaign_digest(node_digests(r.per_node_timings), r.boundary);
    if (!reference[k]) reference[k] = d;
    check.require(*reference[k] == d,
                  "a campaign of part " + std::to_string(k) +
                      " differs from the first campaign of that part");
  };
  probe_setup(0);
  check_digest(0, run_campaign(parts[0], parts[0].plan));

  // Whole cycles over the parts, so that each weighs the same; a cycle is
  // started if at least half of it is expected to fit in --seconds, so the
  // timed window is --seconds give or take half a cycle.
  std::vector<double> qps;
  double wall_total = 0;
  std::size_t analyzed_total = 0;
  std::size_t submitted_total = 0;
  double last_cycle_s = 0;
  const auto window = Clock::now();
  for (std::size_t cycle = 0;
       cycle < 2 || seconds_since(window) + last_cycle_s / 2 <= a.seconds;
       ++cycle) {
    const auto cycle_start = Clock::now();
    for (std::size_t k = 0; k < kParts; ++k) {
      probe_setup(k);
      const auto start = Clock::now();
      const testbed::ExperimentResult r = run_campaign(parts[k], parts[k].plan);
      const double wall = seconds_since(start);
      const std::size_t analyzed = analyzed_queries(r.per_node_timings);
      const std::size_t submitted = parts[k].submitted();
      qps.push_back(static_cast<double>(analyzed) / wall);
      wall_total += wall;
      analyzed_total += analyzed;
      submitted_total += submitted;
      out.failed += submitted - std::min(submitted, analyzed);
      check_digest(k, r);
    }
    last_cycle_s = seconds_since(cycle_start);
  }
  out.attempted = submitted_total;

  // Pooled over the whole run: analyzed queries over campaign wall seconds.
  // On a shared host the speed of the same code drifts by a third over tens
  // of seconds, so no single campaign, percentile or best stands for a run;
  // the pooled rate averages the drift over every campaign.
  out.metrics = {
      {"queries_per_s", ratio(static_cast<double>(analyzed_total), wall_total),
       "1/s"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", static_cast<double>(obs::peak_rss_bytes()) / 1e6, "MB"},
      {"analyzed_query_frac",
       ratio(static_cast<double>(analyzed_total),
             static_cast<double>(submitted_total)),
       "ratio"},
  };
  std::printf("campaign queries/s, parts 0-%zu in turn (median %.1f):",
              kParts - 1, median(qps));
  for (const double q : qps) std::printf(" %.1f", q);
  std::printf("\nsetup ms (median %.3f):", median(setups) * 1e3);
  for (const double x : setups) std::printf(" %.3f", x * 1e3);
  std::printf("\n");
  return out;
}

// ------------------------------------------------------------ traced mode

/// One traced campaign, checked against the untraced reference `ref`, then
/// an untraced 1-thread campaign for the overhead, then the layer timings.
Outcome traced_campaign(const Workload& w, bool tiny,
                        const testbed::ExperimentResult& ref, Checker& check,
                        Tracer& tracer) {
  Outcome out;
  const std::size_t submitted = w.submitted();
  const auto ref_nodes = node_digests(ref.per_node_timings);

  // Traced per-phase drive.
  TracedCampaign traced;
  const obs::MemorySnapshot mem_before = obs::memory_snapshot();
  drive_campaign(w, tracer, traced);
  const obs::MemorySnapshot mem_after = obs::memory_snapshot();
  check_campaign(check, traced.boundary, traced.per_node, submitted);
  check.require(traced.boundary == ref.boundary,
                "traced boundary differs from the untraced run");
  const auto traced_nodes = node_digests(traced.per_node);
  std::size_t node_mismatch = 0;
  for (std::size_t i = 0; i < ref_nodes.size(); ++i) {
    if (i >= traced_nodes.size() || traced_nodes[i] != ref_nodes[i]) {
      ++node_mismatch;
    }
  }
  check.require(node_mismatch == 0 && traced_nodes.size() == ref_nodes.size(),
                std::to_string(node_mismatch) +
                    " nodes differ between the traced and untraced runs");
  for (const auto& [name, value] : traced.metrics.counters()) {
    check.require(ref.metrics.counter(name) == value,
                  "counter " + name + " differs between traced and untraced");
  }
  check.require(traced.probe_mismatches == 0,
                std::to_string(traced.probe_mismatches) +
                    " probe replays disagree with analyze_client_trace");

  // Untraced comparator on one thread (the traced drive's layout): timing
  // for the tracing overhead, and the 1-thread vs N-thread digest check.
  testbed::ReplicaPlan one_thread = w.plan;
  one_thread.executor.threads = 1;
  const auto start = Clock::now();
  const testbed::ExperimentResult serial = run_campaign(w, one_thread);
  const double untraced_wall = seconds_since(start);
  check.require(campaign_digest(node_digests(serial.per_node_timings),
                                serial.boundary) ==
                    campaign_digest(ref_nodes, ref.boundary),
                "1-thread campaign digest differs from the " +
                    std::to_string(w.plan.executor.threads) +
                    "-thread campaign");

  // Reconciliation: the phases must cover the traced wall clock.
  const double wall = tracer.total_s("campaign");
  double phases = 0;
  for (const char* p : kPhases) phases += tracer.total_s(p);
  const double gap = wall - phases;
  const double probe_s = tracer.total_s("analysis.probe");
  const std::size_t analyzed = analyzed_queries(traced.per_node);
  // A query fails if its result says so or it yields no timeline.
  out.attempted = submitted;
  out.failed = std::max<std::size_t>(submitted - std::min(submitted, analyzed),
                                     traced.failed_results);

  // Single-layer timings on a freshly built and warmed scenario.
  double routes_s = 0;
  double rng_ns = 0;
  BodyReplay body;
  {
    ScopedSpan layers(tracer, "layers");
    const auto kept = std::make_unique<testbed::Scenario>(w.scenario);
    kept->warm_up(w.plan.warm_up);
    {
      ScopedSpan s(tracer, "net.compute_routes");
      routes_s = time_compute_routes(*kept, tiny ? 1 : 5);
    }
    {
      ScopedSpan s(tracer, "sim.rng_stream");
      rng_ns = time_rng_stream_ns(*kept, tiny ? 1000 : 40000);
    }
    {
      ScopedSpan s(tracer, "search.dynamic_body");
      body = time_dynamic_body(*kept, traced.keyword_draws,
                               traced.metrics.counter("be_queries_served"));
    }
  }

  const auto& m = traced.metrics;
  const double segments = static_cast<double>(m.counter("tcp_segments_sent"));
  const double retx = static_cast<double>(m.counter("tcp_retransmits_rto") +
                                          m.counter("tcp_retransmits_fast"));
  const auto& ex = ref.executor_stats;
  const auto replicas = tracer.durations_s("replica");
  const double events =
      static_cast<double>(traced.kernel.counter("sim_events_executed"));
  const double allocs =
      static_cast<double>(mem_after.allocations - mem_before.allocations);

  out.metrics = {
      {"testbed.build_s", tracer.total_s("testbed.build"), "s"},
      {"testbed.warm_up_s", tracer.total_s("testbed.warm_up"), "s"},
      {"testbed.teardown_s", tracer.total_s("testbed.teardown"), "s"},
      {"analysis.boundary_s", tracer.total_s("analysis.boundary"), "s"},
      {"sim.schedule_s", tracer.total_s("sim.schedule"), "s"},
      {"sim.run_s", tracer.total_s("sim.run"), "s"},
      {"analysis.drain_s", tracer.total_s("analysis.drain"), "s"},
      {"metrics.collect_s", tracer.total_s("metrics.collect"), "s"},
      {"analysis.posthoc_s", tracer.total_s("analysis.posthoc"), "s"},
      {"analysis.stream_replay_s", tracer.total_s("analysis.stream_replay"),
       "s"},
      {"net.compute_routes_s", routes_s, "s"},
      {"sim.rng_stream_ns", rng_ns, "ns"},
      {"search.dynamic_body_s", body.seconds, "s"},
      {"search.body_bytes_per_s",
       ratio(static_cast<double>(body.bytes), body.seconds), "B/s"},
      {"parallel.tasks", static_cast<double>(ex.tasks), "count"},
      {"parallel.steals", static_cast<double>(ex.steals), "count"},
      {"parallel.steal_ratio",
       ratio(static_cast<double>(ex.steals), static_cast<double>(ex.tasks)),
       "ratio"},
      {"parallel.replica_s.p50", percentile(replicas, 0.50), "s"},
      {"parallel.replica_s.p97_5", percentile(replicas, 0.975), "s"},
      {"sim.events", events, "count"},
      {"sim.events_per_query", ratio(events, static_cast<double>(analyzed)),
       "count"},
      {"analysis.stream_late_packets",
       static_cast<double>(traced.stream_late_packets), "count"},
      {"analysis.analyzer_bytes_peak",
       static_cast<double>(traced.analyzer_bytes_peak), "B"},
      {"capture.retained_bytes_peak",
       static_cast<double>(traced.retained_bytes_peak), "B"},
      {"tcp.segments_sent", segments, "count"},
      {"tcp.retransmits_rto",
       static_cast<double>(m.counter("tcp_retransmits_rto")), "count"},
      {"tcp.retransmits_fast",
       static_cast<double>(m.counter("tcp_retransmits_fast")), "count"},
      {"tcp.retx_ratio", ratio(retx, segments), "ratio"},
      {"link.packets_delivered",
       static_cast<double>(m.counter("link_packets_delivered")), "count"},
      {"link.drops_loss", static_cast<double>(m.counter("link_drops_loss")),
       "count"},
      {"link.packets_reordered",
       static_cast<double>(m.counter("link_packets_reordered")), "count"},
      {"cdn.fe_static_hit_ratio",
       ratio(static_cast<double>(m.counter("fe_static_cache_hits")),
             static_cast<double>(m.counter("fe_queries_handled"))),
       "ratio"},
      {"cdn.be_queue_depth_peak",
       static_cast<double>(m.gauge("be_queue_depth_peak")), "count"},
      {"trace.wall_s", wall, "s"},
      {"trace.gap_s", gap, "s"},
      {"trace.gap_frac", ratio(gap, wall), "ratio"},
      {"trace.overhead_frac", ratio(wall - probe_s, untraced_wall) - 1.0,
       "ratio"},
      {"mem.allocs_per_query", ratio(allocs, static_cast<double>(analyzed)),
       "count"},
  };
  std::printf("traced: wall %.3f s, phases %.3f s, gap %.6f s (%.3f%%), "
              "untraced 1-thread %.3f s, probes %.3f s over %zu clients, "
              "%llu failed results, %zu stream replays diverged after late "
              "packets\n",
              wall, phases, gap, 100.0 * ratio(gap, wall), untraced_wall,
              probe_s, traced.probed_clients,
              static_cast<unsigned long long>(traced.failed_results),
              traced.stream_late_divergent);
  return out;
}

/// Traced campaigns repeated for `seconds` (at least one); each per-layer
/// metric is the median over them. The spans of the first go to `tracer`.
Outcome measure_traced(const Workload& w, double seconds, bool tiny,
                       Checker& check, Tracer& tracer) {
  // Untraced reference at the workload's own layout (also warms caches).
  const testbed::ExperimentResult ref = run_campaign(w, w.plan);
  check_campaign(check, ref.boundary, ref.per_node_timings, w.submitted());

  std::vector<Outcome> reps;
  const auto window = Clock::now();
  while (reps.empty() || seconds_since(window) < seconds) {
    Tracer rep_tracer;
    reps.push_back(traced_campaign(w, tiny, ref, check, rep_tracer));
    if (reps.size() == 1) tracer = std::move(rep_tracer);
  }
  Outcome out = reps.front();
  out.attempted = out.failed = 0;
  for (const Outcome& r : reps) {
    out.attempted += r.attempted;
    out.failed += r.failed;
  }
  for (std::size_t k = 0; k < out.metrics.size(); ++k) {
    std::vector<double> xs;
    for (const Outcome& r : reps) xs.push_back(r.metrics[k].value);
    out.metrics[k].value = median(xs);
  }
  std::printf("traced campaigns: %zu\n", reps.size());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "campaign_bench: %s\nusage: campaign_bench --workload "
                 "fixed_fe_steady|replica_fanout|lossy_capture --seed N "
                 "--seconds S --trace 0|1 [--scale full|tiny] "
                 "[--spans-out FILE] [--git-sha SHA] [--setup-probe N] "
                 "[--part K]\n",
                 e.what());
    return 2;
  }
  try {
    const Workload w = make_workload(
        args.workload, part_seed(args.seed, args.part), args.tiny);
    if (args.setup_probe > 0) {
      for (const double x : time_setups(w, args.setup_probe)) {
        std::printf("%.9g\n", x);
      }
      return 0;
    }
    const std::string manifest = manifest_json(args, w);
    std::printf("manifest %s\n", manifest.c_str());
    std::fflush(stdout);

    Checker check;
    Tracer tracer;
    const Outcome out = args.trace
                            ? measure_traced(w, args.seconds, args.tiny, check,
                                             tracer)
                            : measure_end_to_end(args, check);
    if (args.trace && !args.spans_out.empty()) {
      write_spans(args.spans_out, manifest, tracer);
    }

    std::string line = std::string("{\"correct\": ") +
                       (check.ok() ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(out.attempted) +
                       ", \"failed\": " + std::to_string(out.failed) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
      const Metric& m = out.metrics[i];
      line += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
              fmt(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: %s\n", e.what());
    return 1;
  }
}

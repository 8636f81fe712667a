// Parallel replica engine: executor ordering/exception semantics and the
// headline determinism contract — the same sharded experiment produces
// byte-identical results at 1, 2 and N threads, and a single-shard plan
// reproduces the legacy serial path bit-for-bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>

#include "obs/export_chrome.hpp"
#include "obs/export_prometheus.hpp"
#include "obs/memory.hpp"
#include "parallel/replica.hpp"
#include "search/keywords.hpp"
#include "testbed/experiment.hpp"
#include "testbed/parallel_experiment.hpp"
#include "testbed/scenario.hpp"

namespace dyncdn {
namespace {

using namespace dyncdn::sim::literals;

TEST(ReplicaExecutor, ResultsLandInIndexOrder) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    parallel::ReplicaExecutor exec({threads});
    const auto out =
        exec.run(17, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 17u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
  }
}

TEST(ReplicaExecutor, BlockedReplicaDoesNotStallTheRest) {
  // Replica 0 spins until replicas 1..31 have all run, which can only
  // finish if the other workers claim every remaining index from the shared
  // counter while the first worker is stuck — no timing assumptions, so it
  // holds on a loaded (or single-core) runner.
  parallel::ExecutorConfig cfg;
  cfg.threads = 4;
  parallel::ReplicaExecutor exec(cfg);
  std::atomic<int> others_ran{0};
  const auto out = exec.run(32, [&](std::size_t i) {
    if (i == 0) {
      while (others_ran.load() < 31) std::this_thread::yield();
    } else {
      others_ran.fetch_add(1);
    }
    return i * 10;
  });
  ASSERT_EQ(out.size(), 32u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * 10);
  const parallel::ExecutorStats& stats = exec.last_stats();
  EXPECT_EQ(stats.workers, 4u);
  EXPECT_EQ(stats.tasks, 32u);
  ASSERT_EQ(stats.tasks_by_worker.size(), 4u);
  std::uint64_t total = 0;
  for (const std::uint64_t t : stats.tasks_by_worker) total += t;
  EXPECT_EQ(total, 32u);
}

TEST(ReplicaExecutor, MalformedEnvIsRejectedNotDefaulted) {
  for (const char* bad :
       {"", "abc", "4x", "-2", "1.5", "99999999999999999999"}) {
    SCOPED_TRACE(std::string("value '") + bad + "'");
    setenv("DYNCDN_THREADS", bad, 1);
    EXPECT_THROW(parallel::resolve_threads({}), std::invalid_argument);
    EXPECT_THROW(parallel::ReplicaExecutor({0}), std::invalid_argument);
    EXPECT_EQ(parallel::resolve_threads({3}), 3u);  // option wins unread
    unsetenv("DYNCDN_THREADS");
  }
  setenv("DYNCDN_THREADS", "3", 1);
  EXPECT_EQ(parallel::resolve_threads({}), 3u);
  setenv("DYNCDN_THREADS", "0", 1);  // 0 = unset: the hardware default
  EXPECT_EQ(parallel::resolve_threads({}),
            std::max(1u, std::thread::hardware_concurrency()));
  unsetenv("DYNCDN_THREADS");
}

TEST(ReplicaExecutor, SkewedWorkloadMatchesSerialResults) {
  // Heavily skewed costs: the last replicas take far longer than the rest.
  // Whichever worker claims them, results must equal the serial run.
  parallel::ExecutorConfig cfg;
  cfg.threads = 4;
  parallel::ReplicaExecutor exec(cfg);
  const auto body = [](std::size_t i) {
    std::uint64_t acc = i;
    const std::size_t spins = (i >= 24) ? 200000 : 100;
    for (std::size_t k = 0; k < spins; ++k) acc = acc * 2862933555777941757ull + 3037000493ull;
    return acc;
  };
  const auto parallel_out = exec.run(32, body);
  parallel::ReplicaExecutor serial({1});
  const auto serial_out = serial.run(32, body);
  EXPECT_EQ(parallel_out, serial_out);
  EXPECT_EQ(exec.last_stats().tasks, 32u);
}

TEST(ReplicaExecutor, MoreThreadsThanReplicasIsFine) {
  parallel::ReplicaExecutor exec({16});
  const auto out = exec.run(3, [](std::size_t i) { return i + 1; });
  EXPECT_EQ(out, (std::vector<std::size_t>{1, 2, 3}));
}

TEST(ReplicaExecutor, LowestIndexExceptionPropagates) {
  parallel::ReplicaExecutor exec({4});
  try {
    exec.run(8, [](std::size_t i) -> int {
      if (i == 2 || i == 6) {
        throw std::runtime_error("replica " + std::to_string(i));
      }
      return 0;
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "replica 2");
  }
}

testbed::ScenarioOptions small_scenario() {
  testbed::ScenarioOptions opt;
  opt.profile = cdn::google_like_profile();
  opt.client_count = 8;
  opt.seed = 1234;
  return opt;
}

testbed::ExperimentOptions small_experiment() {
  testbed::ExperimentOptions eo;
  eo.reps_per_node = 3;
  eo.interval = 900_ms;
  search::KeywordCatalog catalog(5);
  eo.keywords = {catalog.figure3_keywords().front()};
  return eo;
}

/// Exact equality, field by field: the determinism contract is bit-level.
void expect_identical(const testbed::ExperimentResult& a,
                      const testbed::ExperimentResult& b) {
  ASSERT_EQ(a.boundary, b.boundary);
  ASSERT_EQ(a.per_node_timings.size(), b.per_node_timings.size());
  for (std::size_t n = 0; n < a.per_node_timings.size(); ++n) {
    const auto& qa = a.per_node_timings[n];
    const auto& qb = b.per_node_timings[n];
    ASSERT_EQ(qa.size(), qb.size()) << "node " << n;
    for (std::size_t q = 0; q < qa.size(); ++q) {
      EXPECT_EQ(std::memcmp(&qa[q], &qb[q], sizeof(qa[q])), 0)
          << "node " << n << " query " << q;
    }
  }
  ASSERT_EQ(a.per_node.size(), b.per_node.size());
  for (std::size_t n = 0; n < a.per_node.size(); ++n) {
    EXPECT_EQ(a.per_node[n].node_name, b.per_node[n].node_name);
    EXPECT_EQ(a.per_node[n].samples, b.per_node[n].samples);
    EXPECT_EQ(a.per_node[n].rtt_ms, b.per_node[n].rtt_ms);
    EXPECT_EQ(a.per_node[n].med_static_ms, b.per_node[n].med_static_ms);
    EXPECT_EQ(a.per_node[n].med_dynamic_ms, b.per_node[n].med_dynamic_ms);
    EXPECT_EQ(a.per_node[n].med_delta_ms, b.per_node[n].med_delta_ms);
  }
}

TEST(ParallelExperiment, ByteIdenticalAcrossThreadCounts) {
  const auto scenario = small_scenario();
  const auto options = small_experiment();

  testbed::ReplicaPlan plan;  // default: one shard per vantage point
  plan.executor.threads = 1;
  const auto t1 = testbed::run_fixed_fe_experiment(scenario, 0, options, plan);
  plan.executor.threads = 2;
  const auto t2 = testbed::run_fixed_fe_experiment(scenario, 0, options, plan);
  plan.executor.threads = 5;
  const auto t5 = testbed::run_fixed_fe_experiment(scenario, 0, options, plan);

  ASSERT_EQ(t1.per_node.size(), 8u);
  ASSERT_GT(t1.all().size(), 0u);
  expect_identical(t1, t2);
  expect_identical(t1, t5);
}

// Satellite of the observability PR: the merged metrics registry (and its
// canonical Prometheus rendering) must be bit-identical at any thread
// count, because shards merge in index order and every collected counter
// is derived from the deterministic simulation, never from wall clocks.
TEST(ParallelExperiment, MetricsPrometheusDumpThreadCountInvariant) {
  const auto scenario = small_scenario();
  const auto options = small_experiment();

  testbed::ReplicaPlan plan;  // default: one shard per vantage point
  std::vector<std::string> dumps;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    plan.executor.threads = threads;
    const auto r = testbed::run_fixed_fe_experiment(scenario, 0, options, plan);
    EXPECT_GT(r.metrics.counter("queries_analyzed"), 0u);
    // Kernel counters live in the segregated registry: they depend on the
    // shard layout, so keeping them out of `metrics` is what lets this
    // test demand byte-identical dumps in the first place.
    EXPECT_GT(r.kernel_metrics.counter("sim_events_executed"), 0u);
    ASSERT_NE(r.metrics.histogram("query_rtt_ms"), nullptr);
    dumps.push_back(obs::export_prometheus(r.metrics));
  }
  ASSERT_EQ(dumps.size(), 3u);
  EXPECT_FALSE(dumps[0].empty());
  EXPECT_EQ(dumps[0], dumps[1]);
  EXPECT_EQ(dumps[0], dumps[2]);
}

// Same contract for the merged span trace: shard traces are absorbed in
// shard-index order with deterministic id remapping, so the Chrome export
// is byte-identical at any thread count.
TEST(ParallelExperiment, TraceChromeExportThreadCountInvariant) {
  auto scenario = small_scenario();
  scenario.enable_tracing = true;
  const auto options = small_experiment();

  testbed::ReplicaPlan plan;
  std::vector<std::string> dumps;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    plan.executor.threads = threads;
    const auto r = testbed::run_fixed_fe_experiment(scenario, 0, options, plan);
    ASSERT_NE(r.trace, nullptr);
    EXPECT_GT(r.trace->spans().size(), 0u);
    dumps.push_back(obs::export_chrome_trace(*r.trace));
  }
  ASSERT_EQ(dumps.size(), 2u);
  EXPECT_EQ(dumps[0], dumps[1]);
}

TEST(ParallelExperiment, SingleShardMatchesLegacySerialPath) {
  const auto scenario_options = small_scenario();
  const auto options = small_experiment();

  testbed::Scenario scenario(scenario_options);
  scenario.warm_up();
  const auto legacy = testbed::run_fixed_fe_experiment(scenario, 0, options);

  testbed::ReplicaPlan plan;
  plan.shards = 1;  // whole fleet in one simulator, like the legacy path
  plan.executor.threads = 3;
  const auto sharded =
      testbed::run_fixed_fe_experiment(scenario_options, 0, options, plan);

  expect_identical(legacy, sharded);
}

TEST(ParallelExperiment, DefaultFeShardingIsThreadCountInvariant) {
  const auto scenario = small_scenario();
  const auto options = small_experiment();

  testbed::ReplicaPlan plan;
  plan.shards = 3;  // mixed shard sizes exercise the scatter merge
  plan.executor.threads = 1;
  const auto t1 = testbed::run_default_fe_experiment(scenario, options, plan);
  plan.executor.threads = 4;
  const auto t4 = testbed::run_default_fe_experiment(scenario, options, plan);
  expect_identical(t1, t4);
}

TEST(ParallelExperiment, FetchFactoringThreadCountInvariant) {
  testbed::ScenarioOptions opt;
  opt.profile = cdn::google_like_profile();
  opt.seed = 99;
  opt.fe_distance_sweep_miles = std::vector<double>{50, 150, 300, 450};

  const search::Keyword keyword{"network measurement study",
                                search::KeywordClass::kGranular, 5000};
  testbed::ReplicaPlan plan;
  plan.executor.threads = 1;
  const auto t1 =
      testbed::run_fetch_factoring_experiment(opt, keyword, 4, plan);
  plan.executor.threads = 4;
  const auto t4 =
      testbed::run_fetch_factoring_experiment(opt, keyword, 4, plan);

  ASSERT_EQ(t1.distances_miles.size(), 4u);
  ASSERT_EQ(t1.distances_miles, t4.distances_miles);
  ASSERT_EQ(t1.med_t_dynamic_ms, t4.med_t_dynamic_ms);
  EXPECT_EQ(t1.factoring.fit.slope, t4.factoring.fit.slope);
  EXPECT_EQ(t1.factoring.fit.intercept, t4.factoring.fit.intercept);
}

/// FNV-1a over a campaign's per-node timings, boundary and Prometheus dump.
std::uint64_t campaign_digest(const testbed::ExperimentResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  };
  for (const auto& node : r.per_node_timings) {
    const std::uint64_t count = node.size();
    mix(&count, sizeof count);
    for (const core::QueryTimings& t : node) mix(&t, sizeof t);
  }
  const std::uint64_t boundary = r.boundary;
  mix(&boundary, sizeof boundary);
  const std::string dump = obs::export_prometheus(r.metrics);
  mix(dump.data(), dump.size());
  return h;
}

// The replica campaigns of the CLI-default layout, pinned. Both fleets go
// quiet after the 5 s warm-up floor, so the pins also hold the warm-up's
// end: a replica's queries start when its whole fleet is quiet, with the
// boundary probed once before any replica is built.
TEST(ParallelExperiment, ReplicaCampaignDigestPinned) {
  testbed::ReplicaPlan plan;  // one replica per vantage point
  plan.executor.threads = 2;

  testbed::ScenarioOptions bing;
  bing.profile = cdn::bing_like_profile();
  bing.client_count = 24;
  bing.seed = 31;
  bing.stream_analysis = true;
  testbed::ExperimentOptions two_reps = small_experiment();
  two_reps.reps_per_node = 2;
  const auto a = testbed::run_default_fe_experiment(bing, two_reps, plan);
  EXPECT_EQ(a.all().size(), 48u);
  EXPECT_EQ(campaign_digest(a), 0xc0c186f84d64908aULL);

  testbed::ScenarioOptions google;
  google.profile = cdn::google_like_profile();
  google.client_count = 16;
  google.seed = 32;
  google.stream_analysis = true;
  const auto b = testbed::run_fixed_fe_experiment(google, 0, two_reps, plan);
  EXPECT_EQ(b.all().size(), 32u);
  EXPECT_EQ(campaign_digest(b), 0x7c194132fe989013ULL);
}

// ---------------------------------------------------------------------------
// Lean replicas: a replica builds only the vantage points of its group.
// Driven through the same group, it must report exactly what a scenario
// with the whole fleet reports.
// ---------------------------------------------------------------------------

struct LeanCase {
  const char* name;
  bool bing_default_fe;  // else Google-like, every client on FE 0
  bool streaming;        // else retained capture with a 64k spill budget
  bool telemetry;        // span tracing and time-series sampling
  std::size_t shards;    // ReplicaPlan::shards (0 = one per client)
};

// Names the case in test listings (and so in ctest's test names).
void PrintTo(const LeanCase& c, std::ostream* os) { *os << c.name; }

/// Kernel counters without spill_flush_ns, the one wall-clock figure.
obs::MetricsRegistry deterministic_kernel(const obs::MetricsRegistry& kernel) {
  obs::MetricsRegistry out;
  for (const auto& [name, value] : kernel.counters()) {
    if (name != "spill_flush_ns") out.add(name, value);
  }
  for (const auto& [name, value] : kernel.gauges()) out.gauge_max(name, value);
  return out;
}

/// A campaign's fleet record, as its probe pass takes it (5 s floor).
std::shared_ptr<const testbed::FleetWarmup> fleet_record_of(
    const testbed::ScenarioOptions& base) {
  return testbed::probe_campaign(base, 5_s, std::nullopt).fleet;
}

class LeanReplica : public ::testing::TestWithParam<LeanCase> {};

/// The fleet both LeanReplica tests drive. Capture cases capture payloads,
/// so each client's campaign capture outgrows the 64k spill budget.
testbed::ScenarioOptions lean_base(const LeanCase& c) {
  testbed::ScenarioOptions base;
  base.profile =
      c.bing_default_fe ? cdn::bing_like_profile() : cdn::google_like_profile();
  base.client_count = 7;
  base.seed = 4242;
  base.stream_analysis = c.streaming;
  if (!c.streaming) {
    base.capture_budget = 64 * 1024;
    base.capture_payloads = true;
  }
  base.enable_tracing = c.telemetry;
  if (c.telemetry) base.ts_interval = 250_ms;
  return base;
}

TEST_P(LeanReplica, EqualsFullScenario) {
  const LeanCase& c = GetParam();
  testbed::ScenarioOptions base = lean_base(c);
  const auto options = small_experiment();
  const std::size_t boundary =
      testbed::probe_campaign(base, 5_s,
                              c.bing_default_fe
                                  ? std::nullopt
                                  : std::optional<std::size_t>{0})
          .boundary;

  const std::size_t clients = base.client_count;
  const std::size_t shards = c.shards == 0 ? clients : c.shards;
  std::size_t off_default = 0;
  std::uint64_t spill_blocks = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    SCOPED_TRACE("replica " + std::to_string(s));
    std::vector<std::size_t> group;
    for (std::size_t i = s * clients / shards; i < (s + 1) * clients / shards;
         ++i) {
      group.push_back(i);
    }
    testbed::ScenarioOptions lean_options = base;
    lean_options.driven_clients = group;

    std::vector<testbed::ExperimentResult> results;
    for (const auto* opt : {&lean_options, &base}) {
      testbed::Scenario scenario(*opt);
      std::size_t driven = 0;
      for (const auto& client : scenario.clients()) driven += client.driven();
      EXPECT_EQ(driven, opt->driven_clients.empty()
                            ? clients
                            : opt->driven_clients.size());
      scenario.warm_up();
      auto& sc_clients = scenario.clients();
      if (opt == &base) {
        for (const std::size_t i : group) {
          off_default += sc_clients[i].default_fe != 0;
        }
      }
      results.push_back(testbed::run_experiment_subset(
          scenario, options, group,
          [&](std::size_t i) {
            return c.bing_default_fe ? sc_clients[i].default_fe : 0;
          },
          boundary));
    }
    const testbed::ExperimentResult& lean = results[0];
    const testbed::ExperimentResult& full = results[1];
    expect_identical(lean, full);
    spill_blocks += lean.metrics.counter("spill_blocks");
    EXPECT_EQ(obs::export_prometheus(lean.metrics),
              obs::export_prometheus(full.metrics));
    EXPECT_EQ(obs::export_prometheus(deterministic_kernel(lean.kernel_metrics)),
              obs::export_prometheus(deterministic_kernel(full.kernel_metrics)));
    EXPECT_EQ(lean.timeseries.to_json(), full.timeseries.to_json());
    EXPECT_EQ(lean.attribution.to_json(), full.attribution.to_json());
    if (c.telemetry) {
      EXPECT_GT(lean.timeseries.sample_count(), 0u);
      EXPECT_GT(lean.attribution.queries(), 0u);
    }
  }
  // Fixed-FE runs drive mostly clients whose default FE is not FE 0: the
  // FE their lean replica leaves out, and the full scenario never links.
  if (!c.bing_default_fe) {
    EXPECT_GT(off_default * 2, clients);
  }
  // The campaign's own payload capture outgrows the budget.
  if (!c.streaming) {
    EXPECT_GT(spill_blocks, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, LeanReplica,
    ::testing::Values(LeanCase{"BingStreamShards0", true, true, false, 0},
                      LeanCase{"BingStreamTelemetryShards3", true, true, true, 3},
                      LeanCase{"BingCaptureTelemetryShards0", true, false, true, 0},
                      LeanCase{"BingCaptureShards3", true, false, false, 3},
                      LeanCase{"GoogleFe0StreamTelemetryShards0", false, true, true, 0},
                      LeanCase{"GoogleFe0StreamShards3", false, true, false, 3},
                      LeanCase{"GoogleFe0CaptureShards0", false, false, false, 0},
                      LeanCase{"GoogleFe0CaptureTelemetryShards3", false, false, true, 3}));

TEST(LeanReplica, ReplicasDriveOnlyTheirGroup) {
  // The boundary is probed before any replica is built, so no replica
  // drives client 0 or builds its FE unless its group holds it.
  testbed::ScenarioOptions base;
  base.profile = cdn::bing_like_profile();
  base.client_count = 8;
  base.seed = 20;
  const auto fleet = fleet_record_of(base);
  for (const std::vector<std::size_t>& group :
       {std::vector<std::size_t>{0, 1}, std::vector<std::size_t>{3},
        std::vector<std::size_t>{5, 6, 7}}) {
    for (const std::optional<std::size_t> fixed_fe :
         {std::optional<std::size_t>{}, std::optional<std::size_t>{2}}) {
      SCOPED_TRACE("group from " + std::to_string(group.front()) +
                   (fixed_fe ? ", fixed FE 2" : ", default FEs"));
      std::vector<std::size_t> fes;
      for (const std::size_t i : group) {
        fes.push_back(fixed_fe.value_or(fleet->default_fe[i]));
      }
      const auto alone =
          testbed::replica_options(base, group, nullptr, fixed_fe);
      EXPECT_EQ(alone.driven_clients, group);
      EXPECT_TRUE(alone.queried_fes.empty());
      const auto options =
          testbed::replica_options(base, group, fleet, fixed_fe);
      EXPECT_EQ(options.driven_clients, group);
      EXPECT_EQ(options.queried_fes, fes);
      testbed::Scenario replica(options);
      for (std::size_t i = 0; i < base.client_count; ++i) {
        EXPECT_EQ(replica.clients()[i].driven(),
                  std::find(group.begin(), group.end(), i) != group.end())
            << "client " << i;
      }
      for (std::size_t f = 0; f < replica.fes().size(); ++f) {
        EXPECT_EQ(replica.fes()[f].built(),
                  std::find(fes.begin(), fes.end(), f) != fes.end())
            << "FE " << f;
      }
    }
  }
}

TEST(ParallelExperiment, FeAndBeCountCampaignQueriesOnly) {
  // With the boundary probed outside every campaign scenario, the FE and
  // BE counters count the campaign's queries, clients x reps, in every
  // replica layout.
  testbed::ScenarioOptions base;
  base.profile = cdn::bing_like_profile();
  base.client_count = 12;
  base.seed = 2;
  base.stream_analysis = true;
  const auto options = small_experiment();
  for (const std::size_t shards : {0, 1, 7}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    testbed::ReplicaPlan plan;
    plan.shards = shards;
    plan.executor.threads = 2;
    const auto r = testbed::run_default_fe_experiment(base, options, plan);
    EXPECT_EQ(r.all().size(), 36u);
    EXPECT_EQ(r.metrics.counter("be_queries_served"), 36u);
    EXPECT_EQ(r.metrics.counter("fe_queries_handled"), 36u);
  }
}

TEST(LeanReplica, IdleVantagePointsHoldNoNodeAndCannotBeDriven) {
  auto options = small_scenario();
  options.driven_clients = {2, 0};
  testbed::Scenario lean(options);
  testbed::Scenario full(small_scenario());
  auto& clients = lean.clients();
  ASSERT_EQ(clients.size(), full.clients().size());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    SCOPED_TRACE("client " + std::to_string(i));
    const net::Node& reference = *full.clients()[i].node;
    // Every client reads the fleet's vantage point, driven or not.
    EXPECT_EQ(clients[i].vantage.name, full.clients()[i].vantage.name);
    EXPECT_EQ(lean.client_fe_rtt(i, 1), full.client_fe_rtt(i, 1));
    EXPECT_EQ(clients[i].driven(), i == 0 || i == 2);
    if (!clients[i].driven()) {
      // Only the node id is reserved: no node by pointer, id or name.
      EXPECT_EQ(clients[i].node, nullptr);
      EXPECT_THROW(lean.network().node(reference.id()), std::out_of_range);
      EXPECT_EQ(lean.network().find_node(reference.name()), nullptr);
      continue;
    }
    ASSERT_NE(clients[i].node, nullptr);
    EXPECT_EQ(clients[i].node->id(), reference.id());
    EXPECT_EQ(clients[i].node->name(), reference.name());
  }
  EXPECT_EQ(lean.network().node_count(), full.network().node_count());
  testbed::Scenario::Client& idle = clients[1];
  EXPECT_EQ(idle.recorder, nullptr);
  EXPECT_EQ(idle.analyzer, nullptr);
  EXPECT_EQ(idle.spill, nullptr);
  EXPECT_THROW(lean.connect_client_to_fe(1, 0), std::logic_error);
  EXPECT_THROW(lean.default_fe_endpoint(1), std::logic_error);
  EXPECT_THROW(testbed::discover_boundary(lean, 1, 0), std::logic_error);
  EXPECT_THROW(testbed::analyze_client_trace(idle, 1), std::logic_error);
  EXPECT_NO_THROW(lean.connect_client_to_fe(2, 0));

  // A lean scenario's own fleet record, the probe pass's, holds the whole
  // fleet's vantage points and default FEs.
  lean.warm_up();
  full.warm_up();
  const auto lean_record = lean.fleet_record();
  const auto full_record = full.fleet_record();
  ASSERT_EQ(lean_record->vantage_points.size(), clients.size());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    EXPECT_EQ(lean_record->vantage_points[i].name,
              full_record->vantage_points[i].name);
    EXPECT_EQ(lean_record->vantage_points[i].location.lat_deg,
              full_record->vantage_points[i].location.lat_deg);
  }
  EXPECT_EQ(lean_record->default_fe, full_record->default_fe);

  options.driven_clients = {8};  // the fleet has clients 0..7
  EXPECT_THROW({ testbed::Scenario bad(options); }, std::out_of_range);
}

TEST(LeanReplica, SetUpAllocationsDoNotGrowWithTheFleet) {
  // A one-client replica of a 100- and a 1,600-VP fleet: client 0 is the
  // same vantage point in both, so the replicas differ only in the ids
  // they reserve for the vantage points they do not drive.
  if (!obs::memory_tracking_enabled()) {
    GTEST_SKIP() << "allocation tracking is compiled out";
  }
  std::vector<std::int64_t> allocations;
  for (const std::size_t fleet_size : {100, 1600}) {
    testbed::ScenarioOptions base;
    base.profile = cdn::google_like_profile();
    base.client_count = fleet_size;
    base.seed = 5;
    base.stream_analysis = true;
    const auto options = testbed::replica_options(
        base, {0}, fleet_record_of(base), std::nullopt);
    const obs::MemorySnapshot before = obs::memory_snapshot();
    {
      testbed::Scenario replica(options);
      replica.warm_up();
    }
    allocations.push_back(static_cast<std::int64_t>(
        obs::memory_snapshot().allocations - before.allocations));
  }
  // Fewer than one more allocation per 10 more vantage points.
  EXPECT_LT(allocations[1] - allocations[0], (1600 - 100) / 10)
      << allocations[0] << " allocations at 100 VPs, " << allocations[1]
      << " at 1,600";
}

// ---------------------------------------------------------------------------
// Shared fleet warm-up: a multi-replica plan simulates the FE fleet's
// warm-up once, in its probe pass, to the end of its floor and
// on until the event queue is empty. A replica then builds only the FEs it
// queries, warms up to the record's end and counts the others' warm-up
// from the record. Driven through the same group, it must report exactly
// what a scenario with the whole fleet reports, and end at the same clock,
// in fewer kernel events.
// ---------------------------------------------------------------------------

struct FleetComparison {
  testbed::ExperimentResult replica;
  testbed::ExperimentResult full;
};

/// Drive `group` through a fleet replica and through the full scenario,
/// both warmed up with the 5 s floor `fleet` was recorded with, each with
/// the boundary it discovers from the group's first client, and expect
/// the same exports and the same clock at the end.
FleetComparison compare_fleet_replica(
    const testbed::ScenarioOptions& base, const std::vector<std::size_t>& group,
    std::shared_ptr<const testbed::FleetWarmup> fleet,
    std::optional<std::size_t> fixed_fe) {
  const auto options = small_experiment();
  std::vector<testbed::ExperimentResult> results;
  std::vector<sim::SimTime> ends;
  for (const testbed::ScenarioOptions& opt :
       {testbed::replica_options(base, group, fleet, fixed_fe), base}) {
    testbed::Scenario scenario(opt);
    scenario.warm_up(5_s);
    auto& clients = scenario.clients();
    const auto fe_for = [&](std::size_t i) {
      return fixed_fe ? *fixed_fe : clients[i].default_fe;
    };
    const std::size_t boundary = testbed::discover_boundary(
        scenario, group.front(), fe_for(group.front()));
    results.push_back(testbed::run_experiment_subset(scenario, options, group,
                                                     fe_for, boundary));
    ends.push_back(scenario.simulator().now());
  }
  FleetComparison out{std::move(results[0]), std::move(results[1])};
  expect_identical(out.replica, out.full);
  EXPECT_EQ(ends[0], ends[1]);
  EXPECT_EQ(obs::export_prometheus(out.replica.metrics),
            obs::export_prometheus(out.full.metrics));
  EXPECT_EQ(out.replica.timeseries.to_json(), out.full.timeseries.to_json());
  EXPECT_EQ(out.replica.attribution.to_json(), out.full.attribution.to_json());
  EXPECT_EQ(out.replica.trace == nullptr, out.full.trace == nullptr);
  if (out.replica.trace != nullptr && out.full.trace != nullptr) {
    EXPECT_EQ(obs::export_chrome_trace(*out.replica.trace),
              obs::export_chrome_trace(*out.full.trace));
  }
  EXPECT_LT(out.replica.kernel_metrics.counter("sim_events_executed"),
            out.full.kernel_metrics.counter("sim_events_executed"));
  return out;
}

TEST_P(LeanReplica, FleetWarmupReplicaEqualsFullScenario) {
  const LeanCase& c = GetParam();
  const testbed::ScenarioOptions base = lean_base(c);

  const auto fleet = fleet_record_of(base);
  const std::size_t clients = base.client_count;
  const std::size_t shards = c.shards == 0 ? clients : c.shards;
  for (std::size_t s = 0; s < shards; ++s) {
    SCOPED_TRACE("replica " + std::to_string(s));
    std::vector<std::size_t> group;
    for (std::size_t i = s * clients / shards; i < (s + 1) * clients / shards;
         ++i) {
      group.push_back(i);
    }
    const FleetComparison r = compare_fleet_replica(
        base, group, fleet,
        c.bing_default_fe ? std::nullopt : std::optional<std::size_t>{0});
    if (c.telemetry) {
      EXPECT_GT(r.replica.timeseries.sample_count(), 0u);
      EXPECT_GT(r.replica.attribution.queries(), 0u);
    }
  }
}

TEST(FleetWarmup, WarmUpEndsWithAnEmptyQueue) {
  // A warm-up ends at the later of its 5 s floor and the fleet's last
  // warm-up event: Google-like seed 5's far FEs move their 128 KB warm-ups
  // until 6.08 s and Bing-like seed 20's until 7.38 s, while Google-like
  // seed 11's fleet is quiet by the floor.
  struct Case {
    bool bing;
    std::uint64_t seed;
    bool late;
  };
  for (const Case& c :
       {Case{false, 5, true}, Case{false, 11, false}, Case{true, 20, true}}) {
    SCOPED_TRACE(std::string(c.bing ? "Bing-like" : "Google-like") +
                 " seed " + std::to_string(c.seed));
    testbed::ScenarioOptions base;
    base.profile =
        c.bing ? cdn::bing_like_profile() : cdn::google_like_profile();
    base.client_count = 6;
    base.seed = c.seed;
    testbed::Scenario full(base);
    full.warm_up();
    EXPECT_TRUE(full.simulator().idle());
    const sim::SimTime end = full.simulator().now();
    if (c.late) {
      EXPECT_GT(end, 5_s);
      // The last warm-up event is at `end`.
      testbed::Scenario short_of_end(base);
      short_of_end.run_until(end - 1_ns);
      EXPECT_FALSE(short_of_end.simulator().idle());
    } else {
      EXPECT_EQ(end, 5_s);
    }

    const auto fleet = fleet_record_of(base);
    EXPECT_EQ(fleet->deadline, end);
    testbed::Scenario replica(
        testbed::replica_options(base, {3}, fleet, std::nullopt));
    replica.warm_up();
    EXPECT_EQ(replica.simulator().now(), end);
    EXPECT_TRUE(replica.simulator().idle());
    EXPECT_THROW(replica.warm_up(), std::logic_error);
  }
}

TEST(FleetWarmup, ReplicaStillBusyAtTheRecordsEndThrows) {
  // A record that ends before the fleet is quiet cannot stand for the FEs
  // a replica leaves out: the replica refuses it.
  testbed::ScenarioOptions base;
  base.profile = cdn::bing_like_profile();
  base.client_count = 6;
  base.seed = 20;
  testbed::FleetWarmup early = *fleet_record_of(base);
  ASSERT_GT(early.deadline, 5_s);
  early.deadline = 5_s;
  testbed::Scenario replica(testbed::replica_options(
      base, {3}, std::make_shared<const testbed::FleetWarmup>(early), 36));
  EXPECT_THROW(replica.warm_up(), std::logic_error);
}

TEST(FleetWarmup, IdleFesHoldNoNodeAndCannotBeDriven) {
  testbed::ScenarioOptions base;
  base.profile = cdn::bing_like_profile();
  base.client_count = 6;
  base.seed = 20;
  const auto fleet = fleet_record_of(base);
  testbed::Scenario full(base);

  const auto options = testbed::replica_options(base, {3}, fleet, std::nullopt);
  testbed::Scenario replica(options);
  auto& fes = replica.fes();
  ASSERT_EQ(fes.size(), full.fes().size());
  ASSERT_EQ(fes.size(), fleet->fe_count);
  const std::vector<std::size_t>& queried = options.queried_fes;
  std::size_t left_out = 0;
  for (std::size_t f = 0; f < fes.size(); ++f) {
    SCOPED_TRACE("fe " + fes[f].site_name);
    const net::Node& reference = *full.fes()[f].node;
    EXPECT_EQ(fes[f].site_name, full.fes()[f].site_name);
    EXPECT_EQ(fes[f].built(), std::find(queried.begin(), queried.end(), f) !=
                                  queried.end());
    if (fes[f].built()) {
      ASSERT_NE(fes[f].node, nullptr);
      EXPECT_EQ(fes[f].node->id(), reference.id());
      EXPECT_EQ(fes[f].node->name(), reference.name());
      continue;
    }
    ++left_out;
    // Only the node id is reserved: no node by pointer, id or name.
    EXPECT_EQ(fes[f].node, nullptr);
    EXPECT_THROW(replica.network().node(reference.id()), std::out_of_range);
    EXPECT_EQ(replica.network().find_node(reference.name()), nullptr);
    EXPECT_THROW(replica.connect_client_to_fe(3, f), std::logic_error);
    EXPECT_THROW(replica.fe_endpoint(f), std::logic_error);
  }
  // The driven client's node, after every FE id, keeps its id too.
  ASSERT_NE(replica.clients()[3].node, nullptr);
  EXPECT_EQ(replica.clients()[3].node->id(), full.clients()[3].node->id());
  EXPECT_EQ(replica.network().node_count(), full.network().node_count());
  EXPECT_GT(left_out, fes.size() / 2);
  EXPECT_NO_THROW(replica.fe_endpoint(replica.clients()[3].default_fe));

  // The record is read only after the one warm-up, whose floor must not
  // pass the record's end.
  obs::MetricsRegistry metrics;
  EXPECT_THROW(replica.collect_metrics(metrics), std::logic_error);
  EXPECT_THROW(replica.warm_up(fleet->deadline + 1_ns), std::logic_error);
  replica.warm_up(5_s);
  EXPECT_NO_THROW(replica.collect_metrics(metrics));
  EXPECT_THROW(replica.warm_up(0_s), std::logic_error);

  // A record of another fleet is refused at construction.
  testbed::FleetWarmup other = *fleet;
  ++other.fe_count;
  auto mismatched = options;
  mismatched.fleet_warmup = std::make_shared<const testbed::FleetWarmup>(other);
  EXPECT_THROW({ testbed::Scenario bad(mismatched); }, std::logic_error);
}

TEST(FleetWarmup, ReplicaMatchesAfterALateWarmUp) {
  // Bing-like seed 20's fleet is quiet only at 7.38 s, when FE 36 ends
  // its warm-up. Replicas warm up to that end whether they query the late
  // FEs or not: client 10's default FE is FE 35 (quiet at 5.98 s), a
  // Datasets-B group queries FE 36, and clients 0-2 and 5 query FEs that
  // are quiet by the 5 s floor.
  for (const bool telemetry : {false, true}) {
    SCOPED_TRACE(telemetry ? "traced, sampled every 100 ms" : "untraced");
    testbed::ScenarioOptions base;
    base.profile = cdn::bing_like_profile();
    base.client_count = 12;
    base.seed = 20;
    base.stream_analysis = true;
    base.enable_tracing = telemetry;
    if (telemetry) base.ts_interval = 100_ms;
    const auto fleet = fleet_record_of(base);
    ASSERT_GT(fleet->deadline, 7_s);
    ASSERT_EQ(fleet->default_fe[10], 35u);

    struct Group {
      std::vector<std::size_t> clients;
      std::optional<std::size_t> fixed_fe;
      bool late;  // queries an FE still busy at 5 s
    };
    for (const Group& g : {Group{{10, 11}, std::nullopt, true},
                           Group{{3}, 36, true},
                           Group{{0, 1, 2}, std::nullopt, false},
                           Group{{5}, std::nullopt, false}}) {
      SCOPED_TRACE("group from " + std::to_string(g.clients.front()));
      // The premise: the group's own FEs are busy at the floor, or quiet.
      testbed::Scenario own(
          testbed::replica_options(base, g.clients, fleet, g.fixed_fe));
      own.run_until(5_s);
      EXPECT_EQ(own.simulator().idle(), !g.late);
      const FleetComparison r =
          compare_fleet_replica(base, g.clients, fleet, g.fixed_fe);
      if (telemetry) {
        EXPECT_GT(r.replica.timeseries.sample_count(), 0u);
        EXPECT_GT(r.replica.attribution.queries(), 0u);
      }
    }
  }
}

TEST(FleetWarmup, CampaignIsThreadCountInvariant) {
  // Every worker reads the one shared record while its replicas run; the
  // exports must not depend on how many do (executor threads 0 follows
  // DYNCDN_THREADS, which the TSan lane sets to 4).
  testbed::ScenarioOptions base;
  base.profile = cdn::bing_like_profile();
  base.client_count = 12;
  base.seed = 2;
  base.stream_analysis = true;
  base.enable_tracing = true;
  base.ts_interval = 100_ms;
  const auto options = small_experiment();
  std::vector<std::string> exports;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
    testbed::ReplicaPlan plan;
    plan.executor.threads = threads;
    const auto r = testbed::run_default_fe_experiment(base, options, plan);
    ASSERT_EQ(r.all().size(), 36u);
    exports.push_back(obs::export_prometheus(r.metrics) +
                      r.timeseries.to_json() + r.attribution.to_json());
  }
  EXPECT_EQ(exports[0], exports[1]);
}

// A replica fetch-factoring campaign (one replica per sweep probe, each
// building only its own FE; no FE of this sweep is busy at the warm-up
// deadline), pinned. Factoring runs as a Datasets-A campaign, so its dump
// also carries the per-query families Datasets A/B export
// (dyncdn_queries_analyzed, dyncdn_query_*_ms): the first digest covers
// the dump without them, the second those families.
TEST(FleetWarmup, ReplicaFetchFactoringPinned) {
  testbed::ScenarioOptions opt;
  opt.profile = cdn::bing_like_profile();
  opt.seed = 17;
  opt.fe_distance_sweep_miles =
      std::vector<double>{30, 400, 900, 1500, 2500, 4000, 6500};
  const search::Keyword keyword{"network measurement study",
                                search::KeywordClass::kGranular, 5000};
  testbed::ReplicaPlan plan;
  plan.executor.threads = 2;
  const auto r = testbed::run_fetch_factoring_experiment(opt, keyword, 3, plan);
  ASSERT_EQ(r.distances_miles.size(), 7u);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  };
  mix(r.distances_miles.data(), r.distances_miles.size() * sizeof(double));
  mix(r.med_t_dynamic_ms.data(), r.med_t_dynamic_ms.size() * sizeof(double));
  mix(&r.factoring.fit.slope, sizeof(double));
  mix(&r.factoring.fit.intercept, sizeof(double));
  std::string runner_families, query_families;
  std::istringstream dump(obs::export_prometheus(r.campaign.metrics));
  for (std::string line; std::getline(dump, line);) {
    std::string_view name = line;
    if (name.starts_with("# HELP ") || name.starts_with("# TYPE ")) {
      name.remove_prefix(7);
    }
    const bool query = name.starts_with("dyncdn_queries_analyzed") ||
                       name.starts_with("dyncdn_query_");
    (query ? query_families : runner_families) += line + '\n';
  }
  mix(runner_families.data(), runner_families.size());
  EXPECT_EQ(h, 0x35091377a938631fULL) << std::hex << h;
  h = 0xcbf29ce484222325ULL;
  mix(query_families.data(), query_families.size());
  EXPECT_EQ(h, 0xd1a132975e58c9a8ULL) << std::hex << h;
}

TEST(FleetWarmup, FetchFactoringExportsAreThreadCountInvariant) {
  // Factoring replicas merge through run_sharded: a traced, sampled
  // Bing-like sweep, one replica per probe, whose warm-up ends after the
  // 5 s floor (so every replica warms up to the fleet's later end),
  // exports the same Chrome trace, time series and metrics at 1 and 4
  // threads.
  testbed::ScenarioOptions opt;
  opt.profile = cdn::bing_like_profile();
  opt.seed = 10;
  opt.fe_distance_sweep_miles =
      std::vector<double>{30, 400, 900, 1500, 2500, 4000, 6500};
  opt.enable_tracing = true;
  opt.ts_interval = 100_ms;
  EXPECT_GT(fleet_record_of(opt)->deadline, 5_s);
  const search::Keyword keyword{"network measurement study",
                                search::KeywordClass::kGranular, 5000};
  std::vector<std::string> traces, series, dumps;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    testbed::ReplicaPlan plan;
    plan.shards = 0;
    plan.executor.threads = threads;
    const auto r =
        testbed::run_fetch_factoring_experiment(opt, keyword, 3, plan);
    ASSERT_EQ(r.distances_miles.size(), 7u);
    ASSERT_NE(r.campaign.trace, nullptr);
    EXPECT_GT(r.campaign.timeseries.sample_count(), 0u);
    EXPECT_EQ(r.campaign.attribution.queries(), 21u);
    traces.push_back(obs::export_chrome_trace(*r.campaign.trace));
    series.push_back(r.campaign.timeseries.to_json());
    dumps.push_back(obs::export_prometheus(r.campaign.metrics));
  }
  EXPECT_EQ(traces[0], traces[1]);
  EXPECT_EQ(series[0], series[1]);
  EXPECT_EQ(dumps[0], dumps[1]);
}

TEST(ParallelExperiment, PlannedClientCountIsSweepAware) {
  testbed::ScenarioOptions opt;
  opt.client_count = 60;
  EXPECT_EQ(testbed::planned_client_count(opt), 60u);
  opt.fe_distance_sweep_miles = std::vector<double>{10, 20, 30};
  EXPECT_EQ(testbed::planned_client_count(opt), 3u);
}

}  // namespace
}  // namespace dyncdn

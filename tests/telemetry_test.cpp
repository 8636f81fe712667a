// Time-resolved telemetry suite: the sim-time metric series must export
// byte-identically at any replica-thread count, per-query
// attribution must satisfy the exact telescoping identity against the
// capture-derived timings, the flight recorder's triggers must be
// reproducible, and the supporting pieces (log-bucket quantile
// interpolation, Prometheus HELP lines, the per-thread allocation
// counters) behave as documented.
#include <gtest/gtest.h>

#include <pthread.h>
#include <sched.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/span_attribution.hpp"
#include "harness.hpp"
#include "cdn/deployment.hpp"
#include "obs/attribution.hpp"
#include "obs/export_prometheus.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/memory.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/timeseries.hpp"
#include "search/keywords.hpp"
#include "sim/time.hpp"
#include "testbed/experiment.hpp"
#include "testbed/parallel_experiment.hpp"
#include "testbed/scenario.hpp"

namespace dyncdn {
namespace {

using namespace dyncdn::sim::literals;

// ---------------------------------------------------------------------------
// Histogram::quantile — log-bucket (geometric) interpolation.
// ---------------------------------------------------------------------------

TEST(HistogramQuantile, EmptyAndSingleValue) {
  obs::Histogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);
  h.observe(7.25);
  // Every quantile of a single observation clamps to that observation.
  EXPECT_EQ(h.quantile(0.0), 7.25);
  EXPECT_EQ(h.quantile(0.5), 7.25);
  EXPECT_EQ(h.quantile(0.999), 7.25);
}

TEST(HistogramQuantile, GeometricInterpolationInsideOneBucket) {
  // Pick a bucket with a positive lower edge and drop two samples just
  // inside it; the median then interpolates geometrically between the
  // edges: lo * (hi/lo)^0.5 = sqrt(lo*hi).
  const auto& bounds = obs::Histogram::upper_bounds();
  ASSERT_GT(bounds.size(), 12u);
  const double lo = bounds[10];
  const double hi = bounds[11];
  ASSERT_GT(lo, 0.0);
  ASSERT_GT(hi, lo);
  obs::Histogram h;
  h.observe(lo * 1.0001);  // bucket 11: value > lo, <= hi
  h.observe(hi * 0.9999);
  const double expected = std::sqrt(lo * hi);
  EXPECT_NEAR(h.quantile(0.5), expected, expected * 1e-9);
}

TEST(HistogramQuantile, MonotoneAndClampedToObservedRange) {
  obs::Histogram h;
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i) * 0.37);
  double prev = h.quantile(0.0);
  for (const double q : {0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    EXPECT_GE(v, h.min());
    EXPECT_LE(v, h.max());
    prev = v;
  }
  // The median of 0.37..370 must land near the middle, not at an edge.
  EXPECT_GT(h.quantile(0.5), 100.0);
  EXPECT_LT(h.quantile(0.5), 260.0);
}

TEST(HistogramQuantile, MergeMatchesCombinedObservations) {
  obs::Histogram a, b, all;
  for (int i = 0; i < 500; ++i) {
    const double va = 1.0 + (i % 97) * 3.1;
    const double vb = 400.0 + (i % 53) * 7.7;
    a.observe(va);
    b.observe(vb);
    all.observe(va);
    all.observe(vb);
  }
  a.merge(b);
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_EQ(a.quantile(q), all.quantile(q)) << "q=" << q;
  }
}

// ---------------------------------------------------------------------------
// Prometheus HELP lines + exposition-format escaping.
// ---------------------------------------------------------------------------

TEST(PrometheusHelp, KnownMetricsCarryHelpText) {
  EXPECT_FALSE(obs::metric_help("fe_queries_handled").empty());
  EXPECT_FALSE(obs::metric_help("query_t_dynamic_ms").empty());
  EXPECT_TRUE(obs::metric_help("no_such_metric_xyz").empty());

  obs::MetricsRegistry reg;
  reg.add("fe_queries_handled", 3);
  const std::string text = obs::export_prometheus(reg);
  EXPECT_NE(text.find("# HELP dyncdn_fe_queries_handled "), std::string::npos);
  EXPECT_NE(text.find("# TYPE dyncdn_fe_queries_handled counter"),
            std::string::npos);
  // HELP precedes TYPE, per the exposition format.
  EXPECT_LT(text.find("# HELP dyncdn_fe_queries_handled"),
            text.find("# TYPE dyncdn_fe_queries_handled"));
}

TEST(PrometheusHelp, EscapingRules) {
  EXPECT_EQ(obs::escape_help("a\\b\nc"), "a\\\\b\\nc");
  EXPECT_EQ(obs::escape_help("plain"), "plain");
  // Label values additionally escape double quotes.
  EXPECT_EQ(obs::escape_label_value("say \"hi\"\n"), "say \\\"hi\\\"\\n");
}

// ---------------------------------------------------------------------------
// TimeSeriesSampler — padding, cumulative deltas, merge, eviction.
// ---------------------------------------------------------------------------

TEST(TimeSeries, PadsMissingChannelsAndComputesCumulativeDeltas) {
  obs::TimeSeriesSampler ts(1'000'000);  // 1ms ticks
  ts.begin_tick(0);
  ts.record("depth", 3.0);
  ts.record_cumulative("delivered", 10.0);
  ts.end_tick();
  ts.begin_tick(1);
  ts.record_cumulative("delivered", 25.0);  // delta 15
  ts.end_tick();                            // "depth" padded with 0
  ts.begin_tick(2);
  ts.record("depth", 1.0);
  ts.end_tick();  // "delivered" padded with 0

  const std::string csv = ts.to_csv();
  EXPECT_NE(csv.find("tick,time_ms,delivered,depth"), std::string::npos);
  EXPECT_EQ(ts.sample_count(), 3u);
  // Row values: delivered = [10, 15, 0], depth = [3, 0, 1].
  EXPECT_NE(csv.find("0,0,10,3"), std::string::npos);
  EXPECT_NE(csv.find("1,1,15,0"), std::string::npos);
  EXPECT_NE(csv.find("2,2,0,1"), std::string::npos);
}

TEST(TimeSeries, MergeAlignsByAbsoluteTickAndIsOrderIndependent) {
  const auto make = [](std::uint64_t first_tick, double base) {
    obs::TimeSeriesSampler ts(1'000'000);
    for (std::uint64_t t = first_tick; t < first_tick + 3; ++t) {
      ts.begin_tick(t);
      ts.record("v", base + static_cast<double>(t));
      ts.end_tick();
    }
    return ts;
  };
  obs::TimeSeriesSampler ab = make(0, 1.0);
  ab.merge(make(2, 10.0));  // overlaps at tick 2 only
  obs::TimeSeriesSampler ba = make(2, 10.0);
  ba.merge(make(0, 1.0));
  EXPECT_EQ(ab.to_csv(), ba.to_csv());
  EXPECT_EQ(ab.to_json(), ba.to_json());
  EXPECT_EQ(ab.sample_count(), 5u);  // ticks 0..4
}

TEST(TimeSeries, EvictsOldestPastBound) {
  obs::TimeSeriesSampler ts(1'000'000, /*max_samples=*/4);
  for (std::uint64_t t = 0; t < 6; ++t) {
    ts.begin_tick(t);
    ts.record("v", static_cast<double>(t));
    ts.end_tick();
  }
  EXPECT_EQ(ts.sample_count(), 4u);
  EXPECT_EQ(ts.ticks().front(), 2u);
  EXPECT_EQ(ts.ticks().back(), 5u);
}

// ---------------------------------------------------------------------------
// Campaign-level determinism: the deterministic time-series exports must
// be byte-identical at every replica-thread count.
// ---------------------------------------------------------------------------

testbed::ScenarioOptions telemetry_scenario() {
  testbed::ScenarioOptions opt;
  opt.profile = cdn::google_like_profile();
  opt.client_count = 4;
  opt.seed = 4242;
  opt.ts_interval = 100_ms;
  return opt;
}

testbed::ExperimentOptions telemetry_experiment() {
  testbed::ExperimentOptions eo;
  eo.reps_per_node = 2;
  eo.interval = 900_ms;
  search::KeywordCatalog catalog(5);
  eo.keywords = {catalog.figure3_keywords().front()};
  return eo;
}

TEST(TimeSeriesDeterminism, ByteIdenticalAcrossThreads) {
  const auto eo = telemetry_experiment();
  std::string ref_csv, ref_json;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    testbed::ReplicaPlan plan;  // one replica per vantage point
    plan.executor.threads = threads;
    const testbed::ExperimentResult result =
        testbed::run_fixed_fe_experiment(telemetry_scenario(), 0, eo, plan);
    ASSERT_GT(result.timeseries.sample_count(), 0u);
    const std::string csv = result.timeseries.to_csv();
    const std::string json = result.timeseries.to_json();
    if (ref_csv.empty()) {
      ref_csv = csv;
      ref_json = json;
      // The series must actually carry channels, or the
      // byte-compare below is vacuous.
      EXPECT_NE(csv.find("net_packets_in_flight"), std::string::npos);
      EXPECT_NE(csv.find("link_packets_delivered"), std::string::npos);
    } else {
      EXPECT_EQ(csv, ref_csv) << threads << " threads";
      EXPECT_EQ(json, ref_json) << threads << " threads";
    }
  }
}

// ---------------------------------------------------------------------------
// Time-series readers under mutation: bit flips, truncations and splices
// of a real campaign's --ts-out export. Each mutant is refused or decodes;
// a decoded one re-encodes to a file that decodes to the same series, and
// from there the encoding is a fixed point.
// ---------------------------------------------------------------------------

obs::TimeSeriesSampler read_series(const std::string& text, bool csv) {
  if (csv) return obs::TimeSeriesSampler::from_csv(text);
  const auto doc = obs::json::parse(text);
  if (!doc) throw std::runtime_error("not JSON");
  return obs::TimeSeriesSampler::from_json(*doc);
}

std::string write_series(const obs::TimeSeriesSampler& series, bool csv) {
  return csv ? series.to_csv() : series.to_json();
}

void expect_series_mutants_round_trip(bool csv) {
  testbed::ReplicaPlan plan;
  plan.shards = 2;
  plan.executor.threads = 1;
  const obs::TimeSeriesSampler real =
      testbed::run_fixed_fe_experiment(telemetry_scenario(), 0,
                                       telemetry_experiment(), plan)
          .timeseries;
  ASSERT_GT(real.sample_count(), 0u);
  const std::string corpus = write_series(real, csv);
  // The export itself reads back to the series it came from, interval
  // included, and re-encodes to the same bytes.
  const obs::TimeSeriesSampler back = read_series(corpus, csv);
  EXPECT_EQ(back.values("net_packets_in_flight"),
            real.values("net_packets_in_flight"));
  EXPECT_EQ(back.interval_ns(), real.interval_ns());
  EXPECT_EQ(write_series(back, csv), corpus);
  if (csv) {
    // A corrupted time_ms cell is refused with its line number.
    std::string corrupted = corpus;
    const std::size_t line3 = corrupted.find('\n', corrupted.find('\n') + 1);
    corrupted.insert(corrupted.find(',', line3) + 1, "9");
    try {
      read_series(corrupted, csv);
      ADD_FAILURE() << "corrupted time_ms accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("line 3: time_ms 9", 0), 0u)
          << e.what();
    }
  }

  std::mt19937 gen(csv ? 20260101 : 20261018);
  int rejected = 0;
  int decoded = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    const std::string text = dyncdn::testing::mutate(corpus, gen);
    obs::TimeSeriesSampler first;
    try {
      first = read_series(text, csv);
    } catch (const std::runtime_error&) {
      ++rejected;
      continue;
    }
    ++decoded;
    const std::string encoded = write_series(first, csv);
    obs::TimeSeriesSampler second;
    ASSERT_NO_THROW(second = read_series(encoded, csv)) << "iteration " << iter;
    // to_json prints every value with %.17g: equal text, equal series.
    EXPECT_EQ(second.to_json(), first.to_json()) << "iteration " << iter;
    EXPECT_EQ(write_series(second, csv), encoded) << "iteration " << iter;
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "iteration " << iter << ": " << text;
      return;
    }
  }
  // Both outcomes occur, so neither check above is vacuous.
  EXPECT_GT(rejected, 1000);
  EXPECT_GT(decoded, 1000);
}

TEST(TimeSeriesMutation, JsonDecodesOrRejectsAndReencodesStably) {
  expect_series_mutants_round_trip(/*csv=*/false);
}

TEST(TimeSeriesMutation, CsvDecodesOrRejectsAndReencodesStably) {
  expect_series_mutants_round_trip(/*csv=*/true);
}

// A CSV export names its interval only through time_ms: the first row
// past tick 0 fixes it, and a row whose time disagrees is refused.
TEST(TimeSeriesMutation, CsvTimeColumnMustFollowOneInterval) {
  obs::TimeSeriesSampler series(50'000'000);
  for (const std::uint64_t tick : {0, 3, 4, 7}) {
    series.begin_tick(tick);
    series.record("depth", static_cast<double>(tick));
    series.end_tick();
  }
  const std::string csv = series.to_csv();
  ASSERT_EQ(csv,
            "tick,time_ms,depth\n0,0,0\n3,150,3\n4,200,4\n7,350,7\n");
  EXPECT_EQ(obs::TimeSeriesSampler::from_csv(csv).interval_ns(), 50'000'000u);
  const struct {
    std::string text;
    const char* message;
  } cases[] = {
      {"tick,time_ms,depth\n0,0,0\n3,150,3\n4,250,4\n7,350,7\n",
       "line 4: time_ms 250 is not tick 4 times the interval of 50000000 ns"},
      {"tick,time_ms,depth\n0,1,0\n3,150,3\n",
       "line 2: time_ms 1 is not tick 0 times a whole number of nanoseconds"},
      {"tick,time_ms,depth\n3,0,3\n",
       "line 2: time_ms 0 is not tick 3 times a whole number of nanoseconds"},
      {"tick,time_ms,depth\n3,0.0000001,3\n",
       "line 2: time_ms 0.0000001 is not tick 3 times a whole number of "
       "nanoseconds"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.text);
    try {
      obs::TimeSeriesSampler::from_csv(c.text);
      ADD_FAILURE() << "accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), c.message);
    }
  }
  // Only tick 0: no interval to recover.
  EXPECT_EQ(obs::TimeSeriesSampler::from_csv("tick,time_ms,depth\n0,0,1\n")
                .interval_ns(),
            0u);
}

// ---------------------------------------------------------------------------
// Attribution — exact telescoping identity on a real traced campaign.
// ---------------------------------------------------------------------------

// The JSON schema is stable: every component appears even with zero
// samples (attr_dns_ms never fires in a fixed-FE campaign, yet bench_diff
// and plotting scripts rely on the key existing).
TEST(Attribution, AllComponentsAppearInJsonEvenWithZeroSamples) {
  const obs::QueryAttribution attribution;
  const std::string json = attribution.to_json();
  for (const std::string& name : obs::QueryAttribution::component_names()) {
    EXPECT_NE(json.find("\"" + name + "\":{\"count\":0"), std::string::npos)
        << name;
  }
}

TEST(Attribution, TelescopingIdentityHoldsExactly) {
  testbed::ScenarioOptions opt = telemetry_scenario();
  opt.enable_tracing = true;
  testbed::Scenario scenario(opt);
  scenario.warm_up();
  const testbed::ExperimentResult result =
      testbed::run_fixed_fe_experiment(scenario, 0, telemetry_experiment());

  EXPECT_GT(result.attribution.queries(), 0u);
  EXPECT_EQ(result.attribution.reconcile_failures(), 0u);

  // Re-walk the span forest and check the identity per query in integer
  // nanoseconds: (uplink + fe_wait + fe_fetch + delivery) - ack ==
  // t5 - t2 == T_dynamic, with absent anchors collapsed onto their
  // predecessor.
  ASSERT_NE(result.trace, nullptr);
  const analysis::SpanAttributionResult walked =
      analysis::extract_attribution(result.trace->spans(), result.boundary);
  ASSERT_EQ(walked.queries.size(), result.attribution.queries());
  for (const analysis::AttributedQuery& q : walked.queries) {
    ASSERT_TRUE(q.ok);
    const obs::QueryAttribution::Sample& s = q.sample;
    const std::int64_t a0 = s.t1;
    const std::int64_t a1 = s.fe_recv >= 0 ? s.fe_recv : a0;
    const std::int64_t a2 = s.fetch_start >= 0 ? s.fetch_start : a1;
    const std::int64_t a3 = s.fetch_first_byte >= 0 ? s.fetch_first_byte : a2;
    const std::int64_t sum =
        (a1 - a0) + (a2 - a1) + (a3 - a2) + (s.t5 - a3) - (s.t2 - s.t1);
    EXPECT_EQ(sum, s.t5 - s.t2) << q.node << "/" << q.keyword;
    EXPECT_EQ(q.t_dynamic_ms, static_cast<double>(s.t5 - s.t2) / 1e6);
  }
}

// A span dump alone is attributable: the FE stamps the static portion's
// wire size on static_flush, so trace_inspect can recover a boundary
// without the packet capture that discovered the canonical one.
TEST(Attribution, BoundaryRecoverableFromStaticFlushStamps) {
  testbed::ScenarioOptions opt = telemetry_scenario();
  opt.enable_tracing = true;
  testbed::Scenario scenario(opt);
  scenario.warm_up();
  const testbed::ExperimentResult result =
      testbed::run_fixed_fe_experiment(scenario, 0, telemetry_experiment());

  ASSERT_NE(result.trace, nullptr);
  const std::size_t stamped =
      analysis::boundary_from_spans(result.trace->spans());
  ASSERT_GT(stamped, 0u);
  // The stamp is the head + cached-prefix wire size; the discovered
  // boundary can only extend it (dynamic portions may share a few leading
  // bytes across keywords), never undercut it.
  EXPECT_LE(stamped, result.boundary);

  // The stamp is good enough to attribute every query on its own.
  const analysis::SpanAttributionResult walked =
      analysis::extract_attribution(result.trace->spans(), stamped);
  EXPECT_EQ(walked.queries.size(), result.attribution.queries());
  EXPECT_EQ(walked.skipped, 0u);
}

TEST(Attribution, RegistryByteIdenticalAcrossThreadCounts) {
  const auto eo = telemetry_experiment();
  std::string ref;
  for (const std::size_t threads : {1u, 4u}) {
    testbed::ScenarioOptions opt = telemetry_scenario();
    opt.enable_tracing = true;
    testbed::ReplicaPlan plan;
    plan.executor.threads = threads;
    const testbed::ExperimentResult result =
        testbed::run_fixed_fe_experiment(opt, 0, eo, plan);
    EXPECT_EQ(result.attribution.reconcile_failures(), 0u);
    const std::string prom = obs::export_prometheus(result.attribution.registry());
    if (ref.empty()) {
      ref = prom;
      EXPECT_NE(prom.find("attr_t_dynamic_ms"), std::string::npos);
    } else {
      EXPECT_EQ(prom, ref);
    }
  }
}

TEST(FlightRecorder, CampaignWithExplicitThresholdPromotesSpanTrees) {
  testbed::ScenarioOptions opt = telemetry_scenario();
  opt.enable_tracing = true;
  testbed::Scenario scenario(opt);
  scenario.warm_up();
  testbed::ExperimentOptions eo = telemetry_experiment();
  eo.flight.threshold_ms = 0.001;  // everything is "slow"
  const testbed::ExperimentResult result =
      testbed::run_fixed_fe_experiment(scenario, 0, eo);
  ASSERT_FALSE(result.flight.slow().empty());
  for (const obs::FlightRecorder::Entry& e : result.flight.slow()) {
    EXPECT_FALSE(e.node.empty());
    EXPECT_FALSE(e.spans.empty());
    EXPECT_GT(e.t_dynamic_ms, e.threshold_ms);
  }
  // The dump parses as JSON and reports every completed query observed.
  const auto doc = obs::json::parse(result.flight.to_json());
  ASSERT_TRUE(doc.has_value());
  const auto* observed = doc->get("observed");
  ASSERT_NE(observed, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(observed->as_int()),
            result.flight.observed());
}

// ---------------------------------------------------------------------------
// FlightRecorder unit behaviour (no simulation required).
// ---------------------------------------------------------------------------

obs::FlightRecorder::Entry entry_ms(double t_dynamic_ms) {
  obs::FlightRecorder::Entry e;
  e.node = "client-0";
  e.keyword = "kw";
  e.t_dynamic_ms = t_dynamic_ms;
  return e;
}

TEST(FlightRecorder, ExplicitThresholdSplitsSlowFromRecent) {
  obs::FlightRecorder::Options o;
  o.threshold_ms = 10.0;
  obs::FlightRecorder fr(o);
  EXPECT_FALSE(fr.observe(entry_ms(5.0)));
  EXPECT_TRUE(fr.observe(entry_ms(15.0)));
  EXPECT_EQ(fr.observed(), 2u);
  ASSERT_EQ(fr.slow().size(), 1u);
  EXPECT_EQ(fr.slow().front().t_dynamic_ms, 15.0);
  EXPECT_EQ(fr.slow().front().threshold_ms, 10.0);
  ASSERT_EQ(fr.recent().size(), 1u);
  EXPECT_EQ(fr.recent().front().t_dynamic_ms, 5.0);
}

TEST(FlightRecorder, AdaptiveTriggerArmsAfterMinSamples) {
  obs::FlightRecorder::Options o;
  o.min_samples = 3;
  o.quantile = 0.5;
  o.slow_factor = 2.0;
  obs::FlightRecorder fr(o);
  // Unarmed: even a huge outlier is not promoted before min_samples.
  EXPECT_FALSE(fr.observe(entry_ms(1000.0)));
  EXPECT_FALSE(fr.observe(entry_ms(1.0)));
  EXPECT_FALSE(fr.observe(entry_ms(1.0)));
  // Armed now; threshold = p50 * 2, far below the next outlier.
  EXPECT_GT(fr.current_threshold_ms(), 0.0);
  EXPECT_TRUE(fr.observe(entry_ms(5000.0)));
  ASSERT_EQ(fr.slow().size(), 1u);
  EXPECT_GT(fr.slow().front().threshold_ms, 0.0);
}

TEST(FlightRecorder, BoundedLogsEvictOldestAndMergeReapplies) {
  obs::FlightRecorder::Options o;
  o.threshold_ms = 1.0;
  o.slow_capacity = 2;
  obs::FlightRecorder fr(o);
  fr.observe(entry_ms(10.0));
  fr.observe(entry_ms(20.0));
  fr.observe(entry_ms(30.0));
  ASSERT_EQ(fr.slow().size(), 2u);
  EXPECT_EQ(fr.slow().front().t_dynamic_ms, 20.0);
  EXPECT_EQ(fr.slow().back().t_dynamic_ms, 30.0);

  obs::FlightRecorder other(o);
  other.observe(entry_ms(40.0));
  fr.merge(other);
  EXPECT_EQ(fr.observed(), 4u);
  ASSERT_EQ(fr.slow().size(), 2u);
  EXPECT_EQ(fr.slow().back().t_dynamic_ms, 40.0);
}

TEST(FlightRecorder, ZeroCapacitiesClampToOne) {
  obs::FlightRecorder::Options o;
  o.recent_capacity = 0;
  o.slow_capacity = 0;
  obs::FlightRecorder fr(o);
  EXPECT_EQ(fr.options().recent_capacity, 1u);
  EXPECT_EQ(fr.options().slow_capacity, 1u);
}

// ---------------------------------------------------------------------------
// Allocation counters: per-thread blocks summed on read. The test drives
// the counters directly (the operator new hooks are compiled out under
// sanitizers) from raw pthreads, whose creation and exit call no operator
// new, so in a tracked build the only counts between snapshots are these.
// ---------------------------------------------------------------------------

struct CountingThread {
  std::size_t bytes = 0;      // per allocation
  std::size_t allocs = 0;
  std::size_t frees = 0;
  bool stay = false;          // park until released instead of exiting
  std::size_t after_release = 0;  // then allocate and free this many
  std::atomic<int>* done = nullptr;
  std::atomic<bool>* release = nullptr;
  pthread_t handle{};

  static void* run(void* arg) {
    auto* self = static_cast<CountingThread*>(arg);
    for (std::size_t i = 0; i < self->allocs; ++i) {
      obs::count_allocation(self->bytes);
    }
    for (std::size_t i = 0; i < self->frees; ++i) obs::count_free(self->bytes);
    self->done->fetch_add(1);
    while (self->stay && !self->release->load()) sched_yield();
    for (std::size_t i = 0; i < self->after_release; ++i) {
      obs::count_allocation(self->bytes);
    }
    for (std::size_t i = 0; i < self->after_release; ++i) {
      obs::count_free(self->bytes);
    }
    return nullptr;
  }
};

TEST(MemoryCounters, SumsEveryThreadIncludingExitedOnes) {
  constexpr std::size_t kThreads = 6;  // even ones exit before the read
  std::array<CountingThread, kThreads> threads;
  std::atomic<int> done{0};
  std::atomic<bool> release{false};
  std::uint64_t allocs = 0, frees = 0;
  std::int64_t live = 0;
  for (std::size_t i = 0; i < kThreads; ++i) {
    CountingThread& t = threads[i];
    t.bytes = 16 * (i + 1);
    t.allocs = 1000 * (i + 1);
    t.frees = 300 * i;
    t.stay = i % 2 == 1;
    t.done = &done;
    t.release = &release;
    allocs += t.allocs;
    frees += t.frees;
    live += static_cast<std::int64_t>(t.bytes * (t.allocs - t.frees));
  }

  const obs::MemorySnapshot before = obs::memory_snapshot();
  for (CountingThread& t : threads) {
    ASSERT_EQ(pthread_create(&t.handle, nullptr, &CountingThread::run, &t),
              0);
  }
  while (done.load() < static_cast<int>(kThreads)) sched_yield();
  for (const CountingThread& t : threads) {
    if (!t.stay) pthread_join(t.handle, nullptr);
  }
  const obs::MemorySnapshot mixed = obs::memory_snapshot();  // 3 exited
  release.store(true);
  for (const CountingThread& t : threads) {
    if (t.stay) pthread_join(t.handle, nullptr);
  }
  const obs::MemorySnapshot after = obs::memory_snapshot();  // all exited

  for (const obs::MemorySnapshot& s : {mixed, after}) {
    EXPECT_EQ(s.allocations - before.allocations, allocs);
    EXPECT_EQ(s.frees - before.frees, frees);
    EXPECT_EQ(static_cast<std::int64_t>(s.live_bytes - before.live_bytes),
              live);
  }
}

TEST(MemoryCounters, PeakIsTheSumOfPerThreadHighWaterMarks) {
  // Exact for one allocating thread; with two, each thread's own
  // high-water mark counts in full, however the two interleave.
  for (const std::size_t workers : {1u, 2u}) {
    std::vector<CountingThread> threads(workers);
    std::atomic<int> done{0};
    std::atomic<bool> release{true};
    obs::reset_peak_live_bytes();
    const obs::MemorySnapshot before = obs::memory_snapshot();
    for (CountingThread& t : threads) {
      t.bytes = 100;
      t.allocs = 50;
      t.frees = 50;
      t.done = &done;
      t.release = &release;
      ASSERT_EQ(pthread_create(&t.handle, nullptr, &CountingThread::run, &t),
                0);
    }
    for (const CountingThread& t : threads) pthread_join(t.handle, nullptr);
    const obs::MemorySnapshot after = obs::memory_snapshot();
    EXPECT_EQ(after.live_bytes, before.live_bytes);
    EXPECT_EQ(after.peak_live_bytes - before.live_bytes, workers * 5000u)
        << workers << " workers";
  }

  // A reset between a thread's counts starts its mark afresh: 5000 bytes
  // before the reset, a 1000-byte peak after it.
  CountingThread t;
  std::atomic<int> done{0};
  std::atomic<bool> release{false};
  t.bytes = 100;
  t.allocs = 50;
  t.frees = 50;
  t.stay = true;
  t.after_release = 10;
  t.done = &done;
  t.release = &release;
  ASSERT_EQ(pthread_create(&t.handle, nullptr, &CountingThread::run, &t), 0);
  while (done.load() < 1) sched_yield();
  obs::reset_peak_live_bytes();
  const obs::MemorySnapshot before = obs::memory_snapshot();
  release.store(true);
  pthread_join(t.handle, nullptr);
  const obs::MemorySnapshot after = obs::memory_snapshot();
  EXPECT_EQ(after.peak_live_bytes - before.live_bytes, 1000u);
}

}  // namespace
}  // namespace dyncdn

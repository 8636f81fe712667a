// Acceptance suite: the paper's headline claims, each as one assertion-
// backed miniature of the corresponding experiment. `ctest -R acceptance`
// is the one-shot check that the reproduction still reproduces.
//
// Scales are kept small (minutes of simulated time, seconds of wall time);
// the bench binaries run the full-size versions.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/cache_detector.hpp"
#include "core/inference.hpp"
#include "search/keywords.hpp"
#include "stats/cdf.hpp"
#include "stats/descriptive.hpp"
#include "testbed/experiment.hpp"
#include "testbed/parallel_experiment.hpp"
#include "testbed/scenario.hpp"

namespace dyncdn {
namespace {

using namespace dyncdn::sim::literals;

testbed::ExperimentOptions quick_experiment(std::size_t reps) {
  testbed::ExperimentOptions eo;
  eo.reps_per_node = reps;
  eo.interval = 1100_ms;
  search::KeywordCatalog catalog(5);
  eo.keywords = {catalog.figure3_keywords().front()};
  return eo;
}

/// Claim 1 (§3, Fig. 3): responses contain a static portion, identical
/// across queries, and a keyword-dependent dynamic portion whose delivery
/// time varies with query type while the static portion's does not.
TEST(Acceptance, StaticPortionExistsAndKeywordEffectIsDynamicOnly) {
  testbed::ScenarioOptions opt;
  opt.profile = cdn::bing_like_profile();
  opt.client_count = 1;
  opt.seed = 42;
  testbed::Scenario s(opt);
  s.warm_up();

  const std::size_t boundary = testbed::discover_boundary(s, 0, 0);
  EXPECT_GE(boundary, s.content().static_prefix().size());
  s.connect_client_to_fe(0, 0);

  search::KeywordCatalog catalog(42);
  std::vector<double> static_meds, dynamic_meds;
  for (const auto& kw : catalog.figure3_keywords()) {
    auto& client = s.clients().front();
    client.query_client->submit_repeated(s.fe_endpoint(0), kw, 10, 900_ms,
                                         [](const cdn::QueryResult&) {});
    s.run();
    const auto timelines = analysis::extract_all_timelines(
        client.recorder->trace(), 80, boundary);
    client.recorder->clear();
    const auto timings = core::timings_from_timelines(timelines);
    static_meds.push_back(stats::median(core::extract_static(timings)));
    dynamic_meds.push_back(stats::median(core::extract_dynamic(timings)));
  }
  const double static_spread =
      stats::max_of(static_meds) - stats::min_of(static_meds);
  const double dynamic_spread =
      stats::max_of(dynamic_meds) - stats::min_of(dynamic_meds);
  EXPECT_GT(dynamic_spread, 2.0 * static_spread);
}

/// Claim 2 (Eq. 1, the core contribution): the externally measured
/// T_delta/T_dynamic bracket the unobservable FE-BE fetch time.
TEST(Acceptance, FetchTimeBoundsHold) {
  for (const bool bing : {false, true}) {
    testbed::ScenarioOptions opt;
    opt.profile = bing ? cdn::bing_like_profile() : cdn::google_like_profile();
    opt.client_count = 1;
    opt.seed = 7;
    testbed::Scenario s(opt);
    s.warm_up();
    const auto r = testbed::run_fixed_fe_experiment(s, 0, quick_experiment(8));
    const auto& timings = r.per_node_timings.at(0);
    const auto& log = s.fes()[0].server->fetch_log();
    ASSERT_EQ(timings.size(), 8u);
    ASSERT_EQ(log.size(), 8u);
    for (std::size_t i = 0; i < timings.size(); ++i) {
      const double truth = log[i].true_fetch_time().to_milliseconds();
      EXPECT_LE(timings[i].t_delta_ms, truth + 0.5);
      EXPECT_GE(timings[i].t_dynamic_ms, truth - 0.5);
    }
  }
}

/// Claim 3 (Fig. 5 / §4.1): T_delta declines with RTT and collapses beyond
/// a threshold that is larger for the slower-fetch (Bing-like) service.
TEST(Acceptance, DeltaThresholdOrderedAcrossServices) {
  auto threshold = [](cdn::ServiceProfile profile) {
    testbed::ScenarioOptions opt;
    opt.profile = std::move(profile);
    opt.profile.fe_service.sigma = 0.05;
    opt.profile.fe_service.load_amplitude = 0.0;
    opt.profile.processing.load.sigma = 0.05;
    opt.profile.processing.load.load_amplitude = 0.0;
    opt.client_count = 45;
    opt.seed = 55;
    testbed::Scenario s(opt);
    s.warm_up();
    const auto r = testbed::run_fixed_fe_experiment(s, 0, quick_experiment(5));
    return core::estimate_delta_threshold(r.per_node);
  };
  const auto google = threshold(cdn::google_like_profile());
  const auto bing = threshold(cdn::bing_like_profile());
  ASSERT_TRUE(google.found);
  EXPECT_LT(google.threshold_rtt_ms, 120.0);
  // Bing's fetch is so large that within our RTT range its T_delta may
  // never collapse — which *is* the ordering claim; when found it must
  // exceed Google's.
  if (bing.found) {
    EXPECT_GT(bing.threshold_rtt_ms, google.threshold_rtt_ms);
  }
}

/// Claim 4 (Figs. 6-8): the Bing-like FEs are closer to clients, yet the
/// service delivers higher and more variable times.
TEST(Acceptance, ProximityDoesNotImplyPerformance) {
  auto run = [](cdn::ServiceProfile profile) {
    testbed::ScenarioOptions opt;
    opt.profile = std::move(profile);
    opt.client_count = 35;
    opt.seed = 77;
    testbed::Scenario s(opt);
    s.warm_up();
    return testbed::run_default_fe_experiment(s, quick_experiment(4));
  };
  const auto bing = run(cdn::bing_like_profile());
  const auto google = run(cdn::google_like_profile());

  auto column = [](const testbed::ExperimentResult& r,
                   double core::NodeAggregate::* field) {
    std::vector<double> out;
    for (const auto& n : r.per_node) {
      if (n.samples > 0) out.push_back(n.*field);
    }
    return out;
  };
  const double bing_rtt =
      stats::median(column(bing, &core::NodeAggregate::rtt_ms));
  const double google_rtt =
      stats::median(column(google, &core::NodeAggregate::rtt_ms));
  EXPECT_LT(bing_rtt, google_rtt);  // closer...

  const double bing_dyn =
      stats::median(column(bing, &core::NodeAggregate::med_dynamic_ms));
  const double google_dyn =
      stats::median(column(google, &core::NodeAggregate::med_dynamic_ms));
  EXPECT_GT(bing_dyn, google_dyn);  // ...yet slower

  const double bing_overall =
      stats::median(column(bing, &core::NodeAggregate::med_overall_ms));
  const double google_overall =
      stats::median(column(google, &core::NodeAggregate::med_overall_ms));
  EXPECT_GT(bing_overall, google_overall);
}

/// Claim 5 (Fig. 9 / §5): T_dynamic grows linearly with FE-BE distance;
/// the intercept (processing cost) is far larger for the Bing-like
/// service while the slopes are comparable.
TEST(Acceptance, FetchFactoringRecoversTheContrast) {
  auto factor = [](cdn::ServiceProfile profile) {
    testbed::ScenarioOptions opt;
    opt.profile = std::move(profile);
    opt.profile.fe_service.sigma = 0.05;
    opt.profile.fe_service.load_amplitude = 0.0;
    opt.profile.processing.load.sigma = 0.05;
    opt.profile.processing.load.load_amplitude = 0.0;
    opt.seed = 99;
    opt.fe_distance_sweep_miles =
        std::vector<double>{60, 170, 280, 390, 500};
    const search::Keyword kw{"acceptance factoring probe",
                             search::KeywordClass::kGranular, 5000};
    testbed::ReplicaPlan serial;
    serial.shards = 1;
    return testbed::run_fetch_factoring_experiment(opt, kw, 10, serial)
        .factoring;
  };
  const auto bing = factor(cdn::bing_like_profile());
  const auto google = factor(cdn::google_like_profile());
  EXPECT_GT(bing.fit.r_squared, 0.85);
  EXPECT_GT(google.fit.r_squared, 0.85);
  EXPECT_GT(bing.t_proc_ms(), 3.0 * google.t_proc_ms());
  const double ratio = bing.slope_ms_per_mile() / google.slope_ms_per_mile();
  EXPECT_GT(ratio, 0.4);
  EXPECT_LT(ratio, 2.5);
}

/// Claim 6 (§3): FE servers do not cache dynamically generated results —
/// and the detector has the power to catch them if they did.
TEST(Acceptance, NoFeCachingAndDetectorHasPower) {
  for (const bool counterfactual : {false, true}) {
    testbed::ScenarioOptions opt;
    opt.profile = cdn::google_like_profile();
    opt.client_count = 10;
    opt.seed = 23;
    opt.fe_cache_results = counterfactual;
    testbed::Scenario s(opt);
    s.warm_up();
    std::size_t probe = 0;
    sim::SimTime best = sim::SimTime::infinity();
    for (std::size_t i = 0; i < s.clients().size(); ++i) {
      if (s.client_fe_rtt(i, 0) < best) {
        best = s.client_fe_rtt(i, 0);
        probe = i;
      }
    }
    const auto r = testbed::run_caching_experiment(s, probe, 0, 20);
    EXPECT_EQ(r.detection.caching_detected, counterfactual)
        << r.detection.verdict();
  }
}

}  // namespace
}  // namespace dyncdn

// Property suites for the inference framework on live simulations: the
// paper's model predictions must hold across deployment profiles, seeds
// and operating conditions — not just on the single calibrated default.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/inference.hpp"
#include "search/keywords.hpp"
#include "stats/regression.hpp"
#include "testbed/experiment.hpp"
#include "testbed/parallel_experiment.hpp"
#include "testbed/scenario.hpp"

namespace dyncdn::testbed {
namespace {

using namespace dyncdn::sim::literals;

enum class Profile { kGoogle, kBing };

cdn::ServiceProfile make_profile(Profile p) {
  return p == Profile::kGoogle ? cdn::google_like_profile()
                               : cdn::bing_like_profile();
}

const char* profile_name(Profile p) {
  return p == Profile::kGoogle ? "Google" : "Bing";
}

// ---------------------------------------------------------------------------
// The central invariant: T_delta <= true T_fetch <= T_dynamic, per query.
// ---------------------------------------------------------------------------

class BoundsInvariantSweep
    : public ::testing::TestWithParam<std::tuple<Profile, std::uint64_t>> {};

TEST_P(BoundsInvariantSweep, PerQueryFetchBoundsHold) {
  const auto [profile, seed] = GetParam();
  ScenarioOptions opt;
  opt.profile = make_profile(profile);
  opt.client_count = 1;  // single client: fetch log maps 1:1 onto timings
  opt.seed = seed;
  Scenario scenario(opt);
  scenario.warm_up();

  ExperimentOptions eo;
  eo.reps_per_node = 10;
  eo.interval = 1100_ms;
  search::KeywordCatalog catalog(seed);
  eo.keywords = catalog.figure3_keywords();
  const ExperimentResult r = run_fixed_fe_experiment(scenario, 0, eo);

  const auto& timings = r.per_node_timings.at(0);
  const auto& fetch_log = scenario.fes()[0].server->fetch_log();
  ASSERT_EQ(timings.size(), 10u);
  ASSERT_EQ(fetch_log.size(), 10u);

  for (std::size_t i = 0; i < timings.size(); ++i) {
    const double truth = fetch_log[i].true_fetch_time().to_milliseconds();
    const core::FetchBounds bounds = core::fetch_bounds(timings[i]);
    // Half-millisecond slack: t4/t5 are packet arrival instants while the
    // fetch log records FE-side byte events.
    EXPECT_LE(bounds.lower_ms, truth + 0.5)
        << profile_name(profile) << " query " << i;
    EXPECT_GE(bounds.upper_ms, truth - 0.5)
        << profile_name(profile) << " query " << i;
    // Structural sanity.
    EXPECT_GE(timings[i].t_dynamic_ms, timings[i].t_static_ms - 0.5);
    EXPECT_GE(timings[i].t_delta_ms, 0.0);
    EXPECT_GT(timings[i].overall_ms, timings[i].t_dynamic_ms);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ProfilesAndSeeds, BoundsInvariantSweep,
    ::testing::Combine(::testing::Values(Profile::kGoogle, Profile::kBing),
                       ::testing::Values<std::uint64_t>(1, 17, 4242)),
    [](const auto& info) {
      return std::string(profile_name(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Model predictions as properties of the per-node aggregates.
// ---------------------------------------------------------------------------

class ModelShapeSweep : public ::testing::TestWithParam<Profile> {};

TEST_P(ModelShapeSweep, StaticIsRttInsensitiveAndDeltaDeclines) {
  ScenarioOptions opt;
  opt.profile = make_profile(GetParam());
  // Keep server-side noise down so the shape assertions are sharp.
  opt.profile.fe_service.sigma = 0.03;
  opt.profile.fe_service.load_amplitude = 0.0;
  opt.profile.processing.load.sigma = 0.03;
  opt.profile.processing.load.load_amplitude = 0.0;
  opt.client_count = 40;
  opt.seed = 77;
  Scenario scenario(opt);
  scenario.warm_up();

  ExperimentOptions eo;
  eo.reps_per_node = 6;
  eo.interval = 1300_ms;
  search::KeywordCatalog catalog(2);
  eo.keywords = {catalog.figure3_keywords().front()};
  const ExperimentResult r = run_fixed_fe_experiment(scenario, 0, eo);

  std::vector<double> rtt, tsta, tdelta;
  for (const auto& n : r.per_node) {
    if (n.samples == 0) continue;
    rtt.push_back(n.rtt_ms);
    tsta.push_back(n.med_static_ms);
    tdelta.push_back(n.med_delta_ms);
  }
  ASSERT_GE(rtt.size(), 30u);

  // T_static: the initial RTT is subtracted by construction; what remains
  // is the residual delivery round for the static tail (the paper's model:
  // "the delivery time for the static content is a function of RTT" — this
  // is also what lets T_delta collapse). Slope must be ~1 delivery round,
  // never compounding.
  const auto static_fit = stats::linear_fit(rtt, tsta);
  EXPECT_GT(static_fit.slope, 0.0) << static_fit.to_string();
  EXPECT_LT(static_fit.slope, 1.3) << static_fit.to_string();

  // T_delta: declines with RTT (negative slope) until collapse.
  std::vector<double> rtt_pre, delta_pre;
  for (std::size_t i = 0; i < rtt.size(); ++i) {
    if (tdelta[i] > 5.0) {
      rtt_pre.push_back(rtt[i]);
      delta_pre.push_back(tdelta[i]);
    }
  }
  if (rtt_pre.size() >= 8) {
    const auto delta_fit = stats::linear_fit(rtt_pre, delta_pre);
    EXPECT_LT(delta_fit.slope, -0.4) << delta_fit.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Profiles, ModelShapeSweep,
                         ::testing::Values(Profile::kGoogle, Profile::kBing),
                         [](const auto& info) {
                           return profile_name(info.param);
                         });

// ---------------------------------------------------------------------------
// Fetch factoring is stable across seeds.
// ---------------------------------------------------------------------------

class FactoringSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FactoringSweep, InterceptTracksProcessingAcrossSeeds) {
  ScenarioOptions opt;
  opt.profile = cdn::google_like_profile();
  opt.profile.processing.load.sigma = 0.03;
  opt.profile.processing.load.load_amplitude = 0.0;
  opt.profile.fe_service.sigma = 0.03;
  opt.profile.fe_service.load_amplitude = 0.0;
  opt.seed = GetParam();
  opt.fe_distance_sweep_miles =
      std::vector<double>{50, 140, 230, 320, 410, 500};

  const search::Keyword keyword{"stable factoring keyword",
                                search::KeywordClass::kGranular, 5000};
  ReplicaPlan serial;
  serial.shards = 1;
  const FetchFactoringResult r =
      run_fetch_factoring_experiment(opt, keyword, 8, serial);

  EXPECT_GT(r.factoring.fit.r_squared, 0.85);
  EXPECT_GT(r.factoring.slope_ms_per_mile(), 0.0);
  const double expected_intercept =
      opt.profile.processing.base_for(keyword) +
      opt.profile.fe_service.median_ms;
  EXPECT_NEAR(r.factoring.t_proc_ms(), expected_intercept,
              0.35 * expected_intercept)
      << r.factoring.to_string();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FactoringSweep,
                         ::testing::Values<std::uint64_t>(3, 1234, 98765));

// ---------------------------------------------------------------------------
// The inference survives adverse measurement conditions.
// ---------------------------------------------------------------------------

class AdverseMeasurementSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(AdverseMeasurementSweep, BoundsHoldUnderLossAndReordering) {
  const auto [loss, queue_scale] = GetParam();
  ScenarioOptions opt;
  opt.profile = cdn::google_like_profile();
  opt.client_count = 1;
  opt.seed = 4711;
  opt.client_link_loss = loss;
  opt.profile.client_fe_bandwidth_bps *= queue_scale;
  Scenario scenario(opt);
  scenario.warm_up();

  ExperimentOptions eo;
  eo.reps_per_node = 8;
  eo.interval = 1500_ms;
  search::KeywordCatalog catalog(3);
  eo.keywords = {catalog.figure3_keywords().front()};
  const ExperimentResult r = run_fixed_fe_experiment(scenario, 0, eo);

  // Loss may invalidate some timelines (the paper drops outliers too);
  // every timing that survives must respect the envelope.
  const auto& timings = r.per_node_timings.at(0);
  ASSERT_GE(timings.size(), 4u);
  const auto& fetch_log = scenario.fes()[0].server->fetch_log();
  ASSERT_EQ(fetch_log.size(), 8u);
  double max_truth = 0;
  for (const auto& fetch : fetch_log) {
    max_truth = std::max(max_truth, fetch.true_fetch_time().to_milliseconds());
  }
  for (const auto& q : timings) {
    EXPECT_GE(q.t_delta_ms, 0.0);
    EXPECT_LE(q.t_delta_ms, max_truth + 0.5);
    EXPECT_GE(q.t_dynamic_ms, q.t_delta_ms);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Conditions, AdverseMeasurementSweep,
    ::testing::Combine(::testing::Values(0.0, 0.01, 0.03),
                       ::testing::Values(1.0, 0.2)));

}  // namespace
}  // namespace dyncdn::testbed

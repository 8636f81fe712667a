// Figure 9 / §5 reproduction: factoring the FE-BE fetch time.
//
// FE sites are placed at controlled distances from the BE data center,
// each probed by a co-located (low-RTT) client so that T_dynamic ~ T_fetch.
// Regressing median T_dynamic against distance factors the fetch time:
// the Y-intercept estimates the distance-independent cost (dominated by
// the BE processing time) and the slope the per-mile network delay.
//
// Paper numbers: intercept ~260ms (Bing) vs ~34ms (Google); slopes similar
// across the services (0.08 vs 0.099 ms/mile). We match the *shape*:
// T_dynamic grows linearly with distance (positive slopes, R^2 >= 0.5),
// intercept ordering and slope similarity. Our slope constant C is set by
// the internal TCP receive window (see DESIGN.md).
//
// Quick: 10 distances x 12 reps. DYNCDN_FULL=1: 20 x 30.
#include <cstdio>

#include "bench_util.hpp"
#include "core/inference.hpp"
#include "search/keywords.hpp"
#include "stats/bootstrap.hpp"
#include "testbed/parallel_experiment.hpp"
#include "testbed/scenario.hpp"

using namespace dyncdn;

namespace {

testbed::FetchFactoringResult run_service(cdn::ServiceProfile profile,
                                          std::size_t points,
                                          std::size_t reps) {
  testbed::ScenarioOptions opt;
  opt.profile = profile;
  opt.seed = 99;
  std::vector<double> distances;
  for (std::size_t i = 0; i < points; ++i) {
    distances.push_back(25.0 + 475.0 * static_cast<double>(i) /
                                   static_cast<double>(points - 1));
  }
  opt.fe_distance_sweep_miles = distances;

  // An ordinary (not BE-cache-hot) keyword: hot keywords shrink T_proc and
  // could push short-distance points into the delivery-gated regime.
  const search::Keyword keyword{"network measurement study",
                                search::KeywordClass::kGranular, 5000};
  // Sharded one-replica-per-sweep-point; thread-count-invariant results.
  return testbed::run_fetch_factoring_experiment(opt, keyword, reps,
                                                 testbed::ReplicaPlan{});
}

void report(const std::string& name,
            const testbed::FetchFactoringResult& r) {
  bench::section(name + " — T_dynamic vs FE->BE distance");
  std::printf("%14s %16s %16s\n", "distance(mi)", "med Tdynamic(ms)",
              "fit prediction");
  for (std::size_t i = 0; i < r.distances_miles.size(); ++i) {
    std::printf("%14.0f %16.1f %16.1f\n", r.distances_miles[i],
                r.med_t_dynamic_ms[i],
                r.factoring.fit.predict(r.distances_miles[i]));
  }
  bench::ascii_scatter(r.distances_miles, r.med_t_dynamic_ms, 64, 14);
  std::printf("  %s\n", r.factoring.to_string().c_str());

  // The paper reports the intercept as a point estimate; attach the
  // uncertainty it deserves.
  sim::RngStream rng(4242);
  const auto intercept_ci = stats::bootstrap_intercept_ci(
      r.distances_miles, r.med_t_dynamic_ms, rng);
  const auto slope_ci =
      stats::bootstrap_slope_ci(r.distances_miles, r.med_t_dynamic_ms, rng);
  std::printf("  intercept %s ms; slope %s ms/mile\n",
              intercept_ci.to_string().c_str(), slope_ci.to_string().c_str());

  const std::vector<std::string> cols{"distance_miles", "med_t_dynamic_ms"};
  const std::vector<std::vector<double>> data{r.distances_miles,
                                              r.med_t_dynamic_ms};
  bench::write_csv("fig9_" + name.substr(0, name.find(' ')) + ".csv", cols,
                   data);
}

}  // namespace

int main() {
  const std::size_t points = bench::full_scale() ? 20 : 12;
  const std::size_t reps = bench::full_scale() ? 80 : 24;
  bench::banner("Figure 9 — factoring the FE-BE fetch time",
                std::to_string(points) + " FE distances x " +
                    std::to_string(reps) + " queries from co-located probes");

  const auto bing = run_service(cdn::bing_like_profile(), points, reps);
  const auto google = run_service(cdn::google_like_profile(), points, reps);

  report("Bing-like (BE: Virginia)", bing);
  report("Google-like (BE: Lenoir, NC)", google);

  bench::section("paper-shape summary");
  std::printf("intercepts (est. T_proc + FE service): Bing-like %.0fms, "
              "Google-like %.0fms  (paper: 260 vs 34)\n",
              bing.factoring.t_proc_ms(), google.factoring.t_proc_ms());
  std::printf("slopes: Bing-like %.4f, Google-like %.4f ms/mile "
              "(paper: 0.08 vs 0.099)\n",
              bing.factoring.slope_ms_per_mile(),
              google.factoring.slope_ms_per_mile());
  const bool intercept_order =
      bing.factoring.t_proc_ms() > 3.0 * google.factoring.t_proc_ms();
  const double slope_ratio = bing.factoring.slope_ms_per_mile() /
                             google.factoring.slope_ms_per_mile();
  const bool slopes_similar = slope_ratio > 0.5 && slope_ratio < 2.0;
  // Linearity: distance explains most of the variance in the probes'
  // median T_dynamic, and more distance costs more time.
  const auto linear = [](const stats::LinearFit& fit) {
    return fit.slope > 0.0 && fit.r_squared >= 0.5;
  };
  const bool linear_both = linear(bing.factoring.fit) &&
                           linear(google.factoring.fit);
  std::printf("linear in distance (slope > 0, R^2 >= 0.5): %s "
              "(R^2 Bing-like %.3f, Google-like %.3f)\n",
              linear_both ? "yes" : "no", bing.factoring.fit.r_squared,
              google.factoring.fit.r_squared);
  std::printf("Bing intercept >> Google intercept: %s\n",
              intercept_order ? "yes" : "no");
  std::printf("slopes comparable across services:  %s (ratio %.2f)\n",
              slopes_similar ? "yes" : "no", slope_ratio);
  std::printf("implied C (round trips): Bing-like %.1f, Google-like %.1f\n",
              bing.factoring.implied_round_trips(),
              google.factoring.implied_round_trips());
  std::printf("paper shape %s\n",
              linear_both && intercept_order && slopes_similar ? "HOLDS"
                                                               : "VIOLATED");
  return 0;
}

// Extension: validating Eq. 2's constant C against the TCP window.
//
// The paper models the fetch time as T_fetch = T_proc + C * RTT_be where
// "C is constant, which depends on the TCP window size on the BE data
// center". We can test that claim directly: sweep the internal (FE<->BE)
// receive window, rerun the Fig. 9 distance regression for each setting,
// and compare the fitted C (slope / per-mile RTT) with the prediction
//
//     C ≈ 1 (request trip) + ceil(dynamic_body / window)   window rounds.
//
// Quick: 8 distances x 12 reps per window. DYNCDN_FULL=1: 12 x 40.
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "core/inference.hpp"
#include "search/keywords.hpp"
#include "testbed/parallel_experiment.hpp"

using namespace dyncdn;

int main() {
  const std::size_t points = bench::full_scale() ? 12 : 8;
  const std::size_t reps = bench::full_scale() ? 40 : 12;
  bench::banner("Extension — Eq. 2's C vs the internal TCP window",
                "fetch-factoring regression per window size; " +
                    std::to_string(points) + " distances x " +
                    std::to_string(reps) + " reps");

  const search::Keyword keyword{"window sweep probe keyword",
                                search::KeywordClass::kGranular, 5000};

  std::printf("%12s %12s %12s %12s %14s\n", "window(MSS)", "fitted C",
              "predicted C", "slope", "intercept(ms)");

  bool all_close = true;
  for (const std::size_t window_mss : {2u, 3u, 4u, 6u, 10u}) {
    testbed::ScenarioOptions opt;
    opt.profile = cdn::google_like_profile();
    opt.profile.internal_tcp.receive_buffer =
        window_mss * opt.profile.internal_tcp.mss;
    opt.profile.processing.load.sigma = 0.02;
    opt.profile.processing.load.load_amplitude = 0.0;
    opt.profile.fe_service.sigma = 0.02;
    opt.profile.fe_service.load_amplitude = 0.0;
    opt.seed = 909;
    std::vector<double> distances;
    for (std::size_t i = 0; i < points; ++i) {
      distances.push_back(60.0 + 440.0 * static_cast<double>(i) /
                                     static_cast<double>(points - 1));
    }
    opt.fe_distance_sweep_miles = distances;

    testbed::ReplicaPlan serial;
    serial.shards = 1;
    const auto r =
        testbed::run_fetch_factoring_experiment(opt, keyword, reps, serial);

    // Prediction: dynamic body for this keyword (deterministic expected
    // size) over the configured window, plus the request's trip.
    const double body =
        static_cast<double>(opt.profile.content.dynamic_base_bytes +
                            opt.profile.content.dynamic_per_word_bytes *
                                keyword.word_count());
    const double window_bytes =
        static_cast<double>(window_mss * opt.profile.internal_tcp.mss);
    const double predicted = 1.0 + std::ceil(body / window_bytes);
    const double fitted = r.factoring.implied_round_trips();

    std::printf("%12zu %12.2f %12.1f %12.4f %14.1f\n",
                static_cast<std::size_t>(window_mss), fitted, predicted,
                r.factoring.slope_ms_per_mile(), r.factoring.t_proc_ms());
    if (std::fabs(fitted - predicted) > 0.45 * predicted + 0.8) {
      all_close = false;
    }
  }

  bench::section("verdict");
  std::printf("Eq. 2 validated: fitted C tracks 1 + ceil(body/window) "
              "across window sizes — %s\n",
              all_close ? "HOLDS" : "VIOLATED");
  std::printf("(C shrinks as the BE window grows: a wide-open internal "
              "window makes the fetch distance-insensitive, one more knob "
              "in the placement trade-off.)\n");
  return 0;
}

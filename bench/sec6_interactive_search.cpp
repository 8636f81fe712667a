// §6 reproduction: the interactive "search as you type" feature.
//
// A nearby client types a long query character by character; every
// keystroke issues the current prefix as a separate query over a fresh TCP
// connection (the behaviour the paper observed in Google's early
// deployment). Claims to reproduce:
//   1. one TCP connection per keystroke;
//   2. each per-keystroke delivery still fits the basic model — valid
//      t1..te timelines, and T_delta <= true T_fetch <= T_dynamic;
//   3. BE processing time drops for subsequent keystrokes because they
//      are highly correlated with (strict extensions of) prior queries.
#include <cstdio>

#include "analysis/timeline.hpp"
#include "bench_util.hpp"
#include "cdn/interactive.hpp"
#include "core/inference.hpp"
#include "core/timings.hpp"
#include "search/keywords.hpp"
#include "testbed/experiment.hpp"
#include "testbed/scenario.hpp"

using namespace dyncdn;

int main() {
  bench::banner("§6 — interactive search-as-you-type",
                "one query per keystroke over a fresh connection; BE "
                "prefix-correlation enabled");

  testbed::ScenarioOptions opt;
  opt.profile = cdn::google_like_profile();
  opt.profile.processing.correlation_history = 64;  // enable the feature
  opt.profile.processing.load.sigma = 0.03;
  opt.profile.fe_service.sigma = 0.03;
  opt.profile.last_mile_min_ms = 2.0;
  opt.profile.last_mile_max_ms = 2.0;
  opt.seed = 606;
  opt.fe_distance_sweep_miles = std::vector<double>{250.0};
  testbed::Scenario scenario(opt);
  scenario.warm_up();

  const std::size_t boundary = testbed::discover_boundary(scenario, 0, 0);
  scenario.connect_client_to_fe(0, 0);

  auto& client = scenario.clients().front();

  const search::Keyword full{"computer science department",
                             search::KeywordClass::kGranular, 900};
  cdn::TypingOptions typing;
  cdn::InteractiveTyper typer(*client.query_client, typing, 77);

  cdn::TypingSessionResult session;
  typer.type(scenario.fe_endpoint(0), full,
             [&](const cdn::TypingSessionResult& s) { session = s; });
  scenario.run();

  // Per-keystroke analysis from the packet capture.
  const auto timelines = analysis::extract_all_timelines(
      client.recorder->trace(), 80, boundary);
  const auto timings = core::timings_from_timelines(timelines);
  const auto& be_log = scenario.backend().query_log();
  const auto& fetch_log = scenario.fes()[0].server->fetch_log();

  bench::section("per-keystroke results");
  std::printf("%6s %-30s %9s %10s %9s %11s %11s\n", "key#", "prefix",
              "Tproc", "correlated", "Tdelta", "Tdynamic", "bounds");
  std::size_t bounds_ok = 0, bounds_total = 0;
  for (std::size_t i = 0; i < session.keystrokes.size(); ++i) {
    const auto& ks = session.keystrokes[i];
    const double t_proc =
        i < be_log.size() ? be_log[i].t_proc.to_milliseconds() : 0.0;
    const bool correlated = i < be_log.size() && be_log[i].correlated;
    double t_delta = 0, t_dynamic = 0;
    const char* verdict = "-";
    if (i < timings.size()) {
      t_delta = timings[i].t_delta_ms;
      t_dynamic = timings[i].t_dynamic_ms;
      if (i < fetch_log.size()) {
        const double truth = fetch_log[i].true_fetch_time().to_milliseconds();
        const bool ok =
            core::fetch_bounds(timings[i]).contains(truth);
        verdict = ok ? "HOLD" : "VIOLATED";
        ++bounds_total;
        if (ok) ++bounds_ok;
      }
    }
    std::printf("%6zu %-30s %8.1fms %10s %8.1fms %10.1fms %11s\n", i + 1,
                ("\"" + ks.prefix + "\"").c_str(), t_proc,
                correlated ? "yes" : "no", t_delta, t_dynamic, verdict);
  }

  bench::section("paper-shape summary");
  std::printf("connections used: %zu (one per keystroke: %s)\n",
              session.connections,
              session.connections == session.keystrokes.size() ? "yes"
                                                                : "NO");
  std::printf("fetch bounds held on %zu/%zu keystrokes\n", bounds_ok,
              bounds_total);
  // Compare the first keystroke's processing time with the median of the
  // correlated tail.
  if (be_log.size() > 4) {
    const double first = be_log.front().t_proc.to_milliseconds();
    std::vector<double> tail;
    for (std::size_t i = 1; i < be_log.size(); ++i) {
      tail.push_back(be_log[i].t_proc.to_milliseconds());
    }
    const double tail_med = stats::median(tail);
    std::printf("T_proc: first keystroke %.1fms, later keystrokes median "
                "%.1fms\n",
                first, tail_med);
    std::printf("paper shape %s: the model still fits per keystroke, and "
                "correlated queries process faster\n",
                (bounds_ok == bounds_total && tail_med < 0.7 * first)
                    ? "HOLDS"
                    : "VIOLATED");
  }
  return 0;
}

// Ablations of the design choices DESIGN.md calls out:
//   A. TCP initial congestion window (IW 2/4/10) on the client path —
//      affects static-portion delivery time and the T_delta regime
//      (reviewer #1 asked whether the services manipulate IW);
//   B. warm vs cold FE->BE persistent connection — the paper's "second
//      key aspect" of FE servers;
//   C. streaming relay vs store-and-forward at the FE;
//   D. immediate vs deferred static delivery — the paper's first key
//      aspect, switched off.
//
// Quick: 10 reps per point. DYNCDN_FULL=1: 30.
#include <cstdio>
#include <optional>

#include "bench_util.hpp"
#include "core/timings.hpp"
#include "search/keywords.hpp"
#include "stats/descriptive.hpp"
#include "testbed/experiment.hpp"
#include "testbed/scenario.hpp"

using namespace dyncdn;
using namespace dyncdn::sim::literals;

namespace {

struct AblationPoint {
  double t_static_ms = 0;
  double t_dynamic_ms = 0;
  double overall_ms = 0;
  double first_fetch_ms = 0;  // true fetch time of the very first query
};

/// One probe client at a 60ms RTT against one FE 300 miles from the BE.
AblationPoint run_point(
    const std::function<void(testbed::ScenarioOptions&)>& tweak,
    std::size_t reps) {
  testbed::ScenarioOptions opt;
  opt.profile = cdn::google_like_profile();
  opt.profile.last_mile_min_ms = 30.0;
  opt.profile.last_mile_max_ms = 30.0;
  opt.profile.fe_service.sigma = 0.02;
  opt.profile.processing.load.sigma = 0.02;
  opt.seed = 202;
  opt.fe_distance_sweep_miles = std::vector<double>{700.0};
  tweak(opt);
  testbed::Scenario scenario(opt);
  scenario.warm_up();

  testbed::ExperimentOptions eo;
  eo.reps_per_node = reps;
  eo.interval = 1100_ms;
  search::KeywordCatalog catalog(12);
  eo.keywords = {catalog.figure3_keywords().front()};
  const auto result = testbed::run_fixed_fe_experiment(scenario, 0, eo);

  AblationPoint p;
  const auto& n = result.per_node.at(0);
  p.t_static_ms = n.med_static_ms;
  p.t_dynamic_ms = n.med_dynamic_ms;
  p.overall_ms = n.med_overall_ms;
  // The scenario's very first fetch, the campaign's first query, is the
  // one that exercises a cold (or warmed) connection.
  const auto& log = scenario.fes()[0].server->fetch_log();
  if (!log.empty()) {
    p.first_fetch_ms = log.front().true_fetch_time().to_milliseconds();
  }
  return p;
}

}  // namespace

int main() {
  const std::size_t reps = bench::full_scale() ? 30 : 10;
  bench::banner("Ablations — FE design choices",
                "probe at 60ms RTT, FE 300mi from BE, " +
                    std::to_string(reps) + " reps per point");

  bench::section("A. client-path initial congestion window");
  std::printf("%8s %12s %12s %12s\n", "IW", "Tstatic", "Tdynamic",
              "overall");
  for (const std::size_t iw : {2u, 4u, 10u}) {
    const AblationPoint p = run_point(
        [iw](testbed::ScenarioOptions& o) { o.client_initial_cwnd = iw; },
        reps);
    std::printf("%8zu %12.1f %12.1f %12.1f\n", static_cast<size_t>(iw),
                p.t_static_ms, p.t_dynamic_ms, p.overall_ms);
  }
  std::printf("expected: larger IW delivers the 9KB static portion in fewer "
              "rounds -> smaller T_static and overall delay\n");

  bench::section("B. warm vs cold FE->BE persistent connection");
  struct WarmCase {
    const char* label;
    bool warm;
    bool cwv;  // RFC 2861 idle decay on the internal path
  };
  for (const WarmCase wc : {WarmCase{"warm", true, false},
                            WarmCase{"cold", false, false},
                            WarmCase{"warm+idle-decay", true, true}}) {
    const AblationPoint p = run_point(
        [wc](testbed::ScenarioOptions& o) {
          o.warm_backend_connection = wc.warm;
          // Make the ramp visible: small initial window internally.
          o.profile.internal_tcp.initial_cwnd_segments = 2;
          o.profile.internal_tcp.receive_buffer = 1 << 20;
          o.profile.internal_tcp.cwnd_validation = wc.cwv;
        },
        reps);
    std::printf("%-16s first-query true fetch = %7.1f ms, med Tdynamic = "
                "%7.1f ms\n",
                wc.label, p.first_fetch_ms, p.t_dynamic_ms);
  }
  std::printf("expected: the pre-warmed connection skips slow-start ramping "
              "on the first fetch (the paper's aspect ii); with RFC 2861\n"
              "idle decay the warm window shrinks between queries, eroding "
              "the benefit — services pin their persistent connections "
              "warm\n");

  bench::section("C. streaming relay vs store-and-forward (low-RTT probe)");
  for (const auto mode : {cdn::FrontEndServer::RelayMode::kStreaming,
                          cdn::FrontEndServer::RelayMode::kStoreAndForward}) {
    const AblationPoint p = run_point(
        [mode](testbed::ScenarioOptions& o) {
          o.relay_mode = mode;
          // Low client RTT: otherwise the client-path delivery gates t5
          // and hides the relay policy entirely.
          o.profile.last_mile_min_ms = 2.0;
          o.profile.last_mile_max_ms = 2.0;
        },
        reps);
    std::printf("%-18s med Tdynamic = %7.1f ms, overall = %7.1f ms\n",
                mode == cdn::FrontEndServer::RelayMode::kStreaming
                    ? "streaming"
                    : "store-and-forward",
                p.t_dynamic_ms, p.overall_ms);
  }
  std::printf("expected: buffering the whole BE response before relaying "
              "delays the first dynamic byte by (C-1) internal RTTs\n");

  bench::section("D. immediate vs deferred static delivery");
  for (const bool immediate : {true, false}) {
    const AblationPoint p = run_point(
        [immediate](testbed::ScenarioOptions& o) {
          o.serve_static_immediately = immediate;
        },
        reps);
    std::printf("%-10s med Tstatic = %7.1f ms, overall = %7.1f ms\n",
                immediate ? "immediate" : "deferred", p.t_static_ms,
                p.overall_ms);
  }
  std::printf("expected: deferring the static portion forfeits the overlap "
              "with the fetch -> T_static inflates by ~the fetch time\n");
  return 0;
}

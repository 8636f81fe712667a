// Interactive search example (§6): watch a user type a query and see one
// connection per keystroke, the per-keystroke response time, and the BE's
// prefix-correlation speedup kick in.
//
//   $ ./examples/interactive_search "computer science department"
#include <cstdio>
#include <string>

#include "cdn/interactive.hpp"
#include "search/keywords.hpp"
#include "testbed/scenario.hpp"

using namespace dyncdn;

int main(int argc, char** argv) {
  const std::string text =
      argc > 1 ? argv[1] : "computer science department";

  testbed::ScenarioOptions opt;
  opt.profile = cdn::google_like_profile();
  opt.profile.processing.correlation_history = 64;
  opt.profile.last_mile_min_ms = 2.0;
  opt.profile.last_mile_max_ms = 2.0;
  opt.seed = 12;
  opt.fe_distance_sweep_miles = std::vector<double>{250.0};
  opt.capture_clients = false;
  testbed::Scenario scenario(opt);
  scenario.warm_up();
  scenario.connect_client_to_fe(0, 0);

  auto& client = scenario.clients().front();
  cdn::InteractiveTyper typer(*client.query_client, cdn::TypingOptions{}, 3);

  std::printf("typing \"%s\" — one query per keystroke:\n\n", text.c_str());
  cdn::TypingSessionResult session;
  typer.type(scenario.fe_endpoint(0),
             search::Keyword{text, search::KeywordClass::kGranular, 1200},
             [&](const cdn::TypingSessionResult& s) { session = s; });
  scenario.run();

  const auto& be_log = scenario.backend().query_log();
  std::printf("%-32s %10s %10s %12s\n", "prefix", "response", "T_proc",
              "correlated");
  for (std::size_t i = 0; i < session.keystrokes.size(); ++i) {
    const auto& ks = session.keystrokes[i];
    const bool have_be = i < be_log.size();
    std::printf("%-32s %8.1fms %8.1fms %12s\n",
                ("\"" + ks.prefix + "\"").c_str(),
                ks.result.overall_delay().to_milliseconds(),
                have_be ? be_log[i].t_proc.to_milliseconds() : 0.0,
                have_be && be_log[i].correlated ? "yes" : "no");
  }
  std::printf("\n%zu keystrokes -> %zu TCP connections; after the first "
              "query, every\nextension reuses the BE's previous work "
              "(lower T_proc), as §6 observes.\n",
              session.keystrokes.size(), session.connections);
  return 0;
}

// Quickstart: build a small GoogleLike deployment, run one search query,
// and print the packet timeline plus the inferred timings — a miniature of
// the paper's entire measurement pipeline.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "analysis/timeline.hpp"
#include "core/inference.hpp"
#include "core/timings.hpp"
#include "search/keywords.hpp"
#include "testbed/experiment.hpp"
#include "testbed/scenario.hpp"

using namespace dyncdn;

int main() {
  // 1. Build the testbed: BE data center + FE fleet + 5 vantage points.
  testbed::ScenarioOptions opt;
  opt.profile = cdn::google_like_profile();
  opt.client_count = 5;
  opt.seed = 7;
  opt.capture_clients = true;
  opt.capture_payloads = true;  // keep payloads: we print content analysis
  testbed::Scenario scenario(opt);
  scenario.warm_up();

  std::printf("deployment: %s — %zu FE sites, BE at %s (%s)\n",
              scenario.profile().name.c_str(), scenario.fes().size(),
              scenario.profile().be_site_name.c_str(),
              scenario.profile().be_location.to_string().c_str());

  // 2. Discover the static/dynamic boundary by content analysis across
  //    responses to distinct queries (the paper's §3 methodology).
  const std::size_t boundary = testbed::discover_boundary(scenario, 0, 0);
  std::printf("content analysis: static portion = %zu bytes "
              "(HTTP header + HTML head + CSS + menu bar)\n\n",
              boundary);

  // 3. Submit one query from client 0 to FE 0 and capture every packet.
  scenario.connect_client_to_fe(0, 0);
  search::KeywordCatalog catalog(42);
  const search::Keyword keyword = catalog.figure3_keywords().front();
  std::printf("query: \"%s\" [%s]\n", keyword.text.c_str(),
              search::to_string(keyword.cls));

  auto& client = scenario.clients().front();
  cdn::QueryResult app_result;
  client.query_client->submit(scenario.fe_endpoint(0), keyword,
                              [&](const cdn::QueryResult& r) {
                                app_result = r;
                              });
  scenario.run();

  // 4. Print the packet-level timeline (Fig. 4 style).
  const auto& trace = client.recorder->trace();
  std::printf("\npacket timeline at the client (%zu packets):\n",
              trace.size());
  for (const auto& record : trace.records()) {
    std::printf("  %s\n", record.to_string().c_str());
  }

  // 5. Extract the Fig. 2 model events and the paper's timing parameters.
  const auto timelines =
      analysis::extract_all_timelines(trace, 80, boundary);
  if (timelines.empty() || !timelines.front().valid) {
    std::printf("\ntimeline extraction failed: %s\n",
                timelines.empty() ? "no flows"
                                  : timelines.front().invalid_reason.c_str());
    return 1;
  }
  const auto& tl = timelines.front();
  std::printf("\nextracted timeline: %s\n", tl.to_string().c_str());

  const auto timings = core::timings_from_timeline(tl);
  std::printf("timings: %s\n", timings->to_string().c_str());

  const core::FetchBounds bounds = core::fetch_bounds(*timings);
  std::printf("inferred FE-BE fetch-time bounds: %.1fms <= T_fetch <= %.1fms\n",
              bounds.lower_ms, bounds.upper_ms);

  // 6. The simulator knows the true fetch time — the paper could not check
  //    this, but we can: verify the inference bounds hold.
  const auto& fetch_log = scenario.fes().front().server->fetch_log();
  if (!fetch_log.empty()) {
    const double true_fetch =
        fetch_log.back().true_fetch_time().to_milliseconds();
    std::printf("ground truth: T_fetch = %.1fms -> bounds %s\n", true_fetch,
                bounds.contains(true_fetch) ? "HOLD" : "VIOLATED");
  }

  std::printf("\napp-level: status=%d bytes=%zu overall=%.1fms%s\n",
              app_result.status, app_result.body_bytes,
              app_result.overall_delay().to_milliseconds(),
              app_result.failed ? " FAILED" : "");
  return 0;
}

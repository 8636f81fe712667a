// Figure 3 reproduction: T_static and T_dynamic over 500 repeated samples
// for 4 keywords of different types (popular / granular / complex / mixed)
// against a fixed BingLike FE, smoothed with a window-10 moving median.
//
// Paper shape to reproduce: T_dynamic varies significantly across keyword
// types; T_static is insensitive to the keyword.
//
// Quick mode: 160 samples per keyword. DYNCDN_FULL=1: 500 (paper scale).
#include <cstdio>

#include "bench_util.hpp"
#include "core/timings.hpp"
#include "search/keywords.hpp"
#include "stats/descriptive.hpp"
#include "testbed/experiment.hpp"
#include "testbed/scenario.hpp"

using namespace dyncdn;
using namespace dyncdn::sim::literals;

int main() {
  const std::size_t samples = bench::full_scale() ? 500 : 160;
  bench::banner(
      "Figure 3 — effect of keyword type on T_static / T_dynamic (Bing-like)",
      "4 keyword classes x " + std::to_string(samples) +
          " samples, fixed FE, moving median w=10");

  testbed::ScenarioOptions opt;
  opt.profile = cdn::bing_like_profile();
  opt.client_count = 1;
  opt.seed = 42;
  testbed::Scenario scenario(opt);
  scenario.warm_up();

  const std::size_t boundary = testbed::discover_boundary(scenario, 0, 0);
  std::printf("static/dynamic boundary (content analysis): %zu bytes\n",
              boundary);
  scenario.connect_client_to_fe(0, 0);

  search::KeywordCatalog catalog(42);
  const auto keywords = catalog.figure3_keywords();

  struct Series {
    std::string label;
    std::vector<double> t_static, t_dynamic;
  };
  std::vector<Series> series;

  auto& client = scenario.clients().front();
  const net::Endpoint fe = scenario.fe_endpoint(0);
  for (const auto& kw : keywords) {
    client.query_client->submit_repeated(fe, kw, samples, 700_ms,
                                         [](const cdn::QueryResult&) {});
    scenario.run();

    const auto timelines = analysis::extract_all_timelines(
        client.recorder->trace(), 80, boundary);
    client.recorder->clear();
    const auto timings = core::timings_from_timelines(timelines);

    Series s;
    s.label = std::string(search::to_string(kw.cls)) + " (\"" + kw.text +
              "\", " + std::to_string(kw.word_count()) + " words)";
    s.t_static = stats::moving_median(core::extract_static(timings), 10);
    s.t_dynamic = stats::moving_median(core::extract_dynamic(timings), 10);
    series.push_back(std::move(s));
  }

  bench::section("per-keyword summaries (moving-median series)");
  std::printf("%-44s %12s %12s %13s %13s\n", "keyword", "Tstatic med",
              "Tstatic sd", "Tdynamic med", "Tdynamic sd");
  for (const auto& s : series) {
    std::printf("%-44s %12.1f %12.1f %13.1f %13.1f\n", s.label.c_str(),
                stats::median(s.t_static), stats::stddev(s.t_static),
                stats::median(s.t_dynamic), stats::stddev(s.t_dynamic));
  }

  bench::section("sampled series (every 10th sample, ms)");
  std::printf("%8s", "sample");
  for (std::size_t k = 0; k < series.size(); ++k) {
    std::printf("  Tsta[%zu] Tdyn[%zu]", k, k);
  }
  std::printf("\n");
  for (std::size_t i = 0; i < series[0].t_static.size(); i += 10) {
    std::printf("%8zu", i);
    for (const auto& s : series) {
      std::printf(" %8.1f %8.1f", s.t_static[i], s.t_dynamic[i]);
    }
    std::printf("\n");
  }

  // Shape checks mirrored from the paper's text.
  bench::section("shape checks");
  std::vector<double> static_meds, dynamic_meds;
  for (const auto& s : series) {
    static_meds.push_back(stats::median(s.t_static));
    dynamic_meds.push_back(stats::median(s.t_dynamic));
  }
  const double static_spread =
      stats::max_of(static_meds) - stats::min_of(static_meds);
  const double dynamic_spread =
      stats::max_of(dynamic_meds) - stats::min_of(dynamic_meds);
  std::printf("T_static spread across keywords:  %6.1f ms (expect small)\n",
              static_spread);
  std::printf("T_dynamic spread across keywords: %6.1f ms (expect large)\n",
              dynamic_spread);
  std::printf("paper shape %s: T_dynamic keyword-sensitive, T_static not\n",
              dynamic_spread > 2.0 * static_spread ? "HOLDS" : "VIOLATED");
  return 0;
}

// Offline analysis — the paper's capture-then-analyze workflow as two
// decoupled stages with a trace file in between.
//
// Stage 1 (capture): run a small measurement, stream the client's tcpdump-
// style trace into a durable binary .dtrc file (capture/spill.hpp).
// Stage 2 (analyze): mmap the file — as a separate consumer would — and
// run content-boundary discovery, timeline extraction and fetch-time
// inference on it.
//
//   $ ./examples/offline_analysis [trace-path]
//
// The file is .dtrc whatever its name; `trace_inspect convert <file> out.txt`
// dumps it as text for reading.
#include <cstdio>
#include <string>

#include "analysis/boundary.hpp"
#include "analysis/timeline.hpp"
#include "capture/spill.hpp"
#include "core/inference.hpp"
#include "core/timings.hpp"
#include "search/keywords.hpp"
#include "testbed/experiment.hpp"
#include "testbed/scenario.hpp"

using namespace dyncdn;
using namespace dyncdn::sim::literals;

int main(int argc, char** argv) {
  const std::string path =
      argc > 1 ? argv[1] : "/tmp/dyncdn_offline_trace.dtrc";

  // ---- Stage 1: capture -----------------------------------------------
  {
    testbed::ScenarioOptions opt;
    opt.profile = cdn::google_like_profile();
    opt.client_count = 1;
    opt.seed = 31;
    opt.capture_payloads = true;  // full payloads, like the paper's tcpdump
    testbed::Scenario scenario(opt);
    scenario.warm_up();

    auto& client = scenario.clients().front();
    scenario.connect_client_to_fe(0, client.default_fe);
    search::KeywordCatalog catalog(3);
    // A handful of distinct queries (for boundary discovery) plus repeats.
    for (const auto& kw : catalog.distinct_corpus(5)) {
      client.query_client->submit(scenario.default_fe_endpoint(0), kw,
                                  [](const cdn::QueryResult&) {});
      scenario.run();
    }
    capture::save_trace_dtrc(client.recorder->trace(), path);
    std::printf("stage 1: captured %zu packets -> %s (binary .dtrc format)\n",
                client.recorder->trace().size(), path.c_str());
  }

  // ---- Stage 2: analyze (no simulator, only the trace file) ------------
  // SpillReader's constructor mmaps the file and checks its structure;
  // read_all() then decodes the blocks front to back.
  // (capture::load_trace(path) does the same in one call.)
  const capture::SpillReader reader(path);
  std::printf("stage 2: %llu records in the file's tail\n",
              static_cast<unsigned long long>(reader.record_count()));
  const capture::PacketTrace trace = reader.read_all();
  std::printf("stage 2: loaded %zu packets (node %u)\n", trace.size(),
              trace.node().value());

  // Content analysis: the common prefix of the reassembled responses.
  const analysis::ProbedBoundary probed = analysis::probe_boundary(trace, 80);
  const std::size_t boundary = probed.boundary;
  std::printf("content analysis: %zu responses, static portion = %zu "
              "bytes\n",
              probed.responses, boundary);

  // Timeline extraction + inference.
  const auto timelines = analysis::extract_all_timelines(trace, 80, boundary);
  const auto timings = core::timings_from_timelines(timelines);
  std::printf("\n%6s %9s %10s %11s %9s %22s\n", "query", "RTT", "Tstatic",
              "Tdynamic", "Tdelta", "fetch bounds");
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const core::FetchBounds b = core::fetch_bounds(timings[i]);
    std::printf("%6zu %7.1fms %8.1fms %9.1fms %7.1fms   [%6.1f, %6.1f] ms\n",
                i + 1, timings[i].rtt_ms, timings[i].t_static_ms,
                timings[i].t_dynamic_ms, timings[i].t_delta_ms, b.lower_ms,
                b.upper_ms);
  }
  std::printf("\nThe analysis stage used nothing but the trace file — the "
              "same\nobservables the paper's offline tcpdump analysis "
              "had.\n");
  return 0;
}

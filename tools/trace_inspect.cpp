// trace_inspect — offline analyzer for saved dyncdn traces.
//
// Captures are binary .dtrc files (--save-traces); any other file is
// refused with an error naming it. Span files are --trace-out Chrome
// traces, read back by obs::read_chrome_trace.
//
// Packet mode (default):
//   trace_inspect <capture.dtrc> [boundary]
//
// Prints the connections found in a packet capture, discovers the
// static/dynamic boundary by cross-query content analysis (when payloads
// were retained and at least two responses exist; otherwise pass the
// boundary explicitly; analysis::probe_boundary) and prints the paper's
// timing parameters for every query (a replay of the capture through
// analysis::StreamingAnalyzer).
//
// Span mode:
//   trace_inspect spans <trace.json> [--diff=<capture.dtrc>]
//       [--boundary=N] [--node=NAME] [--tree]
//
// Reads a Chrome trace_event file written by --trace-out, prints the span
// tree (per-query Fig. 2 timelines), and — with --diff — reconstructs each
// query's tb/t_synack/t1..te from its tcp.flow span
// (analysis::timeline_from_flow_span) and compares them against the
// packet-capture analysis pipeline at tolerance 0: the two observation
// paths (in-process spans vs. offline tcpdump-style analysis) must agree
// on every timestamp, bit for bit. A tcp.flow span whose local_port is not
// a port number is refused, naming the span.
//
// Attribution mode:
//   trace_inspect attribution <trace.json> [--diff=<capture.dtrc>]
//       [--boundary=N]
//
// Runs the per-query latency attribution reducer over the span forest and
// prints per-component percentiles (dns/connect/uplink/fe wait/fetch/
// delivery). With --diff, every attributed query's anchors and component
// sum are checked against the packet-capture analysis at tolerance 0.
//
// Time-series mode:
//   trace_inspect timeseries <series.csv|series.json>
//
// Summarizes a --ts-out export (or the series in a --ts-runtime-out file):
// the tick interval, then per-channel min/mean/max over the tick range.
// Ticks must be whole non-negative numbers, values finite and
// non-negative, and every channel must hold one value per tick. A JSON
// series names the field and index, and its interval_ns must be a
// positive whole number. A CSV file's time_ms column must be every tick
// times one positive whole number of nanoseconds, the interval; a row that
// breaks a rule is refused with its line number.
//
// Slow-query mode:
//   trace_inspect slow <slow.json> [--tree]
//
// Pretty-prints a --slow-log flight-recorder dump; --tree includes each
// promoted query's retained span subtree.
//
// Convert mode:
//   trace_inspect convert <in.dtrc> <out>
//
// Re-encodes a capture as .dtrc when <out> ends in .dtrc, and otherwise
// writes the human-readable text dump (capture/serialize.hpp).
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/boundary.hpp"
#include "analysis/span_attribution.hpp"
#include "capture/serialize.hpp"
#include "capture/spill.hpp"
#include "core/inference.hpp"
#include "core/timings.hpp"
#include "obs/attribution.hpp"
#include "obs/export_chrome.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sim/parse.hpp"

using namespace dyncdn;

namespace {

/// A boundary argument is a whole number of bytes; anything else is refused
/// with a message naming the argument (the caller exits 2).
bool parse_boundary(const char* text, const char* what, std::size_t& out) {
  const auto value = sim::parse_uint(text);
  if (!value) {
    std::fprintf(stderr, "bad %s value: '%s' (a whole number of bytes)\n",
                 what, text);
    return false;
  }
  out = *value;
  return true;
}

// ---------------------------------------------------------------------------
// Input files. Each loader names the file in its error and returns nullopt;
// the caller exits 1.
// ---------------------------------------------------------------------------

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::optional<obs::json::Value> load_json(const std::string& path) {
  const auto text = read_file(path);
  if (!text) return std::nullopt;
  auto doc = obs::json::parse(*text);
  if (!doc) std::fprintf(stderr, "error: %s is not valid JSON\n", path.c_str());
  return doc;
}

/// The spans of a --trace-out file.
std::optional<std::vector<obs::SpanRecord>> read_span_file(
    const std::string& path) {
  const auto doc = load_json(path);
  if (!doc) return std::nullopt;
  try {
    return obs::read_chrome_trace(*doc);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s in %s\n", e.what(), path.c_str());
    return std::nullopt;
  }
}

/// A .dtrc capture (capture::load_trace names the file in its errors).
std::optional<capture::PacketTrace> load_capture(const std::string& path) {
  try {
    return capture::load_trace(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return std::nullopt;
  }
}

// ---------------------------------------------------------------------------
// Span trees (span mode and slow-query mode)
// ---------------------------------------------------------------------------

std::string format_arg(const obs::ArgValue& v) {
  switch (v.type) {
    case obs::ArgValue::Type::kString:
      return "\"" + v.s + "\"";
    case obs::ArgValue::Type::kInt:
      return std::to_string(v.i);
    case obs::ArgValue::Type::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", v.d);
      return buf;
    }
  }
  return "?";
}

/// Parent links of a span list: a span whose parent is absent is a root.
struct SpanForest {
  std::vector<std::size_t> roots;
  std::vector<std::vector<std::size_t>> children;

  explicit SpanForest(const std::vector<obs::SpanRecord>& spans)
      : children(spans.size()) {
    std::map<obs::SpanId, std::size_t> by_id;
    for (std::size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto it = by_id.find(spans[i].parent);
      if (spans[i].parent != obs::kNoSpan && it != by_id.end()) {
        children[it->second].push_back(i);
      } else {
        roots.push_back(i);
      }
    }
  }
};

/// Print each root's tree, depth first, `depth` levels in. The walk keeps
/// its own stack: a span file's parent chain can be as deep as the file is
/// long.
void print_forest(const std::vector<obs::SpanRecord>& spans,
                  const SpanForest& forest, int depth) {
  std::vector<std::pair<std::size_t, int>> todo;
  for (auto r = forest.roots.rbegin(); r != forest.roots.rend(); ++r) {
    todo.emplace_back(*r, depth);
  }
  while (!todo.empty()) {
    const auto [idx, level] = todo.back();
    todo.pop_back();
    const obs::SpanRecord& n = spans[idx];
    std::printf("%*s[%s] %s  %.6f ms  +%.6f ms", level * 2, "",
                n.category.c_str(), n.name.c_str(),
                static_cast<double>(n.start.ns()) / 1e6,
                static_cast<double>(n.end.ns() - n.start.ns()) / 1e6);
    for (const obs::Arg& a : n.args) {
      std::printf("  %s=%s", a.key.c_str(), format_arg(a.value).c_str());
    }
    std::printf("\n");
    for (const obs::SpanEvent& e : n.events) {
      std::printf("%*s. %s @%.6f ms", level * 2 + 2, "", e.name.c_str(),
                  static_cast<double>(e.at.ns()) / 1e6);
      // rx segments; ArgValue::i reads 0 for an arg that is not an int.
      const obs::ArgValue* off = obs::find_arg(e.args, "off");
      const obs::ArgValue* len = obs::find_arg(e.args, "len");
      if (off != nullptr && off->i >= 0) {
        std::printf(" off=%" PRId64 " len=%" PRId64, off->i,
                    len != nullptr ? len->i : std::int64_t{-1});
      }
      std::printf("\n");
    }
    const std::vector<std::size_t>& kids = forest.children[idx];
    for (auto c = kids.rbegin(); c != kids.rend(); ++c) {
      todo.emplace_back(*c, level + 1);
    }
  }
}

// ---------------------------------------------------------------------------
// Span mode
// ---------------------------------------------------------------------------

/// Timeline of one tcp.flow span, for the --diff check.
struct SpanTimeline {
  std::string node_name;  // from the parent query span
  std::uint64_t local_port = 0;
  analysis::QueryTimeline tl;
};

int diff_against_capture(const std::vector<obs::SpanRecord>& spans,
                         const std::string& capture_path,
                         std::size_t boundary, const std::string& node_name) {
  const auto trace = load_capture(capture_path);
  if (!trace) return 1;
  const capture::PacketTrace web = trace->filter_remote_port(80);

  if (boundary == 0) boundary = analysis::probe_boundary(web, 80).boundary;
  if (boundary == 0) {
    std::fprintf(stderr,
                 "diff: no boundary available (trace lacks payloads); pass "
                 "--boundary=N\n");
    return 1;
  }

  std::map<obs::SpanId, std::size_t> by_id;
  for (std::size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;
  std::vector<SpanTimeline> span_tls;
  for (const obs::SpanRecord& span : spans) {
    if (span.name != "tcp.flow") continue;
    SpanTimeline st;
    if (const obs::ArgValue* port = obs::find_arg(span.args, "local_port")) {
      if (port->type != obs::ArgValue::Type::kInt || port->i < 0 ||
          port->i > 65535) {
        std::fprintf(stderr, "error: span %" PRId64
                     ": bad local_port value %s\n",
                     static_cast<std::int64_t>(span.id),
                     format_arg(*port).c_str());
        return 1;
      }
      st.local_port = static_cast<std::uint64_t>(port->i);
    }
    if (const auto it = by_id.find(span.parent); it != by_id.end()) {
      const obs::ArgValue* node =
          obs::find_arg(spans[it->second].args, "node");
      if (node != nullptr && node->type == obs::ArgValue::Type::kString) {
        st.node_name = node->s;
      }
    }
    st.tl = analysis::timeline_from_flow_span(span, boundary);
    span_tls.push_back(std::move(st));
  }
  const auto capture_tls = analysis::extract_all_timelines(web, 80, boundary);

  std::size_t compared = 0, mismatches = 0, unmatched = 0;
  for (const auto& ct : capture_tls) {
    if (!ct.valid) continue;
    const SpanTimeline* match = nullptr;
    bool ambiguous = false;
    for (const SpanTimeline& st : span_tls) {
      if (st.local_port != ct.flow.local.port) continue;
      if (!node_name.empty() && st.node_name != node_name) continue;
      if (st.tl.tb != ct.tb) continue;  // same port on another vantage point
      if (match) ambiguous = true;
      match = &st;
    }
    if (!match || ambiguous) {
      std::printf("port %u: %s\n", ct.flow.local.port,
                  ambiguous ? "AMBIGUOUS (pass --node=NAME)" : "NO SPAN");
      ++unmatched;
      continue;
    }
    ++compared;
    const analysis::QueryTimeline& st = match->tl;
    const struct {
      const char* name;
      sim::SimTime span, capture;
    } checks[] = {
        {"tb", st.tb, ct.tb},       {"t_synack", st.t_synack, ct.t_synack},
        {"t1", st.t1, ct.t1},       {"t2", st.t2, ct.t2},
        {"t3", st.t3, ct.t3},       {"t4", st.t4, ct.t4},
        {"t5", st.t5, ct.t5},       {"te", st.te, ct.te},
    };
    bool ok = st.valid == ct.valid;
    for (const auto& c : checks) ok = ok && c.span == c.capture;
    if (ok) {
      std::printf("port %u: OK  %s\n", ct.flow.local.port,
                  ct.to_string().c_str());
      continue;
    }
    ++mismatches;
    std::printf("port %u: MISMATCH\n", ct.flow.local.port);
    for (const auto& c : checks) {
      if (c.span != c.capture) {
        std::printf("  %-9s span=%" PRId64 "ns capture=%" PRId64 "ns\n",
                    c.name, c.span.ns(), c.capture.ns());
      }
    }
  }
  std::printf("diff: %zu compared, %zu mismatched, %zu unmatched "
              "(boundary=%zu, tolerance=0)\n",
              compared, mismatches, unmatched, boundary);
  if (compared == 0) {
    std::fprintf(stderr, "diff: nothing compared\n");
    return 1;
  }
  return (mismatches == 0 && unmatched == 0) ? 0 : 1;
}

int inspect_spans(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: trace_inspect spans <trace.json> "
                 "[--diff=<capture.dtrc>] [--boundary=N] [--node=NAME] "
                 "[--tree]\n");
    return 2;
  }
  const std::string json_path = argv[2];
  std::string diff_path, node_name;
  std::size_t boundary = 0;
  bool tree = false;
  for (int i = 3; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--diff=")) {
      diff_path = arg.substr(7);
    } else if (arg.starts_with("--boundary=")) {
      if (!parse_boundary(argv[i] + 11, "--boundary", boundary)) return 2;
    } else if (arg.starts_with("--node=")) {
      node_name = arg.substr(7);
    } else if (arg == "--tree") {
      tree = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }

  const auto spans = read_span_file(json_path);
  if (!spans) return 1;
  const SpanForest forest(*spans);
  std::printf("spans: %zu total, %zu roots\n", spans->size(),
              forest.roots.size());

  if (tree || diff_path.empty()) print_forest(*spans, forest, 0);
  if (!diff_path.empty()) {
    return diff_against_capture(*spans, diff_path, boundary, node_name);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Attribution mode
// ---------------------------------------------------------------------------

void print_attribution_table(const obs::QueryAttribution& attribution) {
  std::printf("queries=%" PRIu64 " reconcile_failures=%" PRIu64
              " skipped=%" PRIu64 "\n",
              attribution.queries(), attribution.reconcile_failures(),
              attribution.skipped());
  std::printf("%-20s%8s%12s%12s%12s%12s\n", "component", "count", "mean_ms",
              "p50_ms", "p99_ms", "p999_ms");
  for (const std::string& name : obs::QueryAttribution::component_names()) {
    const obs::Histogram* h = attribution.registry().histogram(name);
    // Zero-count components still get a row (count 0) so the table layout
    // matches the BENCH.json schema: every component, every run.
    const std::uint64_t count = h != nullptr ? h->count() : 0;
    if (count == 0) {
      std::printf("%-20s%8" PRIu64 "%12s%12s%12s%12s\n", name.c_str(), count,
                  "-", "-", "-", "-");
      continue;
    }
    std::printf("%-20s%8" PRIu64 "%12.3f%12.3f%12.3f%12.3f\n", name.c_str(),
                count, h->sum() / static_cast<double>(h->count()),
                h->quantile(0.50), h->quantile(0.99), h->quantile(0.999));
  }
}

/// Check every attributed query against the packet-capture pipeline:
/// anchors t2/t5 must match some capture timeline exactly, and the
/// component sum must telescope to t5 - t2 in integer nanoseconds.
int diff_attribution(const analysis::SpanAttributionResult& result,
                     const capture::PacketTrace& trace, std::size_t boundary) {
  const capture::PacketTrace web = trace.filter_remote_port(80);
  const auto capture_tls = analysis::extract_all_timelines(web, 80, boundary);

  std::size_t compared = 0, mismatches = 0;
  for (const analysis::AttributedQuery& q : result.queries) {
    const obs::QueryAttribution::Sample& s = q.sample;
    const analysis::QueryTimeline* match = nullptr;
    for (const auto& ct : capture_tls) {
      if (ct.valid && ct.t1.ns() == s.t1 && ct.tb.ns() == s.tb) {
        match = &ct;
        break;
      }
    }
    if (match == nullptr) continue;  // capture covers one vantage point
    ++compared;
    const std::int64_t sum = obs::QueryAttribution::decompose(s).telescoped();
    const std::int64_t capture_t_dynamic = match->t5.ns() - match->t2.ns();
    if (s.t2 != match->t2.ns() || s.t5 != match->t5.ns() ||
        sum != capture_t_dynamic) {
      ++mismatches;
      std::printf("node %s: MISMATCH span(t2=%" PRId64 " t5=%" PRId64
                  " sum=%" PRId64 ") capture(t2=%" PRId64 " t5=%" PRId64
                  " t_dynamic=%" PRId64 ")\n",
                  q.node.c_str(), s.t2, s.t5, sum, match->t2.ns(),
                  match->t5.ns(), capture_t_dynamic);
    }
  }
  std::printf("attribution diff: %zu compared, %zu mismatched "
              "(boundary=%zu, tolerance=0)\n",
              compared, mismatches, boundary);
  if (compared == 0) {
    std::fprintf(stderr, "attribution diff: nothing compared\n");
    return 1;
  }
  return mismatches == 0 ? 0 : 1;
}

int inspect_attribution(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: trace_inspect attribution <trace.json> "
                 "[--diff=<capture.dtrc>] [--boundary=N]\n");
    return 2;
  }
  const std::string json_path = argv[2];
  std::string diff_path;
  std::size_t boundary = 0;
  for (int i = 3; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--diff=")) {
      diff_path = arg.substr(7);
    } else if (arg.starts_with("--boundary=")) {
      if (!parse_boundary(argv[i] + 11, "--boundary", boundary)) return 2;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }

  const auto records = read_span_file(json_path);
  if (!records) return 1;
  std::optional<capture::PacketTrace> trace;
  if (!diff_path.empty()) {
    trace = load_capture(diff_path);
    if (!trace) return 1;
    if (boundary == 0) boundary = analysis::probe_boundary(*trace, 80).boundary;
  }
  if (boundary == 0) {
    // Span-only invocation: recover the static/dynamic split from the
    // FE's static_flush byte stamp instead of requiring a capture.
    boundary = analysis::boundary_from_spans(*records);
    if (boundary != 0) {
      std::printf("boundary %zu (from static_flush spans)\n", boundary);
    } else {
      std::fprintf(stderr,
                   "warning: no boundary (no --boundary=, no --diff "
                   "capture, no static_flush byte stamps); every query "
                   "will be skipped\n");
    }
  }

  const analysis::SpanAttributionResult result =
      analysis::extract_attribution(*records, boundary);
  obs::QueryAttribution attribution;
  for (const double ms : result.dns_ms) attribution.observe_dns_ms(ms);
  for (std::size_t i = 0; i < result.skipped; ++i) attribution.skip();
  for (const analysis::AttributedQuery& q : result.queries) {
    attribution.observe(q.sample);
  }
  print_attribution_table(attribution);

  if (trace) return diff_attribution(result, *trace, boundary);
  return attribution.reconcile_failures() == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Time-series mode
// ---------------------------------------------------------------------------

void print_series_summary(const obs::TimeSeriesSampler& series) {
  const std::vector<std::uint64_t>& ticks = series.ticks();
  std::printf("ticks: %zu", ticks.size());
  if (!ticks.empty()) {
    std::printf(" (%" PRIu64 "..%" PRIu64 ")", ticks.front(), ticks.back());
  }
  std::printf("\n%-28s%12s%12s%12s\n", "channel", "min", "mean", "max");
  for (const std::string& name : series.channel_names()) {
    const std::vector<double>& values = series.values(name);
    if (values.empty()) continue;
    double lo = values.front(), hi = values.front(), sum = 0.0;
    for (const double v : values) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      sum += v;
    }
    std::printf("%-28s%12.3f%12.3f%12.3f\n", name.c_str(), lo,
                sum / static_cast<double>(values.size()), hi);
  }
}

int inspect_timeseries(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: trace_inspect timeseries <series.csv|series.json>\n");
    return 2;
  }
  const std::string path = argv[2];
  const bool csv = std::string_view(path).ends_with(".csv");
  obs::TimeSeriesSampler series;
  try {
    if (csv) {
      const auto text = read_file(path);
      if (!text) return 1;
      series = obs::TimeSeriesSampler::from_csv(*text);
    } else {
      const auto doc = load_json(path);
      if (!doc) return 1;
      series = obs::TimeSeriesSampler::from_json(*doc);
    }
  } catch (const std::runtime_error& e) {
    // CSV faults read "line N: ...".
    std::fprintf(stderr, "error: %s%s%s\n", path.c_str(), csv ? " " : ": ",
                 e.what());
    return 1;
  }
  // A CSV file with no row past tick 0 does not name its interval.
  if (series.interval_ns() > 0) {
    std::printf("interval: %.3f ms\n",
                static_cast<double>(series.interval_ns()) / 1e6);
  }
  print_series_summary(series);
  return 0;
}

// ---------------------------------------------------------------------------
// Slow-query mode
// ---------------------------------------------------------------------------

int inspect_slow(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: trace_inspect slow <slow.json> [--tree]\n");
    return 2;
  }
  const std::string path = argv[2];
  bool tree = false;
  for (int i = 3; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--tree") {
      tree = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  const auto doc = load_json(path);
  if (!doc) return 1;
  std::printf("observed: %" PRId64 " queries, trigger threshold %.3f ms\n",
              doc->get("observed") ? doc->get("observed")->as_int() : 0,
              doc->get("threshold_ms") ? doc->get("threshold_ms")->as_double()
                                       : 0.0);
  const obs::json::Value* slow = doc->get("slow");
  if (!slow || !slow->is_array()) {
    std::fprintf(stderr, "error: no slow array in %s\n", path.c_str());
    return 1;
  }
  std::printf("slow queries: %zu\n", slow->array.size());
  for (const obs::json::Value& e : slow->array) {
    const auto* node = e.get("node");
    const auto* keyword = e.get("keyword");
    std::printf("- %s \"%s\"  t_dynamic=%.3f ms  threshold=%.3f ms  "
                "end=%.3f ms\n",
                node ? node->as_string().c_str() : "?",
                keyword ? keyword->as_string().c_str() : "?",
                e.get("t_dynamic_ms") ? e.get("t_dynamic_ms")->as_double()
                                      : 0.0,
                e.get("threshold_ms") ? e.get("threshold_ms")->as_double()
                                      : 0.0,
                e.get("end_ns")
                    ? static_cast<double>(e.get("end_ns")->as_int()) / 1e6
                    : 0.0);
    if (const auto* jspans = e.get("spans"); tree && jspans != nullptr) {
      std::vector<obs::SpanRecord> spans;
      try {
        spans = obs::FlightRecorder::read_spans(*jspans);
      } catch (const std::exception& ex) {
        std::fprintf(stderr, "error: %s in %s\n", ex.what(), path.c_str());
        return 1;
      }
      print_forest(spans, SpanForest(spans), 1);
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Packet mode (the original tool)
// ---------------------------------------------------------------------------

int inspect_packets(int argc, char** argv) {
  // Boundary: explicit argument, or content analysis over the responses.
  std::size_t boundary = 0;
  if (argc > 2 && !parse_boundary(argv[2], "boundary", boundary)) return 2;

  const auto trace = load_capture(argv[1]);
  if (!trace) return 1;
  std::printf("trace: %zu packets captured at node %u\n", trace->size(),
              trace->node().value());

  const capture::PacketTrace web = trace->filter_remote_port(80);
  std::printf("web connections: %zu\n", web.flows().size());

  if (boundary == 0) {
    const analysis::ProbedBoundary probed = analysis::probe_boundary(web, 80);
    boundary = probed.boundary;
    if (probed.responses >= 2) {
      std::printf("content analysis: static portion = %zu bytes "
                  "(from %zu responses)\n",
                  boundary, probed.responses);
    }
  }
  if (boundary == 0) {
    std::fprintf(stderr,
                 "no boundary available: trace lacks payloads or enough "
                 "responses; pass one explicitly.\n");
    return 1;
  }

  std::printf("\nquery\trtt_ms\tt_static_ms\tt_dynamic_ms\tt_delta_ms\t"
              "overall_ms\tfetch_lower\tfetch_upper\n");
  const auto timelines = analysis::extract_all_timelines(web, 80, boundary);
  std::size_t idx = 0;
  for (const auto& tl : timelines) {
    ++idx;
    const auto q = core::timings_from_timeline(tl);
    if (!q) {
      std::printf("%zu\tinvalid: %s\n", idx, tl.invalid_reason.c_str());
      continue;
    }
    const auto bounds = core::fetch_bounds(*q);
    std::printf("%zu\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n", idx,
                q->rtt_ms, q->t_static_ms, q->t_dynamic_ms, q->t_delta_ms,
                q->overall_ms, bounds.lower_ms, bounds.upper_ms);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Convert mode: .dtrc to .dtrc or to the text dump
// ---------------------------------------------------------------------------

int convert_trace(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr, "usage: trace_inspect convert <in.dtrc> <out>\n"
                         "  writes .dtrc when <out> ends in .dtrc, and the\n"
                         "  text dump otherwise\n");
    return 2;
  }
  const std::string in = argv[2];
  const std::string out = argv[3];
  try {
    const capture::PacketTrace trace = capture::load_trace(in);
    const std::string_view out_view = out;
    if (out_view.ends_with(".dtrc")) {
      capture::save_trace_dtrc(trace, out);
    } else {
      capture::save_trace(trace, out);
    }
    std::fprintf(stderr, "converted %s -> %s (%zu records)\n", in.c_str(),
                 out.c_str(), trace.size());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: trace_inspect <capture.dtrc> [boundary]\n"
                 "         packet capture analysis\n"
                 "       trace_inspect convert <in.dtrc> <out>\n"
                 "         re-encode as .dtrc, or dump as text (by output "
                 "extension)\n"
                 "       trace_inspect spans <trace.json> "
                 "[--diff=<capture.dtrc>] [--boundary=N] [--node=NAME] "
                 "[--tree]\n"
                 "       trace_inspect attribution <trace.json> "
                 "[--diff=<capture.dtrc>] [--boundary=N]\n"
                 "       trace_inspect timeseries <series.csv|series.json>\n"
                 "       trace_inspect slow <slow.json> [--tree]\n");
    return 2;
  }
  if (std::strcmp(argv[1], "convert") == 0) return convert_trace(argc, argv);
  if (std::strcmp(argv[1], "spans") == 0) return inspect_spans(argc, argv);
  if (std::strcmp(argv[1], "attribution") == 0) {
    return inspect_attribution(argc, argv);
  }
  if (std::strcmp(argv[1], "timeseries") == 0) {
    return inspect_timeseries(argc, argv);
  }
  if (std::strcmp(argv[1], "slow") == 0) return inspect_slow(argc, argv);
  return inspect_packets(argc, argv);
}

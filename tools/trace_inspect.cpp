// trace_inspect — offline analyzer for saved dyncdn traces.
//
// Packet mode (default):
//   trace_inspect <trace-file> [boundary]
//
// Prints the connections found in a packet capture, discovers the
// static/dynamic boundary by cross-query content analysis (when payloads
// were retained and at least two responses exist; otherwise pass the
// boundary explicitly) and prints the paper's timing parameters for every
// query. Both steps replay the capture through analysis::StreamingAnalyzer.
//
// Span mode:
//   trace_inspect spans <trace.json> [--diff=<capture.trace>]
//       [--boundary=N] [--node=NAME] [--tree]
//
// Reads a Chrome trace_event file written by --trace-out, prints the span
// tree (per-query Fig. 2 timelines), and — with --diff — reconstructs each
// query's tb/t_synack/t1..te from the tcp.flow span events and compares
// them against the packet-capture analysis pipeline at tolerance 0: the
// two observation paths (in-process spans vs. offline tcpdump-style
// analysis) must agree on every timestamp, bit for bit. A tcp.flow span
// whose local_port is not a port number is refused, naming the span.
//
// Attribution mode:
//   trace_inspect attribution <trace.json> [--diff=<capture.trace>]
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
// per-channel min/mean/max over the tick range. Ticks must be whole
// non-negative numbers, values finite and non-negative, and every channel
// must hold one value per tick. A CSV row that breaks a rule is refused
// with its line number; a JSON series names the field and index, and its
// interval_ns must be a positive whole number.
//
// Slow-query mode:
//   trace_inspect slow <slow.json> [--tree]
//
// Pretty-prints a --slow-log flight-recorder dump; --tree includes each
// promoted query's retained span subtree.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/span_attribution.hpp"
#include "analysis/streaming.hpp"
#include "capture/serialize.hpp"
#include "capture/spill.hpp"
#include "core/inference.hpp"
#include "core/timings.hpp"
#include "obs/attribution.hpp"
#include "obs/json.hpp"
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
// Span mode
// ---------------------------------------------------------------------------

struct SpanNode {
  std::int64_t id = 0;
  std::int64_t parent = 0;
  std::string name;
  std::string cat;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Pretty-printable args (export order), minus the structural ones.
  std::vector<std::pair<std::string, std::string>> args;

  struct Event {
    std::string name;
    std::int64_t at_ns = 0;
    std::int64_t off = -1;  // rx events: stream offset
    std::int64_t len = -1;  // rx events: payload length
  };
  std::vector<Event> events;
  std::vector<std::size_t> children;
};

std::string arg_to_string(const obs::json::Value& v) {
  using Type = obs::json::Value::Type;
  switch (v.type) {
    case Type::kString:
      return "\"" + v.string + "\"";
    case Type::kNumber: {
      if (v.is_integer) return std::to_string(v.integer);
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", v.number);
      return buf;
    }
    case Type::kBool:
      return v.boolean ? "true" : "false";
    default:
      return "?";
  }
}

/// Parse the traceEvents array into a span forest. Returns false on
/// malformed input.
bool load_spans(const std::string& path, std::vector<SpanNode>& nodes,
                std::vector<std::size_t>& roots) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return false;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const auto doc = obs::json::parse(ss.str());
  if (!doc) {
    std::fprintf(stderr, "error: %s is not valid JSON\n", path.c_str());
    return false;
  }
  const obs::json::Value* events = doc->get("traceEvents");
  if (!events || !events->is_array()) {
    std::fprintf(stderr, "error: no traceEvents array in %s\n", path.c_str());
    return false;
  }

  std::map<std::int64_t, std::size_t> by_id;
  for (const obs::json::Value& ev : events->array) {
    const obs::json::Value* ph = ev.get("ph");
    const obs::json::Value* jargs = ev.get("args");
    if (!ph || !jargs) continue;
    if (ph->as_string() == "X") {
      SpanNode n;
      if (const auto* v = ev.get("name")) n.name = v->as_string();
      if (const auto* v = ev.get("cat")) n.cat = v->as_string();
      if (const auto* v = jargs->get("span_id")) n.id = v->as_int();
      if (const auto* v = jargs->get("parent")) n.parent = v->as_int();
      if (const auto* v = jargs->get("start_ns")) n.start_ns = v->as_int();
      if (const auto* v = jargs->get("end_ns")) n.end_ns = v->as_int();
      for (const auto& [key, val] : jargs->object) {
        if (key == "span_id" || key == "parent" || key == "start_ns" ||
            key == "end_ns" || key == "open") {
          continue;
        }
        n.args.emplace_back(key, arg_to_string(val));
      }
      by_id[n.id] = nodes.size();
      nodes.push_back(std::move(n));
    } else if (ph->as_string() == "i") {
      SpanNode::Event e;
      if (const auto* v = ev.get("name")) e.name = v->as_string();
      if (const auto* v = jargs->get("at_ns")) e.at_ns = v->as_int();
      if (const auto* v = jargs->get("off")) e.off = v->as_int();
      if (const auto* v = jargs->get("len")) e.len = v->as_int();
      const obs::json::Value* sid = jargs->get("span_id");
      if (!sid) continue;
      const auto it = by_id.find(sid->as_int());
      if (it != by_id.end()) nodes[it->second].events.push_back(std::move(e));
    }
  }

  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const auto it = by_id.find(nodes[i].parent);
    if (nodes[i].parent != 0 && it != by_id.end()) {
      nodes[it->second].children.push_back(i);
    } else {
      roots.push_back(i);
    }
  }
  return true;
}

void print_span(const std::vector<SpanNode>& nodes, std::size_t idx,
                int depth) {
  const SpanNode& n = nodes[idx];
  std::printf("%*s[%s] %s  %.6f ms  +%.6f ms", depth * 2, "", n.cat.c_str(),
              n.name.c_str(), static_cast<double>(n.start_ns) / 1e6,
              static_cast<double>(n.end_ns - n.start_ns) / 1e6);
  for (const auto& [key, val] : n.args) {
    std::printf("  %s=%s", key.c_str(), val.c_str());
  }
  std::printf("\n");
  for (const SpanNode::Event& e : n.events) {
    std::printf("%*s. %s @%.6f ms", depth * 2 + 2, "", e.name.c_str(),
                static_cast<double>(e.at_ns) / 1e6);
    if (e.off >= 0) {
      std::printf(" off=%" PRId64 " len=%" PRId64, e.off, e.len);
    }
    std::printf("\n");
  }
  for (const std::size_t c : n.children) print_span(nodes, c, depth + 1);
}

/// Timeline reconstructed from one tcp.flow span, for the --diff check.
struct SpanTimeline {
  std::string node_name;  // from the parent query span
  std::uint64_t local_port = 0;
  analysis::QueryTimeline tl;
};

/// nullopt, after naming the span, when a tcp.flow span's local_port is
/// not a port number.
std::optional<std::vector<SpanTimeline>> reconstruct_timelines(
    const std::vector<SpanNode>& nodes, std::size_t boundary) {
  std::map<std::int64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < nodes.size(); ++i) by_id[nodes[i].id] = i;

  std::vector<SpanTimeline> out;
  for (const SpanNode& n : nodes) {
    if (n.name != "tcp.flow") continue;
    SpanTimeline st;
    for (const auto& [key, val] : n.args) {
      if (key == "local_port") {
        const auto port = sim::parse_uint(val);
        if (!port || *port > 65535) {
          std::fprintf(stderr, "error: span %" PRId64
                       ": bad local_port value %s\n",
                       n.id, val.c_str());
          return std::nullopt;
        }
        st.local_port = *port;
      }
    }
    const auto pit = by_id.find(n.parent);
    if (pit != by_id.end()) {
      for (const auto& [key, val] : nodes[pit->second].args) {
        // Strip the quotes arg_to_string added around the string value.
        if (key == "node" && val.size() >= 2) {
          st.node_name = val.substr(1, val.size() - 2);
        }
      }
    }

    bool saw_syn = false, saw_synack = false, saw_t1 = false, saw_t2 = false;
    std::vector<analysis::ReassembledStream::Segment> segments;
    for (const SpanNode::Event& e : n.events) {
      const sim::SimTime at = sim::SimTime::nanoseconds(e.at_ns);
      if (e.name == "syn" && !saw_syn) {
        st.tl.tb = at;
        saw_syn = true;
      } else if (e.name == "synack" && !saw_synack) {
        st.tl.t_synack = at;
        saw_synack = true;
      } else if (e.name == "tx_data" && !saw_t1) {
        st.tl.t1 = at;
        saw_t1 = true;
      } else if (e.name == "ack_data" && !saw_t2) {
        st.tl.t2 = at;
        saw_t2 = true;
      } else if (e.name == "rx" && e.off >= 0 && e.len > 0) {
        segments.push_back(analysis::ReassembledStream::Segment{
            static_cast<std::size_t>(e.off), static_cast<std::size_t>(e.len),
            at});
      }
    }
    if (!saw_syn || !saw_synack || !saw_t1 || !saw_t2) {
      st.tl.invalid_reason = "incomplete handshake/request events";
      out.push_back(std::move(st));
      continue;
    }
    // The exact same data-plane analysis the packet pipeline runs.
    const auto stream =
        analysis::ReassembledStream::from_segments(std::move(segments));
    analysis::finish_timeline_from_stream(st.tl, stream, boundary);
    out.push_back(std::move(st));
  }
  return out;
}

int diff_against_capture(const std::vector<SpanNode>& nodes,
                         const std::string& capture_path,
                         std::size_t boundary, const std::string& node_name) {
  capture::PacketTrace trace;
  try {
    trace = capture::load_trace(capture_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  const capture::PacketTrace web = trace.filter_remote_port(80);

  if (boundary == 0) boundary = analysis::probe_boundary(web, 80).boundary;
  if (boundary == 0) {
    std::fprintf(stderr,
                 "diff: no boundary available (trace lacks payloads); pass "
                 "--boundary=N\n");
    return 1;
  }

  const auto span_tls = reconstruct_timelines(nodes, boundary);
  if (!span_tls) return 1;
  const auto capture_tls = analysis::extract_all_timelines(web, 80, boundary);

  std::size_t compared = 0, mismatches = 0, unmatched = 0;
  for (const auto& ct : capture_tls) {
    if (!ct.valid) continue;
    const SpanTimeline* match = nullptr;
    bool ambiguous = false;
    for (const SpanTimeline& st : *span_tls) {
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
                 "[--diff=<capture.trace>] [--boundary=N] [--node=NAME] "
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

  std::vector<SpanNode> nodes;
  std::vector<std::size_t> roots;
  if (!load_spans(json_path, nodes, roots)) return 1;
  std::printf("spans: %zu total, %zu roots\n", nodes.size(), roots.size());

  if (tree || diff_path.empty()) {
    for (const std::size_t r : roots) print_span(nodes, r, 0);
  }
  if (!diff_path.empty()) {
    return diff_against_capture(nodes, diff_path, boundary, node_name);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Attribution mode
// ---------------------------------------------------------------------------

obs::ArgValue typed_arg(const obs::json::Value& v) {
  using Type = obs::json::Value::Type;
  switch (v.type) {
    case Type::kString:
      return obs::ArgValue::of(v.string);
    case Type::kNumber:
      if (v.is_integer) return obs::ArgValue::of(v.integer);
      return obs::ArgValue::of(v.number);
    case Type::kBool:
      return obs::ArgValue::of(static_cast<std::int64_t>(v.boolean));
    default:
      return obs::ArgValue::of(std::int64_t{0});
  }
}

bool structural_span_key(const std::string& key) {
  return key == "span_id" || key == "parent" || key == "start_ns" ||
         key == "end_ns" || key == "open" || key == "at_ns";
}

/// Parse a Chrome trace_event file back into the SpanRecord shape the
/// in-process reducers consume, typed args included.
bool load_span_records(const std::string& path,
                       std::vector<obs::SpanRecord>& records) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return false;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const auto doc = obs::json::parse(ss.str());
  if (!doc) {
    std::fprintf(stderr, "error: %s is not valid JSON\n", path.c_str());
    return false;
  }
  const obs::json::Value* events = doc->get("traceEvents");
  if (!events || !events->is_array()) {
    std::fprintf(stderr, "error: no traceEvents array in %s\n", path.c_str());
    return false;
  }

  std::map<std::int64_t, std::size_t> by_id;
  for (const obs::json::Value& ev : events->array) {
    const obs::json::Value* ph = ev.get("ph");
    const obs::json::Value* jargs = ev.get("args");
    if (!ph || !jargs) continue;
    if (ph->as_string() == "X") {
      obs::SpanRecord r;
      if (const auto* v = ev.get("name")) r.name = v->as_string();
      if (const auto* v = ev.get("cat")) r.category = v->as_string();
      if (const auto* v = jargs->get("span_id")) {
        r.id = static_cast<obs::SpanId>(v->as_int());
      }
      if (const auto* v = jargs->get("parent")) {
        r.parent = static_cast<obs::SpanId>(v->as_int());
      }
      if (const auto* v = jargs->get("start_ns")) {
        r.start = sim::SimTime::nanoseconds(v->as_int());
      }
      if (const auto* v = jargs->get("end_ns")) {
        r.end = sim::SimTime::nanoseconds(v->as_int());
      }
      r.open = jargs->get("open") != nullptr;
      for (const auto& [key, val] : jargs->object) {
        if (structural_span_key(key)) continue;
        r.args.push_back(obs::Arg{key, typed_arg(val)});
      }
      by_id[static_cast<std::int64_t>(r.id)] = records.size();
      records.push_back(std::move(r));
    } else if (ph->as_string() == "i") {
      const obs::json::Value* sid = jargs->get("span_id");
      if (!sid) continue;
      const auto it = by_id.find(sid->as_int());
      if (it == by_id.end()) continue;
      obs::SpanEvent e;
      if (const auto* v = ev.get("name")) e.name = v->as_string();
      if (const auto* v = jargs->get("at_ns")) {
        e.at = sim::SimTime::nanoseconds(v->as_int());
      }
      for (const auto& [key, val] : jargs->object) {
        if (structural_span_key(key)) continue;
        e.args.push_back(obs::Arg{key, typed_arg(val)});
      }
      records[it->second].events.push_back(std::move(e));
    }
  }
  return true;
}

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
                     const std::string& capture_path, std::size_t boundary) {
  capture::PacketTrace trace;
  try {
    trace = capture::load_trace(capture_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
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
    // Anchor collapse mirrors QueryAttribution::observe.
    const std::int64_t a0 = s.t1;
    const std::int64_t a1 = s.fe_recv >= 0 ? s.fe_recv : a0;
    const std::int64_t a2 = s.fetch_start >= 0 ? s.fetch_start : a1;
    const std::int64_t a3 = s.fetch_first_byte >= 0 ? s.fetch_first_byte : a2;
    const std::int64_t sum = (a1 - a0) + (a2 - a1) + (a3 - a2) +
                             (s.t5 - a3) - (s.t2 - s.t1);
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
                 "[--diff=<capture.trace>] [--boundary=N]\n");
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

  std::vector<obs::SpanRecord> records;
  if (!load_span_records(json_path, records)) return 1;

  if (boundary == 0 && !diff_path.empty()) {
    try {
      boundary =
          analysis::probe_boundary(capture::load_trace(diff_path), 80).boundary;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  if (boundary == 0) {
    // Span-only invocation: recover the static/dynamic split from the
    // FE's static_flush byte stamp instead of requiring a capture.
    boundary = analysis::boundary_from_spans(records);
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
      analysis::extract_attribution(records, boundary);
  obs::QueryAttribution attribution;
  for (const double ms : result.dns_ms) attribution.observe_dns_ms(ms);
  for (std::size_t i = 0; i < result.skipped; ++i) attribution.skip();
  for (const analysis::AttributedQuery& q : result.queries) {
    attribution.observe(q.sample);
  }
  print_attribution_table(attribution);

  if (!diff_path.empty()) {
    return diff_attribution(result, diff_path, boundary);
  }
  return attribution.reconcile_failures() == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Time-series mode
// ---------------------------------------------------------------------------

struct SeriesColumn {
  std::string name;
  std::vector<double> values;
};

void print_series_summary(const std::vector<std::uint64_t>& ticks,
                          const std::vector<SeriesColumn>& columns) {
  std::printf("ticks: %zu", ticks.size());
  if (!ticks.empty()) {
    std::printf(" (%" PRIu64 "..%" PRIu64 ")", ticks.front(), ticks.back());
  }
  std::printf("\n%-28s%12s%12s%12s\n", "channel", "min", "mean", "max");
  for (const SeriesColumn& c : columns) {
    if (c.values.empty()) continue;
    double lo = c.values.front(), hi = c.values.front(), sum = 0.0;
    for (const double v : c.values) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      sum += v;
    }
    std::printf("%-28s%12.3f%12.3f%12.3f\n", c.name.c_str(), lo,
                sum / static_cast<double>(c.values.size()), hi);
  }
}

int inspect_timeseries(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: trace_inspect timeseries <series.csv|series.json>\n");
    return 2;
  }
  const std::string path = argv[2];
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return 1;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();

  std::vector<std::uint64_t> ticks;
  std::vector<SeriesColumn> columns;

  const bool csv =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  if (csv) {
    std::stringstream lines(text);
    std::string line;
    std::size_t line_no = 0;
    bool header = true;
    const auto malformed = [&](const std::string& what) {
      std::fprintf(stderr, "error: %s line %zu: %s\n", path.c_str(), line_no,
                   what.c_str());
      return 1;
    };
    while (std::getline(lines, line)) {
      ++line_no;
      if (line.empty()) continue;
      std::stringstream cells(line);
      std::string cell;
      std::size_t col = 0;
      while (std::getline(cells, cell, ',')) {
        if (header) {
          // Columns 0/1 are tick,time_ms; the rest are channels.
          if (col >= 2) columns.push_back(SeriesColumn{cell, {}});
        } else if (col == 0) {
          const auto tick = sim::parse_uint(cell);
          if (!tick) return malformed("bad tick '" + cell + "'");
          ticks.push_back(*tick);
        } else {
          // time_ms and the channel values: finite, non-negative numbers.
          const auto value = sim::parse_double(cell);
          if (!value) {
            return malformed("bad value '" + cell + "' in column " +
                             std::to_string(col + 1));
          }
          if (col >= columns.size() + 2) {
            return malformed("more columns than the header");
          }
          if (col >= 2) columns[col - 2].values.push_back(*value);
        }
        ++col;
      }
      if (!header && col < columns.size() + 2) {
        return malformed("fewer columns than the header");
      }
      header = false;
    }
  } else {
    const auto doc = obs::json::parse(text);
    if (!doc) {
      std::fprintf(stderr, "error: %s is not valid JSON\n", path.c_str());
      return 1;
    }
    // The CSV rules: whole non-negative ticks, finite non-negative values,
    // one value per tick in every channel, and a positive interval.
    const auto malformed = [&](const std::string& what) {
      std::fprintf(stderr, "error: %s: %s\n", path.c_str(), what.c_str());
      return 1;
    };
    const auto whole = [](const obs::json::Value& v) {
      return v.type == obs::json::Value::Type::kNumber && v.is_integer &&
             v.integer >= 0;
    };
    // A --ts-runtime-out file wraps the series in {"timeseries": ...}.
    const obs::json::Value* series = doc->get("timeseries");
    if (series == nullptr) series = &*doc;
    const auto* interval = series->get("interval_ns");
    if (interval == nullptr || !whole(*interval) || interval->integer == 0) {
      return malformed("interval_ns must be a positive whole number");
    }
    const auto* jticks = series->get("ticks");
    if (jticks == nullptr || !jticks->is_array()) {
      return malformed("ticks must be an array");
    }
    for (std::size_t i = 0; i < jticks->array.size(); ++i) {
      if (!whole(jticks->array[i])) {
        return malformed("bad tick at ticks[" + std::to_string(i) + "]");
      }
      ticks.push_back(static_cast<std::uint64_t>(jticks->array[i].integer));
    }
    const auto* chans = series->get("channels");
    if (chans == nullptr || !chans->is_object()) {
      return malformed("channels must be an object");
    }
    for (const auto& [name, vals] : chans->object) {
      if (!vals.is_array() || vals.array.size() != ticks.size()) {
        return malformed("channel " + name + " must hold one value per tick");
      }
      SeriesColumn c{name, {}};
      for (std::size_t i = 0; i < vals.array.size(); ++i) {
        // as_double's fallback -1 marks a non-number as bad.
        const double x = vals.array[i].as_double(-1.0);
        if (!std::isfinite(x) || x < 0) {
          return malformed("bad value at " + name + "[" + std::to_string(i) +
                           "]");
        }
        c.values.push_back(x);
      }
      columns.push_back(std::move(c));
    }
    std::printf("interval: %.3f ms\n",
                static_cast<double>(interval->integer) / 1e6);
  }
  print_series_summary(ticks, columns);
  return 0;
}

// ---------------------------------------------------------------------------
// Slow-query mode
// ---------------------------------------------------------------------------

/// Rebuild the span-tree view from a flight-recorder dump entry (the
/// entry's spans use the same field names as the Chrome exporter's args).
void collect_slow_spans(const obs::json::Value& jspans,
                        std::vector<SpanNode>& nodes,
                        std::vector<std::size_t>& roots) {
  std::map<std::int64_t, std::size_t> by_id;
  for (const obs::json::Value& js : jspans.array) {
    SpanNode n;
    if (const auto* v = js.get("id")) n.id = v->as_int();
    if (const auto* v = js.get("parent")) n.parent = v->as_int();
    if (const auto* v = js.get("name")) n.name = v->as_string();
    if (const auto* v = js.get("cat")) n.cat = v->as_string();
    if (const auto* v = js.get("start_ns")) n.start_ns = v->as_int();
    if (const auto* v = js.get("end_ns")) n.end_ns = v->as_int();
    if (const auto* jargs = js.get("args"); jargs && jargs->is_object()) {
      for (const auto& [key, val] : jargs->object) {
        n.args.emplace_back(key, arg_to_string(val));
      }
    }
    if (const auto* jevents = js.get("events");
        jevents && jevents->is_array()) {
      for (const auto& je : jevents->array) {
        SpanNode::Event e;
        if (const auto* v = je.get("name")) e.name = v->as_string();
        if (const auto* v = je.get("at_ns")) e.at_ns = v->as_int();
        if (const auto* ja = je.get("args"); ja && ja->is_object()) {
          if (const auto* v = ja->get("off")) e.off = v->as_int();
          if (const auto* v = ja->get("len")) e.len = v->as_int();
        }
        n.events.push_back(std::move(e));
      }
    }
    by_id[n.id] = nodes.size();
    nodes.push_back(std::move(n));
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const auto it = by_id.find(nodes[i].parent);
    if (nodes[i].parent != 0 && it != by_id.end()) {
      nodes[it->second].children.push_back(i);
    } else {
      roots.push_back(i);
    }
  }
}

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
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return 1;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const auto doc = obs::json::parse(ss.str());
  if (!doc) {
    std::fprintf(stderr, "error: %s is not valid JSON\n", path.c_str());
    return 1;
  }
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
    if (tree) {
      if (const auto* jspans = e.get("spans");
          jspans && jspans->is_array()) {
        std::vector<SpanNode> nodes;
        std::vector<std::size_t> roots;
        collect_slow_spans(*jspans, nodes, roots);
        for (const std::size_t r : roots) print_span(nodes, r, 1);
      }
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

  capture::PacketTrace trace;
  try {
    trace = capture::load_trace(argv[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::printf("trace: %zu packets captured at node %u\n", trace.size(),
              trace.node().value());

  const capture::PacketTrace web = trace.filter_remote_port(80);
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
// Convert mode: text <-> binary .dtrc
// ---------------------------------------------------------------------------

int convert_trace(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr, "usage: trace_inspect convert <in> <out>\n"
                         "  input format is sniffed (.dtrc magic vs text);\n"
                         "  output format follows the output extension\n"
                         "  (.dtrc = binary, anything else = text)\n");
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
                 "usage: trace_inspect <trace-file> [boundary]\n"
                 "         packet capture analysis; reads the text format "
                 "or binary .dtrc\n"
                 "       trace_inspect convert <in> <out>\n"
                 "         translate a capture between text and binary "
                 ".dtrc (by output extension)\n"
                 "       trace_inspect spans <trace.json> "
                 "[--diff=<capture.trace>] [--boundary=N] [--node=NAME] "
                 "[--tree]\n"
                 "       trace_inspect attribution <trace.json> "
                 "[--diff=<capture.trace>] [--boundary=N]\n"
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

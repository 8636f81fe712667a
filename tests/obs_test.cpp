// Observability layer: span tracing, metrics registry, exporters — and
// the headline cross-check: a traced query's span events
// reproduce the paper's t1..te timeline with ZERO sim-clock error against
// the packet-capture analysis pipeline.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/boundary.hpp"
#include "analysis/reassembly.hpp"
#include "analysis/span_attribution.hpp"
#include "analysis/timeline.hpp"
#include "harness.hpp"
#include "obs/export_chrome.hpp"
#include "obs/export_prometheus.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "search/keywords.hpp"
#include "testbed/experiment.hpp"
#include "testbed/scenario.hpp"

using namespace dyncdn;
using sim::SimTime;

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(Metrics, CountersGaugesHistograms) {
  obs::MetricsRegistry r;
  EXPECT_TRUE(r.empty());
  r.add("events_total", 3);
  r.add("events_total", 4);
  EXPECT_EQ(r.counter("events_total"), 7u);
  EXPECT_EQ(r.counter("absent"), 0u);

  r.gauge_max("heap_peak", 10);
  r.gauge_max("heap_peak", 4);  // high-water mark keeps the max
  EXPECT_EQ(r.gauge("heap_peak"), 10);

  r.observe("latency_ms", 5.0);
  r.observe("latency_ms", 50.0);
  ASSERT_NE(r.histogram("latency_ms"), nullptr);
  EXPECT_EQ(r.histogram("latency_ms")->count(), 2u);
  EXPECT_DOUBLE_EQ(r.histogram("latency_ms")->sum(), 55.0);
  EXPECT_DOUBLE_EQ(r.histogram("latency_ms")->min(), 5.0);
  EXPECT_DOUBLE_EQ(r.histogram("latency_ms")->max(), 50.0);
  EXPECT_FALSE(r.empty());
}

TEST(Metrics, MergeIsOrderIndependent) {
  const auto build = [](std::uint64_t c, std::int64_t g, double h) {
    obs::MetricsRegistry r;
    r.add("queries_total", c);
    r.gauge_max("depth_peak", g);
    r.observe("rtt_ms", h);
    return r;
  };
  const obs::MetricsRegistry a = build(3, 7, 12.0);
  const obs::MetricsRegistry b = build(5, 2, 180.0);

  obs::MetricsRegistry ab, ba;
  ab.merge(a);
  ab.merge(b);
  ba.merge(b);
  ba.merge(a);

  EXPECT_EQ(ab.counter("queries_total"), 8u);
  EXPECT_EQ(ab.gauge("depth_peak"), 7);
  EXPECT_EQ(ab.histogram("rtt_ms")->count(), 2u);
  // Byte-identical exports regardless of merge order.
  EXPECT_EQ(obs::export_prometheus(ab), obs::export_prometheus(ba));
}

TEST(Metrics, PrometheusTextFormat) {
  obs::MetricsRegistry r;
  r.add("queries_total", 42);
  r.gauge_max("queue_peak", 9);
  r.observe("rtt_ms", 80.0);
  const std::string text = obs::export_prometheus(r);

  EXPECT_NE(text.find("# TYPE dyncdn_queries_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("dyncdn_queries_total 42\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dyncdn_queue_peak gauge\n"), std::string::npos);
  EXPECT_NE(text.find("dyncdn_queue_peak 9\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dyncdn_rtt_ms histogram\n"), std::string::npos);
  EXPECT_NE(text.find("dyncdn_rtt_ms_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("dyncdn_rtt_ms_count 1\n"), std::string::npos);

  // Canonical: identical registries export identical bytes.
  obs::MetricsRegistry r2;
  r2.add("queries_total", 42);
  r2.gauge_max("queue_peak", 9);
  r2.observe("rtt_ms", 80.0);
  EXPECT_EQ(text, obs::export_prometheus(r2));
}

// ---------------------------------------------------------------------------
// Span tracing
// ---------------------------------------------------------------------------

TEST(Trace, SpanNestingAndEvents) {
  obs::TraceSession t;
  const obs::SpanId root =
      t.begin_span(SimTime::milliseconds(10), "query", "client");
  const obs::SpanId child =
      t.begin_span(SimTime::milliseconds(11), "tcp.flow", "client", root);
  ASSERT_NE(root, obs::kNoSpan);
  ASSERT_NE(child, obs::kNoSpan);
  EXPECT_EQ(t.open_span_count(), 2u);

  t.add_arg(root, "keyword", obs::ArgValue::of(std::string("test")));
  t.add_event(child, "synack", SimTime::milliseconds(12));
  t.end_span(child, SimTime::milliseconds(20));
  t.end_span(root, SimTime::milliseconds(21));
  EXPECT_EQ(t.open_span_count(), 0u);

  const obs::SpanRecord* c = t.find(child);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->parent, root);
  EXPECT_EQ(c->start, SimTime::milliseconds(11));
  EXPECT_EQ(c->end, SimTime::milliseconds(20));
  ASSERT_EQ(c->events.size(), 1u);
  EXPECT_EQ(c->events[0].name, "synack");
}

TEST(Trace, DisabledSessionIsNoOp) {
  obs::TraceSession t;
  t.set_enabled(false);
  const obs::SpanId id = t.begin_span(SimTime::zero(), "query", "client");
  EXPECT_EQ(id, obs::kNoSpan);
  t.add_arg(id, "k", obs::ArgValue::of(std::int64_t{1}));
  t.add_event(id, "e", SimTime::zero());
  t.end_span(id, SimTime::zero());
  EXPECT_TRUE(t.spans().empty());
}

TEST(Trace, ActiveTraceGate) {
  sim::Simulator simulator(1);
  EXPECT_EQ(obs::active_trace(simulator), nullptr);
  obs::TraceSession t;
  simulator.set_trace(&t);
  EXPECT_EQ(obs::active_trace(simulator), &t);
  t.set_enabled(false);
  EXPECT_EQ(obs::active_trace(simulator), nullptr);
}

TEST(Trace, MergeRemapsIdsAndParents) {
  obs::TraceSession main;
  const obs::SpanId existing =
      main.begin_span(SimTime::zero(), "query", "client");
  main.end_span(existing, SimTime::milliseconds(1));

  obs::TraceSession shard;
  const obs::SpanId p = shard.begin_span(SimTime::zero(), "query", "client");
  const obs::SpanId c =
      shard.begin_span(SimTime::milliseconds(1), "tcp.flow", "client", p);
  shard.end_span(c, SimTime::milliseconds(2));
  shard.end_span(p, SimTime::milliseconds(3));

  main.merge_from(std::move(shard), /*replica_id=*/4);
  ASSERT_EQ(main.spans().size(), 3u);
  const obs::SpanRecord& mp = main.spans()[1];
  const obs::SpanRecord& mc = main.spans()[2];
  EXPECT_NE(mp.id, p);  // remapped past the existing span's id
  EXPECT_EQ(mc.parent, mp.id);
  EXPECT_EQ(mp.replica, 4u);
  EXPECT_EQ(mc.replica, 4u);
  EXPECT_EQ(main.spans()[0].replica, 0u);
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST(ChromeExport, RoundTripsThroughJsonParser) {
  obs::TraceSession t;
  const obs::SpanId root =
      t.begin_span(SimTime::nanoseconds(1'500'000), "query", "client");
  t.add_arg(root, "keyword", obs::ArgValue::of(std::string("a \"b\"")));
  t.add_arg(root, "rank", obs::ArgValue::of(std::int64_t{12}));
  t.add_event(root, "synack", SimTime::nanoseconds(2'000'001),
              {{"off", obs::ArgValue::of(std::int64_t{3})}});
  t.end_span(root, SimTime::nanoseconds(4'000'123));

  const std::string text = obs::export_chrome_trace(t);
  const auto doc = obs::json::parse(text);
  ASSERT_TRUE(doc.has_value());
  const obs::json::Value* events = doc->get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 2u);  // one X + one i

  const obs::json::Value& x = events->array[0];
  EXPECT_EQ(x.get("ph")->as_string(), "X");
  EXPECT_EQ(x.get("name")->as_string(), "query");
  // Exact nanoseconds survive via args; ts/dur are micros for the viewer.
  EXPECT_EQ(x.get("args")->get("start_ns")->as_int(), 1'500'000);
  EXPECT_EQ(x.get("args")->get("end_ns")->as_int(), 4'000'123);
  EXPECT_EQ(x.get("args")->get("rank")->as_int(), 12);
  EXPECT_EQ(x.get("args")->get("keyword")->as_string(), "a \"b\"");

  const obs::json::Value& i = events->array[1];
  EXPECT_EQ(i.get("ph")->as_string(), "i");
  EXPECT_EQ(i.get("args")->get("at_ns")->as_int(), 2'000'001);
  EXPECT_EQ(i.get("args")->get("off")->as_int(), 3);
}

// ---------------------------------------------------------------------------
// End to end: spans vs. packet-capture analysis, tolerance 0
// ---------------------------------------------------------------------------

namespace {

std::uint64_t int_arg(const std::vector<obs::Arg>& args,
                      const std::string& key) {
  for (const obs::Arg& a : args) {
    if (a.key == key) return static_cast<std::uint64_t>(a.value.i);
  }
  return 0;
}

}  // namespace

TEST(ObsEndToEnd, SpanTimelineMatchesPacketAnalysisExactly) {
  testbed::ScenarioOptions so;
  so.profile = cdn::google_like_profile();
  so.client_count = 2;
  so.seed = 7;
  so.capture_payloads = true;
  so.enable_tracing = true;
  testbed::Scenario scenario(so);
  scenario.warm_up();
  scenario.connect_client_to_fe(0, 0);

  auto& client = scenario.clients()[0];
  ASSERT_NE(client.recorder, nullptr);
  const net::Endpoint fe = scenario.fe_endpoint(0);
  const search::KeywordCatalog catalog(9);
  const auto keywords = catalog.distinct_corpus(4);
  sim::SimTime at = SimTime::zero();
  for (const search::Keyword& kw : keywords) {
    client.node->simulator().schedule_in(at, [&client, fe, kw]() {
      client.query_client->submit(fe, kw, [](const cdn::QueryResult&) {});
    });
    at = at + SimTime::milliseconds(1500);
  }
  scenario.run();

  // Boundary discovery from the capture, exactly like the offline path.
  const capture::PacketTrace web =
      client.recorder->trace().filter_remote_port(80);
  const analysis::ProbedBoundary probed = analysis::probe_boundary(web, 80);
  ASSERT_GE(probed.responses, 2u);
  const std::size_t boundary = probed.boundary;
  ASSERT_GT(boundary, 0u);
  const auto packet_tls = analysis::extract_all_timelines(web, 80, boundary);

  obs::TraceSession* trace = scenario.trace();
  ASSERT_NE(trace, nullptr);

  std::size_t compared = 0;
  for (const obs::SpanRecord& span : trace->spans()) {
    if (span.name != "tcp.flow") continue;
    const std::uint64_t port = int_arg(span.args, "local_port");
    const analysis::QueryTimeline from_span =
        analysis::timeline_from_flow_span(span, boundary);

    const analysis::QueryTimeline* from_packets = nullptr;
    for (const auto& tl : packet_tls) {
      if (tl.flow.local.port == port) from_packets = &tl;
    }
    ASSERT_NE(from_packets, nullptr) << "no capture flow for port " << port;

    // Tolerance 0: both observation paths agree on every timestamp.
    ASSERT_TRUE(from_packets->valid) << from_packets->invalid_reason;
    ASSERT_TRUE(from_span.valid) << from_span.invalid_reason;
    EXPECT_EQ(from_span.tb.ns(), from_packets->tb.ns());
    EXPECT_EQ(from_span.t_synack.ns(), from_packets->t_synack.ns());
    EXPECT_EQ(from_span.t1.ns(), from_packets->t1.ns());
    EXPECT_EQ(from_span.t2.ns(), from_packets->t2.ns());
    EXPECT_EQ(from_span.t3.ns(), from_packets->t3.ns());
    EXPECT_EQ(from_span.t4.ns(), from_packets->t4.ns());
    EXPECT_EQ(from_span.t5.ns(), from_packets->t5.ns());
    EXPECT_EQ(from_span.te.ns(), from_packets->te.ns());
    EXPECT_EQ(from_span.boundary, from_packets->boundary);
    EXPECT_EQ(from_span.response_bytes, from_packets->response_bytes);
    ++compared;
  }
  EXPECT_EQ(compared, keywords.size());
}

TEST(ObsEndToEnd, SpanTreeLinksClientFeAndBe) {
  testbed::ScenarioOptions so;
  so.profile = cdn::google_like_profile();
  so.client_count = 2;
  so.seed = 11;
  so.enable_tracing = true;
  testbed::Scenario scenario(so);
  scenario.warm_up();
  scenario.connect_client_to_fe(0, 0);

  auto& client = scenario.clients()[0];
  const search::Keyword kw{"observability probe",
                           search::KeywordClass::kPopular, 100};
  client.query_client->submit(scenario.fe_endpoint(0), kw,
                              [](const cdn::QueryResult&) {});
  scenario.run();

  obs::TraceSession* trace = scenario.trace();
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->open_span_count(), 0u);

  const obs::SpanRecord* query = nullptr;
  for (const obs::SpanRecord& s : trace->spans()) {
    if (s.name == "query") query = &s;
  }
  ASSERT_NE(query, nullptr);

  // The cross-node chain the X-Trace-Span header stitches together:
  // query -> fe.request -> fe.fetch -> be.process, plus the local
  // query -> tcp.flow child.
  const auto find_child = [&](const std::string& name,
                              obs::SpanId parent) -> const obs::SpanRecord* {
    for (const obs::SpanRecord& s : trace->spans()) {
      if (s.name == name && s.parent == parent) return &s;
    }
    return nullptr;
  };
  EXPECT_NE(find_child("tcp.flow", query->id), nullptr);
  const obs::SpanRecord* fe_req = find_child("fe.request", query->id);
  ASSERT_NE(fe_req, nullptr);
  EXPECT_EQ(fe_req->category, "fe");
  EXPECT_NE(find_child("fe.service", fe_req->id), nullptr);
  const obs::SpanRecord* fetch = find_child("fe.fetch", fe_req->id);
  ASSERT_NE(fetch, nullptr);
  const obs::SpanRecord* be = find_child("be.process", fetch->id);
  ASSERT_NE(be, nullptr);
  EXPECT_EQ(be->category, "be");
  EXPECT_GE(be->start.ns(), fetch->start.ns());
  EXPECT_LE(be->end.ns(), fetch->end.ns());

  // static_flush marker (role 1 of the FE) sits on the request span.
  bool static_flush = false;
  for (const obs::SpanEvent& e : fe_req->events) {
    if (e.name == "static_flush") static_flush = true;
  }
  EXPECT_TRUE(static_flush);
}

// ---------------------------------------------------------------------------
// Readers: the JSON nesting cap, span files and slow-log spans read back,
// and seeded mutation of the Chrome-trace decoder
// ---------------------------------------------------------------------------

TEST(Json, DeepNestingIsRejected) {
  const auto nested = [](int depth, const std::string& open,
                         const std::string& inner, const std::string& close) {
    std::string text;
    for (int i = 0; i < depth; ++i) text += open;
    text += inner;
    for (int i = 0; i < depth; ++i) text += close;
    return text;
  };
  const int cap = obs::json::kMaxDepth;
  EXPECT_TRUE(obs::json::parse(nested(cap, "[", "", "]")).has_value());
  EXPECT_FALSE(obs::json::parse(nested(cap + 1, "[", "", "]")).has_value());
  EXPECT_TRUE(
      obs::json::parse(nested(cap, "{\"a\":", "1", "}")).has_value());
  EXPECT_FALSE(
      obs::json::parse(nested(cap + 1, "{\"a\":", "1", "}")).has_value());
  // Far past the cap: rejected, not a stack overflow.
  EXPECT_FALSE(obs::json::parse(nested(100000, "[", "", "]")).has_value());
  // The cap bounds depth, not size: many siblings parse.
  std::string wide = "[";
  for (int i = 0; i < 10000; ++i) wide += "[[]],";
  wide += "[]]";
  EXPECT_TRUE(obs::json::parse(wide).has_value());
}

namespace {

/// A session with nesting, an open span, merged spans of a second replica,
/// every arg type and strings that need escaping.
void fill_sample_session(obs::TraceSession& t) {
  using obs::ArgValue;
  const obs::SpanId root =
      t.begin_span(SimTime::nanoseconds(1'500'000), "query", "client");
  t.add_arg(root, "node", ArgValue::of(std::string("pl-0.\"stock\"\n\tholm")));
  t.add_arg(root, "rank", ArgValue::of(std::int64_t{-12}));
  const obs::SpanId flow =
      t.begin_span(SimTime::nanoseconds(2'000'001), "tcp.flow", "tcp", root);
  t.add_arg(flow, "local_port", ArgValue::of(std::int64_t{40001}));
  t.add_event(flow, "syn", SimTime::nanoseconds(2'000'001));
  t.add_event(flow, "rx", SimTime::nanoseconds(2'500'003),
              {{"off", ArgValue::of(std::int64_t{0})},
               {"len", ArgValue::of(std::int64_t{1448})}});
  t.end_span(flow, SimTime::nanoseconds(3'000'000));
  t.end_span(root, SimTime::nanoseconds(4'000'123));
  const obs::SpanId open =
      t.begin_span(SimTime::nanoseconds(5'000'000), "fe.fetch", "fe");
  t.add_arg(open, "t_proc_ms", ArgValue::of(3.25));
  t.add_event(open, "first_byte", SimTime::nanoseconds(5'000'007));

  obs::TraceSession replica;
  const obs::SpanId be =
      replica.begin_span(SimTime::nanoseconds(7), "be.process", "be");
  replica.add_arg(be, "keyword", ArgValue::of(std::string("\x01\x1f")));
  replica.end_span(be, SimTime::nanoseconds(9));
  t.merge_from(std::move(replica), /*replica_id=*/2);
}

/// Equal as span files carry them. A double whose value is whole reads
/// back as an int (the writer prints 2.0 as "2"), so numbers compare by
/// value; strings and ints compare exactly.
bool same_value(const obs::ArgValue& a, const obs::ArgValue& b) {
  using Type = obs::ArgValue::Type;
  if (a.type == Type::kString || b.type == Type::kString) {
    return a.type == b.type && a.s == b.s;
  }
  if (a.type == Type::kInt && b.type == Type::kInt) return a.i == b.i;
  const double x = a.type == Type::kInt ? static_cast<double>(a.i) : a.d;
  const double y = b.type == Type::kInt ? static_cast<double>(b.i) : b.d;
  return x == y;
}

void expect_same_args(const std::vector<obs::Arg>& want,
                      const std::vector<obs::Arg>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].key, got[i].key);
    EXPECT_TRUE(same_value(want[i].value, got[i].value)) << want[i].key;
  }
}

/// Span files do not carry the replica. `with_open` = false for slow-log
/// spans, which do not carry the open flag either.
void expect_same_spans(const std::vector<obs::SpanRecord>& want,
                       const std::vector<obs::SpanRecord>& got,
                       bool with_open = true) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("span " + std::to_string(i));
    EXPECT_EQ(want[i].id, got[i].id);
    EXPECT_EQ(want[i].parent, got[i].parent);
    EXPECT_EQ(want[i].name, got[i].name);
    EXPECT_EQ(want[i].category, got[i].category);
    EXPECT_EQ(want[i].start, got[i].start);
    EXPECT_EQ(want[i].end, got[i].end);
    if (with_open) {
      EXPECT_EQ(want[i].open, got[i].open);
    }
    expect_same_args(want[i].args, got[i].args);
    ASSERT_EQ(want[i].events.size(), got[i].events.size());
    for (std::size_t j = 0; j < want[i].events.size(); ++j) {
      EXPECT_EQ(want[i].events[j].name, got[i].events[j].name);
      EXPECT_EQ(want[i].events[j].at, got[i].events[j].at);
      expect_same_args(want[i].events[j].args, got[i].events[j].args);
    }
  }
}

std::vector<obs::SpanRecord> read_back(const std::string& text) {
  const auto doc = obs::json::parse(text);
  if (!doc) throw std::runtime_error("not valid JSON");
  return obs::read_chrome_trace(*doc);
}

}  // namespace

TEST(ChromeExport, ReadBackGivesTheSessionsSpans) {
  obs::TraceSession sample;
  fill_sample_session(sample);
  ASSERT_EQ(sample.open_span_count(), 1u);
  expect_same_spans(sample.spans(),
                    read_back(obs::export_chrome_trace(sample)));

  // A traced query through the testbed: every span kind it emits.
  testbed::ScenarioOptions so;
  so.profile = cdn::google_like_profile();
  so.client_count = 2;
  so.seed = 11;
  so.enable_tracing = true;
  testbed::Scenario scenario(so);
  scenario.warm_up();
  scenario.connect_client_to_fe(0, 0);
  const search::Keyword kw{"read back", search::KeywordClass::kPopular, 100};
  scenario.clients()[0].query_client->submit(
      scenario.fe_endpoint(0), kw, [](const cdn::QueryResult&) {});
  scenario.run();
  ASSERT_NE(scenario.trace(), nullptr);
  ASSERT_GT(scenario.trace()->spans().size(), 5u);
  expect_same_spans(scenario.trace()->spans(),
                    read_back(obs::export_chrome_trace(*scenario.trace())));
}

TEST(SpanFiles, ReadersRefuseTimesTheClockCannotProduce) {
  const auto slow_spans = [](const std::string& spans) {
    const auto doc = obs::json::parse(spans);
    if (!doc) throw std::logic_error("test input is not JSON");
    return obs::FlightRecorder::read_spans(*doc);
  };
  EXPECT_THROW(slow_spans(R"([{"id":3,"start_ns":-1,"end_ns":5}])"),
               std::runtime_error);
  EXPECT_THROW(slow_spans(R"([{"id":3,"start_ns":9,"end_ns":5}])"),
               std::runtime_error);
  EXPECT_THROW(slow_spans(R"([{"id":3,"start_ns":1,"end_ns":5,)"
                          R"("events":[{"name":"rx","at_ns":-2}]}])"),
               std::runtime_error);
  EXPECT_EQ(slow_spans(R"([{"id":3,"start_ns":1,"end_ns":5}])").size(), 1u);

  const std::string head = R"({"traceEvents":[{"ph":"X","args":{"span_id":3,)";
  EXPECT_THROW(read_back(head + R"("start_ns":-1,"end_ns":5}}]})"),
               std::runtime_error);
  EXPECT_THROW(read_back(head + R"("start_ns":9,"end_ns":5}}]})"),
               std::runtime_error);
  EXPECT_THROW(read_back(head + R"("start_ns":1,"end_ns":5}},)"
                                R"({"ph":"i","args":{"span_id":3,"at_ns":-2}}]})"),
               std::runtime_error);
  EXPECT_THROW(read_back(R"({"events":[]})"), std::runtime_error);
  EXPECT_EQ(read_back(head + R"("start_ns":1,"end_ns":5}}]})").size(), 1u);
}

TEST(FlightRecorder, ReadSpansGivesBackTheDumpedSpans) {
  obs::TraceSession sample;
  fill_sample_session(sample);
  obs::FlightRecorder::Options options;
  options.threshold_ms = 1.0;
  obs::FlightRecorder flight(options);
  obs::FlightRecorder::Entry entry;
  entry.node = "pl-0";
  entry.t_dynamic_ms = 2.0;
  entry.spans = sample.spans();
  ASSERT_TRUE(flight.observe(entry));

  const auto doc = obs::json::parse(flight.to_json());
  ASSERT_TRUE(doc.has_value());
  const obs::json::Value* slow = doc->get("slow");
  ASSERT_TRUE(slow != nullptr && slow->is_array());
  ASSERT_EQ(slow->array.size(), 1u);
  const std::vector<obs::SpanRecord> spans =
      obs::FlightRecorder::read_spans(*slow->array[0].get("spans"));
  expect_same_spans(sample.spans(), spans, /*with_open=*/false);
  for (const obs::SpanRecord& span : spans) EXPECT_FALSE(span.open);
}

TEST(ChromeTraceMutation, DecodesOrRejectsAndReencodesStably) {
  // Bit flips, truncations and splices of a file export_chrome_trace
  // wrote. Each mutant is rejected (not JSON, or refused by the reader)
  // or decodes; a decoded one re-encodes to a file that decodes to the
  // same spans, and from there the encoding is a fixed point.
  obs::TraceSession sample;
  fill_sample_session(sample);
  const std::string corpus = obs::export_chrome_trace(sample);
  std::mt19937 gen(20111104);
  int rejected = 0;
  int decoded = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    const std::string text = dyncdn::testing::mutate(corpus, gen);
    std::vector<obs::SpanRecord> first;
    try {
      first = read_back(text);
    } catch (const std::runtime_error&) {
      ++rejected;
      continue;
    }
    ++decoded;
    const std::string encoded = obs::export_chrome_trace(first);
    std::vector<obs::SpanRecord> second;
    ASSERT_NO_THROW(second = read_back(encoded)) << "iteration " << iter;
    expect_same_spans(first, second);
    const std::string reencoded = obs::export_chrome_trace(second);
    EXPECT_TRUE(obs::export_chrome_trace(read_back(reencoded)) == reencoded)
        << "iteration " << iter;
    if (HasFailure()) {
      ADD_FAILURE() << "iteration " << iter << ": " << text;
      return;
    }
  }
  // Both outcomes occur, so neither check above is vacuous.
  EXPECT_GT(rejected, 1000);
  EXPECT_GT(decoded, 1000);
}

/// A slow-query log read the way `trace_inspect slow --tree` reads one:
/// the JSON document, then each entry's span list. Throws
/// std::runtime_error when either is refused.
std::vector<std::vector<obs::SpanRecord>> read_slow_log(
    const std::string& text) {
  const auto doc = obs::json::parse(text);
  if (!doc) throw std::runtime_error("not JSON");
  const obs::json::Value* slow = doc->get("slow");
  if (slow == nullptr || !slow->is_array()) {
    throw std::runtime_error("no slow array");
  }
  std::vector<std::vector<obs::SpanRecord>> entries;
  for (const obs::json::Value& entry : slow->array) {
    const obs::json::Value* spans = entry.get("spans");
    entries.push_back(spans != nullptr
                          ? obs::FlightRecorder::read_spans(*spans)
                          : std::vector<obs::SpanRecord>{});
  }
  return entries;
}

/// The dump a recorder writes for these span trees, one slow entry each.
std::string write_slow_log(
    const std::vector<std::vector<obs::SpanRecord>>& entries) {
  obs::FlightRecorder::Options options;
  options.threshold_ms = 1.0;
  options.slow_capacity = entries.size();
  obs::FlightRecorder flight(options);
  for (const auto& spans : entries) {
    obs::FlightRecorder::Entry entry;
    entry.t_dynamic_ms = 2.0;
    entry.spans = spans;
    flight.observe(std::move(entry));
  }
  return flight.to_json();
}

TEST(FlightRecorder, AnyIdTheReaderTakesRoundTrips) {
  // The reader takes ids as signed JSON integers; the writer must give
  // back the same integer, not its unsigned reinterpretation (which reads
  // back as no id at all).
  const std::string dump =
      R"({"observed":1,"threshold_ms":1,"slow":[{"spans":[)"
      R"({"id":-5,"parent":-1,"start_ns":1,"end_ns":5}]}]})";
  const auto first = read_slow_log(dump);
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(first[0].size(), 1u);
  const auto second = read_slow_log(write_slow_log(first));
  ASSERT_EQ(second.size(), 1u);
  expect_same_spans(first[0], second[0], /*with_open=*/false);
}

TEST(FlightRecorderMutation, DecodesOrRejectsAndReencodesStably) {
  // Bit flips, truncations and splices of a real slow-query log: the dump
  // a traced campaign with a 1 us trigger writes (--slow-log), two span
  // trees kept. Each mutant is rejected or decodes; a decoded one
  // re-encodes to a dump that decodes to the same spans, and from there
  // the encoding is a fixed point.
  testbed::ScenarioOptions so;
  so.profile = cdn::google_like_profile();
  so.client_count = 1;
  so.seed = 5;
  so.enable_tracing = true;
  testbed::Scenario scenario(so);
  scenario.warm_up();
  testbed::ExperimentOptions eo;
  eo.reps_per_node = 2;
  eo.keywords = search::KeywordCatalog(5).figure3_keywords();
  eo.flight.threshold_ms = 0.001;
  eo.flight.slow_capacity = 2;
  const std::string corpus =
      testbed::run_fixed_fe_experiment(scenario, 0, eo).flight.to_json();
  ASSERT_EQ(read_slow_log(corpus).size(), 2u);

  std::mt19937 gen(20111102);
  int rejected = 0;
  int decoded = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    const std::string text = dyncdn::testing::mutate(corpus, gen);
    std::vector<std::vector<obs::SpanRecord>> first;
    try {
      first = read_slow_log(text);
    } catch (const std::runtime_error&) {
      ++rejected;
      continue;
    }
    ++decoded;
    const std::string encoded = write_slow_log(first);
    std::vector<std::vector<obs::SpanRecord>> second;
    ASSERT_NO_THROW(second = read_slow_log(encoded)) << "iteration " << iter;
    ASSERT_EQ(first.size(), second.size()) << "iteration " << iter;
    for (std::size_t i = 0; i < first.size(); ++i) {
      expect_same_spans(first[i], second[i], /*with_open=*/false);
    }
    const std::string reencoded = write_slow_log(second);
    EXPECT_TRUE(write_slow_log(read_slow_log(reencoded)) == reencoded)
        << "iteration " << iter;
    if (HasFailure()) {
      ADD_FAILURE() << "iteration " << iter << ": " << text;
      return;
    }
  }
  // Both outcomes occur, so neither check above is vacuous.
  EXPECT_GT(rejected, 1000);
  EXPECT_GT(decoded, 1000);
}

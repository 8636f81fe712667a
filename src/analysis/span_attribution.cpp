#include "analysis/span_attribution.hpp"

#include <algorithm>
#include <map>
#include <string_view>

#include "analysis/reassembly.hpp"

namespace dyncdn::analysis {

namespace {

using obs::find_arg;

bool has_failed_arg(const std::vector<obs::Arg>& args) {
  const obs::ArgValue* v = find_arg(args, "failed");
  return v != nullptr && v->type == obs::ArgValue::Type::kInt && v->i != 0;
}

std::string string_arg(const std::vector<obs::Arg>& args,
                       std::string_view key) {
  const obs::ArgValue* v = find_arg(args, key);
  return v != nullptr && v->type == obs::ArgValue::Type::kString ? v->s
                                                                 : std::string{};
}

}  // namespace

QueryTimeline timeline_from_flow_span(const obs::SpanRecord& flow,
                                      std::size_t boundary) {
  QueryTimeline tl;
  tl.boundary = boundary;
  bool saw_syn = false, saw_synack = false, saw_t1 = false, saw_t2 = false;
  std::vector<ReassembledStream::Segment> segments;
  for (const obs::SpanEvent& ev : flow.events) {
    if (ev.name == "syn" && !saw_syn) {
      tl.tb = ev.at;
      saw_syn = true;
    } else if (ev.name == "synack" && !saw_synack) {
      tl.t_synack = ev.at;
      saw_synack = true;
    } else if (ev.name == "tx_data" && !saw_t1) {
      tl.t1 = ev.at;
      saw_t1 = true;
    } else if (ev.name == "ack_data" && !saw_t2) {
      tl.t2 = ev.at;
      saw_t2 = true;
    } else if (ev.name == "rx") {
      const obs::ArgValue* off = find_arg(ev.args, "off");
      const obs::ArgValue* len = find_arg(ev.args, "len");
      if (off != nullptr && len != nullptr && off->i >= 0 && len->i > 0) {
        segments.push_back(ReassembledStream::Segment{
            static_cast<std::size_t>(off->i),
            static_cast<std::size_t>(len->i), ev.at});
      }
    }
  }
  if (!saw_syn || !saw_synack || !saw_t1 || !saw_t2) {
    tl.invalid_reason = "incomplete handshake/request events";
    return tl;
  }
  const ReassembledStream stream =
      ReassembledStream::from_segments(std::move(segments));
  finish_timeline_from_stream(tl, stream, boundary);
  return tl;
}

std::size_t boundary_from_spans(const std::vector<obs::SpanRecord>& spans) {
  // All FEs of a service flush the same static portion, so any stamped
  // event would do; max keeps the answer deterministic if a future
  // scenario ever mixes prefix sizes (the common prefix can only shrink,
  // never grow, so max errs toward the serial discovery's value).
  std::int64_t best = 0;
  for (const obs::SpanRecord& span : spans) {
    for (const obs::SpanEvent& ev : span.events) {
      if (ev.name != "static_flush") continue;
      const obs::ArgValue* bytes = find_arg(ev.args, "bytes");
      if (bytes != nullptr && bytes->type == obs::ArgValue::Type::kInt) {
        best = std::max(best, bytes->i);
      }
    }
  }
  return best > 0 ? static_cast<std::size_t>(best) : 0;
}

SpanAttributionResult extract_attribution(
    const std::vector<obs::SpanRecord>& spans, std::size_t boundary) {
  SpanAttributionResult result;

  std::map<obs::SpanId, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != obs::kNoSpan) {
      children[spans[i].parent].push_back(i);
    }
  }

  for (std::size_t i = 0; i < spans.size(); ++i) {
    const obs::SpanRecord& query = spans[i];
    if (query.name == "dns.resolve") {
      if (!query.open && !has_failed_arg(query.args)) {
        result.dns_ms.push_back(
            static_cast<double>((query.end - query.start).ns()) /
            1e6);
      }
      continue;
    }
    if (query.name != "query") continue;

    AttributedQuery q;
    q.node = string_arg(query.args, "node");
    q.keyword = string_arg(query.args, "keyword");

    // BFS from the query span: parent-before-child, input order among
    // siblings — deterministic because the span list itself is.
    q.subtree.push_back(i);
    for (std::size_t head = 0; head < q.subtree.size(); ++head) {
      const auto it = children.find(spans[q.subtree[head]].id);
      if (it == children.end()) continue;
      q.subtree.insert(q.subtree.end(), it->second.begin(), it->second.end());
    }

    const obs::SpanRecord* flow = nullptr;
    const obs::SpanRecord* fe_request = nullptr;
    const obs::SpanRecord* fe_service = nullptr;
    const obs::SpanRecord* fe_fetch = nullptr;
    for (const std::size_t idx : q.subtree) {
      const obs::SpanRecord& s = spans[idx];
      if (flow == nullptr && s.name == "tcp.flow") flow = &s;
      if (fe_request == nullptr && s.name == "fe.request") fe_request = &s;
      if (fe_service == nullptr && s.name == "fe.service") fe_service = &s;
      if (fe_fetch == nullptr && s.name == "fe.fetch") fe_fetch = &s;
    }

    if (has_failed_arg(query.args) || flow == nullptr) {
      ++result.skipped;
      continue;
    }

    const QueryTimeline tl = timeline_from_flow_span(*flow, boundary);
    if (!tl.valid) {
      ++result.skipped;
      continue;
    }
    obs::QueryAttribution::Sample& s = q.sample;
    s.tb = tl.tb.ns();
    s.t_synack = tl.t_synack.ns();
    s.t1 = tl.t1.ns();
    s.t2 = tl.t2.ns();
    s.t5 = tl.t5.ns();

    if (fe_request != nullptr) s.fe_recv = fe_request->start.ns();
    if (fe_fetch != nullptr) s.fetch_start = fe_fetch->start.ns();
    if (fe_fetch != nullptr) {
      for (const obs::SpanEvent& ev : fe_fetch->events) {
        if (ev.name == "first_byte") {
          s.fetch_first_byte = ev.at.ns();
          break;
        }
      }
    }
    if (fe_service != nullptr && !fe_service->open) {
      s.fe_service_ns = (fe_service->end - fe_service->start).ns();
    }

    q.ok = true;
    q.end_ns = s.t5;
    q.t_dynamic_ms = static_cast<double>(s.t5 - s.t2) / 1e6;
    result.queries.push_back(std::move(q));
  }

  std::sort(result.queries.begin(), result.queries.end(),
            [](const AttributedQuery& a, const AttributedQuery& b) {
              if (a.end_ns != b.end_ns) return a.end_ns < b.end_ns;
              if (a.node != b.node) return a.node < b.node;
              return a.keyword < b.keyword;
            });
  return result;
}

void reduce_attribution(const std::vector<obs::SpanRecord>& spans,
                        std::size_t boundary,
                        obs::QueryAttribution& attribution,
                        obs::FlightRecorder* flight) {
  const SpanAttributionResult result = extract_attribution(spans, boundary);
  for (const double ms : result.dns_ms) attribution.observe_dns_ms(ms);
  for (std::size_t i = 0; i < result.skipped; ++i) attribution.skip();
  for (const AttributedQuery& q : result.queries) {
    attribution.observe(q.sample);
    if (flight != nullptr) {
      obs::FlightRecorder::Entry entry;
      entry.node = q.node;
      entry.keyword = q.keyword;
      entry.t_dynamic_ms = q.t_dynamic_ms;
      entry.end_ns = q.end_ns;
      entry.spans.reserve(q.subtree.size());
      for (const std::size_t idx : q.subtree) {
        entry.spans.push_back(spans[idx]);
      }
      flight->observe(std::move(entry));
    }
  }
}

}  // namespace dyncdn::analysis

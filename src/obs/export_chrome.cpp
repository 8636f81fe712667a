#include "obs/export_chrome.hpp"

#include <cinttypes>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>

#include "obs/flight.hpp"

namespace dyncdn::obs {

namespace {

using json::append_i64;
using json::append_string;

void append_micros(std::string& out, std::int64_t ns) {
  // Chrome `ts` is microseconds; three decimals preserve the nanosecond.
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRId64 ".%03d", ns / 1000,
                static_cast<int>(ns % 1000));
  out += buf;
}

void append_args(std::string& out, const std::vector<Arg>& args) {
  for (const auto& arg : args) {
    out.push_back(',');
    append_string(out, arg.key);
    out.push_back(':');
    append_arg_value(out, arg.value);
  }
}

void append_span(std::string& out, const SpanRecord& span, bool& first) {
  const std::int64_t tid = static_cast<std::int64_t>(span.replica) + 1;
  if (!first) out += ",\n";
  first = false;
  out += R"({"ph":"X","name":)";
  append_string(out, span.name);
  out += R"(,"cat":)";
  append_string(out, span.category);
  out += R"(,"ts":)";
  append_micros(out, span.start.ns());
  out += R"(,"dur":)";
  append_micros(out, span.end.ns() - span.start.ns());
  out += R"(,"pid":1,"tid":)";
  append_i64(out, tid);
  out += R"(,"args":{"span_id":)";
  append_i64(out, static_cast<std::int64_t>(span.id));
  out += R"(,"parent":)";
  append_i64(out, static_cast<std::int64_t>(span.parent));
  out += R"(,"start_ns":)";
  append_i64(out, span.start.ns());
  out += R"(,"end_ns":)";
  append_i64(out, span.end.ns());
  if (span.open) out += R"(,"open":1)";
  append_args(out, span.args);
  out += "}}";
  for (const auto& event : span.events) {
    out += ",\n";
    out += R"({"ph":"i","s":"t","name":)";
    append_string(out, event.name);
    out += R"(,"cat":)";
    append_string(out, span.category);
    out += R"(,"ts":)";
    append_micros(out, event.at.ns());
    out += R"(,"pid":1,"tid":)";
    append_i64(out, tid);
    out += R"(,"args":{"span_id":)";
    append_i64(out, static_cast<std::int64_t>(span.id));
    out += R"(,"at_ns":)";
    append_i64(out, event.at.ns());
    append_args(out, event.args);
    out += "}}";
  }
}

/// The args append_span writes itself rather than from SpanRecord::args.
bool structural_span_key(std::string_view key) {
  return key == "span_id" || key == "parent" || key == "start_ns" ||
         key == "end_ns" || key == "open";
}

ArgValue arg_from_json(const json::Value& v) {
  using Type = json::Value::Type;
  switch (v.type) {
    case Type::kString:
      return ArgValue::of(v.string);
    case Type::kNumber:
      if (v.is_integer) return ArgValue::of(v.integer);
      return ArgValue::of(v.number);
    case Type::kBool:
      return ArgValue::of(static_cast<std::int64_t>(v.boolean));
    default:
      return ArgValue::of(std::int64_t{0});
  }
}

/// Refuse a time the simulated clock cannot produce, naming the span.
void check_times(const SpanRecord& r) {
  const auto bad = [&r](const char* what) {
    return std::runtime_error("span " + std::to_string(r.id) + ": " + what);
  };
  if (r.start.ns() < 0) throw bad("negative start_ns");
  if (r.end < r.start) throw bad("end_ns before start_ns");
  for (const SpanEvent& e : r.events) {
    if (e.at.ns() < 0) throw bad("event with negative at_ns");
  }
}

std::vector<Arg> read_args(const json::Value* jargs) {
  std::vector<Arg> args;
  if (jargs == nullptr || !jargs->is_object()) return args;
  for (const auto& [key, val] : jargs->object) {
    args.push_back(Arg{key, arg_from_json(val)});
  }
  return args;
}

}  // namespace

std::string export_chrome_trace(const std::vector<SpanRecord>& spans) {
  std::string out;
  out.reserve(256 + spans.size() * 256);
  out += "{\"traceEvents\":[\n";
  bool first = true;
  for (const auto& span : spans) {
    append_span(out, span, first);
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

std::string export_chrome_trace(const TraceSession& session) {
  return export_chrome_trace(session.spans());
}

bool write_chrome_trace(const TraceSession& session,
                        const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string body = export_chrome_trace(session);
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) ==
                  body.size();
  return std::fclose(f) == 0 && ok;
}

std::vector<SpanRecord> read_chrome_trace(const json::Value& doc) {
  const json::Value* events = doc.get("traceEvents");
  if (events == nullptr || !events->is_array()) {
    throw std::runtime_error("no traceEvents array");
  }
  std::vector<SpanRecord> records;
  std::map<std::int64_t, std::size_t> by_id;
  for (const json::Value& ev : events->array) {
    const json::Value* ph = ev.get("ph");
    const json::Value* jargs = ev.get("args");
    if (ph == nullptr || jargs == nullptr) continue;
    if (ph->as_string() == "X") {
      SpanRecord r;
      if (const auto* v = ev.get("name")) r.name = v->as_string();
      if (const auto* v = ev.get("cat")) r.category = v->as_string();
      if (const auto* v = jargs->get("span_id")) {
        r.id = static_cast<SpanId>(v->as_int());
      }
      if (const auto* v = jargs->get("parent")) {
        r.parent = static_cast<SpanId>(v->as_int());
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
        r.args.push_back(Arg{key, arg_from_json(val)});
      }
      by_id[static_cast<std::int64_t>(r.id)] = records.size();
      records.push_back(std::move(r));
    } else if (ph->as_string() == "i") {
      const json::Value* sid = jargs->get("span_id");
      if (sid == nullptr) continue;
      const auto it = by_id.find(sid->as_int());
      if (it == by_id.end()) continue;
      SpanEvent e;
      if (const auto* v = ev.get("name")) e.name = v->as_string();
      if (const auto* v = jargs->get("at_ns")) {
        e.at = sim::SimTime::nanoseconds(v->as_int());
      }
      for (const auto& [key, val] : jargs->object) {
        if (key == "span_id" || key == "at_ns") continue;
        e.args.push_back(Arg{key, arg_from_json(val)});
      }
      records[it->second].events.push_back(std::move(e));
    }
  }
  for (const SpanRecord& r : records) check_times(r);
  return records;
}

std::vector<SpanRecord> FlightRecorder::read_spans(const json::Value& spans) {
  std::vector<SpanRecord> records;
  if (!spans.is_array()) return records;
  for (const json::Value& js : spans.array) {
    SpanRecord r;
    r.open = false;  // the dump holds completed queries only
    if (const auto* v = js.get("id")) r.id = static_cast<SpanId>(v->as_int());
    if (const auto* v = js.get("parent")) {
      r.parent = static_cast<SpanId>(v->as_int());
    }
    if (const auto* v = js.get("name")) r.name = v->as_string();
    if (const auto* v = js.get("cat")) r.category = v->as_string();
    if (const auto* v = js.get("start_ns")) {
      r.start = sim::SimTime::nanoseconds(v->as_int());
    }
    if (const auto* v = js.get("end_ns")) {
      r.end = sim::SimTime::nanoseconds(v->as_int());
    }
    r.args = read_args(js.get("args"));
    if (const auto* jevents = js.get("events");
        jevents != nullptr && jevents->is_array()) {
      for (const json::Value& je : jevents->array) {
        SpanEvent e;
        if (const auto* v = je.get("name")) e.name = v->as_string();
        if (const auto* v = je.get("at_ns")) {
          e.at = sim::SimTime::nanoseconds(v->as_int());
        }
        e.args = read_args(je.get("args"));
        r.events.push_back(std::move(e));
      }
    }
    check_times(r);
    records.push_back(std::move(r));
  }
  return records;
}

}  // namespace dyncdn::obs

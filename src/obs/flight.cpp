#include "obs/flight.hpp"

#include "obs/export_chrome.hpp"
#include "obs/json.hpp"

namespace dyncdn::obs {

namespace {

using json::append_double;
using json::append_i64;
using json::append_string;
using json::append_u64;

void append_args(std::string& out, const std::vector<Arg>& args) {
  out.push_back('{');
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i != 0) out.push_back(',');
    append_string(out, args[i].key);
    out.push_back(':');
    append_arg_value(out, args[i].value);
  }
  out.push_back('}');
}

void append_span(std::string& out, const SpanRecord& span) {
  // Ids as signed integers, like the Chrome-trace writer: read_spans
  // takes them with as_int, so every id it can return writes back as the
  // same integer.
  out += "{\"id\":";
  append_i64(out, static_cast<std::int64_t>(span.id));
  out += ",\"parent\":";
  append_i64(out, static_cast<std::int64_t>(span.parent));
  out += ",\"name\":";
  append_string(out, span.name);
  out += ",\"cat\":";
  append_string(out, span.category);
  out += ",\"start_ns\":";
  append_i64(out, span.start.ns());
  out += ",\"end_ns\":";
  append_i64(out, span.end.ns());
  out += ",\"args\":";
  append_args(out, span.args);
  out += ",\"events\":[";
  for (std::size_t i = 0; i < span.events.size(); ++i) {
    if (i != 0) out.push_back(',');
    out += "{\"name\":";
    append_string(out, span.events[i].name);
    out += ",\"at_ns\":";
    append_i64(out, span.events[i].at.ns());
    out += ",\"args\":";
    append_args(out, span.events[i].args);
    out.push_back('}');
  }
  out += "]}";
}

}  // namespace

FlightRecorder::FlightRecorder() : FlightRecorder(Options()) {}

FlightRecorder::FlightRecorder(Options options) : options_(options) {
  if (options_.recent_capacity == 0) options_.recent_capacity = 1;
  if (options_.slow_capacity == 0) options_.slow_capacity = 1;
}

double FlightRecorder::current_threshold_ms() const {
  if (options_.threshold_ms > 0.0) return options_.threshold_ms;
  if (t_dynamic_.count() < options_.min_samples) return 0.0;
  return t_dynamic_.quantile(options_.quantile) * options_.slow_factor;
}

bool FlightRecorder::observe(Entry entry) {
  const double threshold = current_threshold_ms();
  const bool slow = threshold > 0.0 && entry.t_dynamic_ms > threshold;
  t_dynamic_.observe(entry.t_dynamic_ms);
  ++observed_;
  if (slow) {
    entry.threshold_ms = threshold;
    slow_.push_back(std::move(entry));
    while (slow_.size() > options_.slow_capacity) slow_.pop_front();
    return true;
  }
  entry.threshold_ms = 0.0;
  recent_.push_back(std::move(entry));
  while (recent_.size() > options_.recent_capacity) recent_.pop_front();
  return false;
}

void FlightRecorder::merge(const FlightRecorder& other) {
  observed_ += other.observed_;
  t_dynamic_.merge(other.t_dynamic_);
  for (const Entry& e : other.recent_) {
    recent_.push_back(e);
    while (recent_.size() > options_.recent_capacity) recent_.pop_front();
  }
  for (const Entry& e : other.slow_) {
    slow_.push_back(e);
    while (slow_.size() > options_.slow_capacity) slow_.pop_front();
  }
}

std::string FlightRecorder::to_json() const {
  std::string out = "{\"observed\":";
  append_u64(out, observed_);
  out += ",\"threshold_ms\":";
  append_double(out, current_threshold_ms());
  out += ",\"slow\":[";
  bool first = true;
  for (const Entry& e : slow_) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"node\":";
    append_string(out, e.node);
    out += ",\"keyword\":";
    append_string(out, e.keyword);
    out += ",\"t_dynamic_ms\":";
    append_double(out, e.t_dynamic_ms);
    out += ",\"threshold_ms\":";
    append_double(out, e.threshold_ms);
    out += ",\"end_ns\":";
    append_i64(out, e.end_ns);
    out += ",\"spans\":[";
    for (std::size_t i = 0; i < e.spans.size(); ++i) {
      if (i != 0) out.push_back(',');
      append_span(out, e.spans[i]);
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace dyncdn::obs

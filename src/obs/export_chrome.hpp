// Chrome trace_event JSON exporter (chrome://tracing, Perfetto, Speedscope)
// and its reader.
//
// Each span becomes a "ph":"X" complete event; span events become "ph":"i"
// instant events. Chrome timestamps are microseconds (double), so the
// exact nanosecond stamps are additionally carried in args (`start_ns`,
// `end_ns`, `at_ns`) together with `span_id`/`parent` (and `open`:1 for a
// span never ended). read_chrome_trace turns those args back into the
// SpanRecords that were written, which is what `trace_inspect spans` and
// `trace_inspect attribution` reduce.
#pragma once

#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace dyncdn::obs {

// Serialize spans as {"traceEvents":[...],"displayTimeUnit":"ms"}.
std::string export_chrome_trace(const std::vector<SpanRecord>& spans);
std::string export_chrome_trace(const TraceSession& session);

// Convenience: write to a file; returns false on I/O error.
bool write_chrome_trace(const TraceSession& session,
                        const std::string& path);

// Read back a document export_chrome_trace wrote: ids, parents, names,
// categories, exact start/end, the open flag, typed args (JSON integers as
// ints, other numbers as doubles, strings; booleans as 0/1) and events,
// each attached to the span its `span_id` names. The replica only picks a
// viewer row (`tid`) and reads back as 0. Entries without `ph` or `args`,
// and events of a span not seen yet, are skipped. Throws
// std::runtime_error when `doc` has no traceEvents array, or a span or
// event has a time the simulated clock cannot produce (negative, or a span
// ending before it starts).
std::vector<SpanRecord> read_chrome_trace(const json::Value& doc);

// One typed arg value as span files write it; shared with the flight
// recorder's dump.
inline void append_arg_value(std::string& out, const ArgValue& v) {
  switch (v.type) {
    case ArgValue::Type::kInt:
      json::append_i64(out, v.i);
      break;
    case ArgValue::Type::kDouble:
      json::append_double(out, v.d);
      break;
    case ArgValue::Type::kString:
      json::append_string(out, v.s);
      break;
  }
}

}  // namespace dyncdn::obs

// Per-query span tracing on the simulation clock.
//
// A TraceSession collects SpanRecords: named intervals with parent/child
// links, a replica id, typed args, and point-in-time events. Timestamps
// are sim::SimTime values passed in explicitly by the instrumentation
// site — the session never reads a clock, so it works identically inside
// any replica's Simulator and in unit tests.
//
// The span taxonomy maps onto the paper's Fig. 2 query timeline: a root
// `query` span per submitted query, a child `tcp.flow` span whose events
// carry the wire-level stamps (syn=tb, synack, tx_data=t1, ack_data=t2,
// rx segments for t3..te), and server-side `fe.*`/`be.*` spans linked
// across nodes via the X-Trace-Span request header. See
// docs/OBSERVABILITY.md for the full mapping.
//
// Cost model: when disabled(), begin_span returns the null id and every
// other call is a cheap early-out; instrumentation sites additionally gate
// on obs::active_trace() so a disabled session costs one pointer test per
// site.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace dyncdn::obs {

using SpanId = std::uint64_t;  // 0 = "no span"
inline constexpr SpanId kNoSpan = 0;

// Typed argument value: int, double, or string.
struct ArgValue {
  enum class Type : std::uint8_t { kInt, kDouble, kString };
  Type type = Type::kInt;
  std::int64_t i = 0;
  double d = 0.0;
  std::string s;

  static ArgValue of(std::int64_t v) {
    ArgValue a;
    a.type = Type::kInt;
    a.i = v;
    return a;
  }
  static ArgValue of(double v) {
    ArgValue a;
    a.type = Type::kDouble;
    a.d = v;
    return a;
  }
  static ArgValue of(std::string v) {
    ArgValue a;
    a.type = Type::kString;
    a.s = std::move(v);
    return a;
  }
};

struct Arg {
  std::string key;
  ArgValue value;
};

/// The value of the first arg named `key`; nullptr when there is none.
const ArgValue* find_arg(const std::vector<Arg>& args, std::string_view key);

// A point-in-time marker inside a span (e.g. "synack", "rx").
struct SpanEvent {
  std::string name;
  sim::SimTime at;
  std::vector<Arg> args;
};

struct SpanRecord {
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;
  std::uint32_t replica = 0;
  std::string name;
  std::string category;
  sim::SimTime start = sim::SimTime::zero();
  sim::SimTime end = sim::SimTime::zero();
  bool open = true;  // end_span not yet called
  std::vector<Arg> args;
  std::vector<SpanEvent> events;
};

class TraceSession {
 public:
  TraceSession() = default;

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // All mutators are no-ops (returning kNoSpan) while disabled, and
  // no-ops when given kNoSpan, so call sites can stay unconditional.
  SpanId begin_span(sim::SimTime at, std::string_view name,
                    std::string_view category, SpanId parent = kNoSpan);
  void end_span(SpanId id, sim::SimTime at);
  void add_arg(SpanId id, std::string_view key, ArgValue value);
  void add_event(SpanId id, std::string_view name, sim::SimTime at,
                 std::vector<Arg> args = {});

  // Spans in id order: ids only grow, so the list is sorted by id.
  const std::vector<SpanRecord>& spans() const { return spans_; }
  const SpanRecord* find(SpanId id) const;
  std::size_t open_span_count() const;

  // Absorb another session's spans (consuming it), remapping ids so they
  // stay unique and stamping `replica_id` on the absorbed records. Called
  // by the experiment merge step in shard-index order, which makes the
  // merged span list deterministic at any thread count.
  void merge_from(TraceSession&& other, std::uint32_t replica_id);

 private:
  SpanRecord* find_mutable(SpanId id);

  bool enabled_ = true;
  SpanId next_id_ = 1;
  std::vector<SpanRecord> spans_;
};

/// Fixed-width (20-digit zero-padded) decimal encoding of a span id for
/// on-wire headers: request byte counts — and therefore simulated TCP
/// timing — stay identical no matter how large the ids grow.
std::string span_id_header(SpanId id);

}  // namespace dyncdn::obs

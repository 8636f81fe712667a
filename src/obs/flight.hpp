// Slow-query flight recorder: a bounded ring of recently completed query
// span trees plus a trigger that promotes slow queries — T_dynamic above
// an explicit threshold, or above a running quantile estimate × factor —
// to a retained slow-query log that dumps to JSON.
//
// The recorder is fed in deterministic completion order (the attribution
// walker sorts completed queries by end time), so for a fixed
// configuration the promoted set is reproducible. merge() concatenates
// slow entries in call order and re-applies the bound; the experiment
// merge step calls it in replica-index order, keeping the merged log
// deterministic at any thread count. The adaptive trigger is per-replica:
// each replica's running quantile sees only its own queries.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dyncdn::obs {

class FlightRecorder {
 public:
  struct Options {
    std::size_t recent_capacity = 256;  // recent-completions ring
    std::size_t slow_capacity = 64;     // retained slow queries
    // Adaptive trigger: slow when t_dynamic_ms > quantile(q) × factor,
    // armed only after min_samples completions. threshold_ms > 0
    // replaces the adaptive trigger with a fixed cut.
    double slow_factor = 3.0;
    double quantile = 0.90;
    std::uint64_t min_samples = 20;
    double threshold_ms = 0.0;
  };

  struct Entry {
    std::string node;     // vantage point
    std::string keyword;  // query keyword
    double t_dynamic_ms = 0.0;
    double threshold_ms = 0.0;  // trigger value at promotion (0 = recent)
    std::int64_t end_ns = 0;    // completion time (sort key)
    // The query's full span subtree, parent before child.
    std::vector<SpanRecord> spans;
  };

  FlightRecorder();
  explicit FlightRecorder(Options options);

  const Options& options() const { return options_; }

  // Record one completed query. Returns true when promoted to the slow
  // log. The trigger consults the running histogram *before* this entry
  // is folded in, so a first outlier can still fire the adaptive cut.
  bool observe(Entry entry);

  void merge(const FlightRecorder& other);

  const std::deque<Entry>& recent() const { return recent_; }
  const std::deque<Entry>& slow() const { return slow_; }
  std::uint64_t observed() const { return observed_; }

  // Current promotion threshold in ms; 0 while the trigger is unarmed.
  double current_threshold_ms() const;

  // {"observed":N,"threshold_ms":...,"slow":[entries with span trees]}.
  // Span objects use the same field names as the Chrome-trace exporter's
  // args block ({id,parent,name,cat,start_ns,end_ns,args,events}).
  std::string to_json() const;

  // Read back one entry's "spans" array as to_json wrote it: ids, parents,
  // names, categories, start/end, typed args and events. The dump carries
  // no open flag or replica, so every span reads back closed, replica 0.
  // A non-array reads as no spans. Throws std::runtime_error, like
  // read_chrome_trace, on a time the simulated clock cannot produce.
  // Defined with the Chrome-trace reader (export_chrome.cpp): a program
  // that only writes dumps links no reader.
  static std::vector<SpanRecord> read_spans(const json::Value& spans);

 private:
  Options options_;
  std::uint64_t observed_ = 0;
  Histogram t_dynamic_;  // running distribution for the adaptive trigger
  std::deque<Entry> recent_;
  std::deque<Entry> slow_;
};

}  // namespace dyncdn::obs

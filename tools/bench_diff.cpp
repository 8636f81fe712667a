// Perf-regression gate over BENCH.json files.
//
//   bench_diff <baseline.json> <candidate.json> [--tolerance=0.10]
//              [--mem-tolerance=0.25] [--alloc-tolerance=0.10]
//
// Walks both documents and collects every gated metric by key name:
//
//   higher-is-better (throughput): `events_per_sec`,
//     `queries_per_sec_serial`, `queries_per_sec_best`, `packets_per_sec`,
//     `bytes_per_sec`, `stream_reduction_pct`, `spill_compression_x`.
//     Fails when the candidate is more than `tolerance` below the
//     baseline.
//
//   lower-is-better (memory): `peak_rss_bytes`, `peak_live_delta_bytes`,
//     `allocations`, `retained_bytes_peak`, `analyzer_bytes_peak`. Fails
//     when the candidate is more than `mem-tolerance` ABOVE the baseline
//     (memory is less noisy than wall clock but RSS quantizes in pages, so
//     it gets its own, looser knob).
//
//   lower-is-better (allocation counters): `allocs_per_query`. Heap
//     allocation counts are fully deterministic under DYNCDN_MEM_TRACK, so
//     they get the tightest knob (`--alloc-tolerance`, default 0.10): a
//     >10% rise in allocations per query fails even when wall clock and
//     peak memory look fine. Skipped (reported `ok`, ratio vs a zero
//     baseline) when either side was built without allocation tracking.
//
//   absolute ceiling (observability cost): `overhead_pct`,
//     `telemetry_overhead_pct`, `spill_overhead_pct`. Gated on the
//     CANDIDATE value alone against the section's own `hard_limit_pct`
//     sibling when the JSON emits one, else `--overhead-ceiling` (default
//     10.0) — these are wall-clock percentages whose baseline value is
//     noise, and the ceiling must hold even when the baseline predates
//     the section.
//
// Metrics are addressed by dotted path; metrics present on only one side
// are reported but not fatal, so the bench can grow sections without
// breaking older baselines. Exit 1 on regression, 2 on usage/parse errors
// (a tolerance or ceiling that is not a finite, non-negative number
// included).
//
// The run descriptors `mode`, `threads_available` and `build_type` are not
// gated, but each one that differs between the two files (or is present
// on one side only) gets a WARNING line: a quick run compared with a full
// one, a 1-core runner with a 4-core host, or a Debug build with a Release
// one is not a like-for-like comparison.
//
// Wired into ctest as `bench_diff` (label: bench), comparing the run's
// fresh BENCH.json against the committed bench/BASELINE_quick.json.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "sim/parse.hpp"

namespace {

using dyncdn::obs::json::Value;

enum class Direction { kHigherIsBetter, kLowerIsBetter, kLowerIsBetterAlloc, kCeiling };

bool is_throughput_metric(const std::string& key) {
  return key == "events_per_sec" || key == "queries_per_sec_serial" ||
         key == "queries_per_sec_best" || key == "packets_per_sec" ||
         key == "bytes_per_sec" || key == "stream_reduction_pct" ||
         key == "spill_compression_x";
}

bool is_memory_metric(const std::string& key) {
  return key == "peak_rss_bytes" || key == "peak_live_delta_bytes" ||
         key == "allocations" || key == "retained_bytes_peak" ||
         key == "analyzer_bytes_peak";
}

bool is_alloc_metric(const std::string& key) {
  return key == "allocs_per_query";
}

bool is_ceiling_metric(const std::string& key) {
  return key == "overhead_pct" || key == "telemetry_overhead_pct" ||
         key == "spill_overhead_pct";
}

struct Metric {
  std::string path;
  double value = 0.0;
  Direction direction = Direction::kHigherIsBetter;
  // Ceiling metrics: the section's own "hard_limit_pct" sibling, when the
  // JSON provides one; < 0 means fall back to --overhead-ceiling.
  double ceiling = -1.0;
};

void collect(const Value& v, const std::string& prefix,
             std::vector<Metric>& out) {
  if (!v.is_object()) return;
  for (const auto& [key, child] : v.object) {
    const std::string path = prefix.empty() ? key : prefix + "." + key;
    if (child.type == Value::Type::kNumber && is_throughput_metric(key)) {
      out.push_back(Metric{path, child.as_double(),
                           Direction::kHigherIsBetter});
    } else if (child.type == Value::Type::kNumber && is_memory_metric(key)) {
      out.push_back(Metric{path, child.as_double(),
                           Direction::kLowerIsBetter});
    } else if (child.type == Value::Type::kNumber && is_alloc_metric(key)) {
      out.push_back(Metric{path, child.as_double(),
                           Direction::kLowerIsBetterAlloc});
    } else if (child.type == Value::Type::kNumber && is_ceiling_metric(key)) {
      Metric m{path, child.as_double(), Direction::kCeiling};
      for (const auto& [sibling, sv] : v.object) {
        if (sibling == "hard_limit_pct" && sv.type == Value::Type::kNumber) {
          m.ceiling = sv.as_double();
        }
      }
      out.push_back(std::move(m));
    } else {
      collect(child, path, out);
    }
  }
}

Value load_document(const char* file) {
  std::ifstream in(file);
  if (!in) {
    std::fprintf(stderr, "bench_diff: cannot open %s\n", file);
    std::exit(2);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  auto doc = dyncdn::obs::json::parse(ss.str());
  if (!doc) {
    std::fprintf(stderr, "bench_diff: %s is not valid JSON\n", file);
    std::exit(2);
  }
  return std::move(*doc);
}

/// A top-level run descriptor as text; "(missing)" when absent.
std::string descriptor(const Value& doc, const char* key) {
  const Value* v = doc.get(key);
  if (v == nullptr) return "(missing)";
  if (v->type == Value::Type::kString) return v->string;
  if (v->type == Value::Type::kNumber && v->is_integer) {
    return std::to_string(v->integer);
  }
  if (v->type == Value::Type::kNumber) return std::to_string(v->number);
  return "?";
}

const Metric* find(const std::vector<Metric>& metrics,
                   const std::string& path) {
  for (const Metric& m : metrics) {
    if (m.path == path) return &m;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  double tolerance = 0.10;
  double mem_tolerance = 0.25;
  double alloc_tolerance = 0.10;
  double overhead_ceiling = 10.0;
  const char* base_path = nullptr;
  const char* cand_path = nullptr;
  const struct {
    std::string_view prefix;
    double* value;
  } knobs[] = {{"--tolerance=", &tolerance},
               {"--mem-tolerance=", &mem_tolerance},
               {"--alloc-tolerance=", &alloc_tolerance},
               {"--overhead-ceiling=", &overhead_ceiling}};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto knob = std::find_if(
        std::begin(knobs), std::end(knobs),
        [arg](const auto& k) { return arg.starts_with(k.prefix); });
    if (knob != std::end(knobs)) {
      const auto v = dyncdn::sim::parse_double(arg.substr(knob->prefix.size()));
      if (!v) {
        std::fprintf(stderr,
                     "bench_diff: bad %.*s value '%s': expected a "
                     "non-negative number\n",
                     static_cast<int>(knob->prefix.size() - 1),
                     knob->prefix.data(), argv[i] + knob->prefix.size());
        return 2;
      }
      *knob->value = *v;
    } else if (base_path == nullptr) {
      base_path = argv[i];
    } else if (cand_path == nullptr) {
      cand_path = argv[i];
    } else {
      base_path = nullptr;
      break;
    }
  }
  if (base_path == nullptr || cand_path == nullptr) {
    std::fprintf(stderr,
                 "usage: bench_diff <baseline.json> <candidate.json> "
                 "[--tolerance=0.10] [--mem-tolerance=0.25] "
                 "[--alloc-tolerance=0.10] [--overhead-ceiling=10.0]\n");
    return 2;
  }

  const Value base_doc = load_document(base_path);
  const Value cand_doc = load_document(cand_path);
  std::vector<Metric> base, cand;
  collect(base_doc, "", base);
  collect(cand_doc, "", cand);
  if (base.empty()) {
    std::fprintf(stderr, "bench_diff: no gated metrics in %s\n", base_path);
    return 2;
  }

  for (const char* key : {"mode", "threads_available", "build_type"}) {
    const std::string b = descriptor(base_doc, key);
    const std::string c = descriptor(cand_doc, key);
    if (b != c) {
      std::printf("WARNING  %s differs: baseline=%s candidate=%s\n", key,
                  b.c_str(), c.c_str());
    }
  }

  int regressions = 0;
  for (const Metric& b : base) {
    if (b.direction == Direction::kCeiling) continue;  // candidate-side gate
    const Metric* c = find(cand, b.path);
    if (c == nullptr) {
      std::printf("MISSING  %-45s baseline=%.0f (not in candidate)\n",
                  b.path.c_str(), b.value);
      continue;
    }
    const double ratio = b.value > 0.0 ? c->value / b.value : 1.0;
    bool regressed = false;
    switch (b.direction) {
      case Direction::kHigherIsBetter:
        regressed = ratio < 1.0 - tolerance;
        break;
      case Direction::kLowerIsBetter:
        regressed = ratio > 1.0 + mem_tolerance;
        break;
      case Direction::kLowerIsBetterAlloc:
        // A zero candidate means allocation tracking was compiled out
        // (sanitizer builds); there is nothing to gate.
        regressed = c->value > 0.0 && ratio > 1.0 + alloc_tolerance;
        break;
      case Direction::kCeiling:
        break;
    }
    std::printf("%s %-45s %12.0f -> %12.0f  (%+.1f%%%s)\n",
                regressed ? "REGRESS " : "ok      ", b.path.c_str(), b.value,
                c->value, (ratio - 1.0) * 100.0,
                b.direction == Direction::kHigherIsBetter ? ""
                                                          : ", lower=better");
    if (regressed) ++regressions;
  }
  for (const Metric& c : cand) {
    if (c.direction == Direction::kCeiling) {
      // Absolute gate on the candidate: these percentages are wall-clock
      // noise run to run, so only the hard ceiling is enforced — the
      // section's own hard_limit_pct when it emits one.
      const double limit = c.ceiling >= 0.0 ? c.ceiling : overhead_ceiling;
      const bool over = c.value > limit;
      std::printf("%s %-45s %12.2f  (ceiling %.1f)\n",
                  over ? "CEILING " : "ok      ", c.path.c_str(), c.value,
                  limit);
      if (over) ++regressions;
    } else if (find(base, c.path) == nullptr) {
      std::printf("NEW      %-45s candidate=%.0f (not in baseline)\n",
                  c.path.c_str(), c.value);
    }
  }

  if (regressions > 0) {
    std::fprintf(stderr,
                 "bench_diff: %d metric(s) regressed beyond tolerance "
                 "(throughput %.0f%%, memory %.0f%%, allocs %.0f%%)\n",
                 regressions, tolerance * 100.0, mem_tolerance * 100.0,
                 alloc_tolerance * 100.0);
    return 1;
  }
  std::printf("bench_diff: all gated metrics within tolerance "
              "(throughput %.0f%%, memory %.0f%%, allocs %.0f%%)\n",
              tolerance * 100.0, mem_tolerance * 100.0,
              alloc_tolerance * 100.0);
  return 0;
}

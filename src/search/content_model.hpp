// Response-content model.
//
// The paper's content analysis found every search response splits into:
//  - a STATIC portion, identical across queries (HTTP header, HTML head,
//    CSS, the "Videos / News / Shopping" menu bar) — cached at the FE and
//    delivered immediately; and
//  - a DYNAMIC portion (keyword-dependent menu, results, ads) — generated
//    at the BE per query.
//
// We synthesize both deterministically. The static prefix is bit-identical
// for every query of a service, so the analyzer's cross-query common-prefix
// discovery has a real signal to find; the dynamic body embeds the keyword
// and varies in size with query complexity.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "search/keywords.hpp"
#include "sim/random.hpp"

namespace dyncdn::search {

struct ContentProfile {
  /// Bytes of static HTML/CSS/menu (excluding the HTTP header block).
  std::size_t static_html_bytes = 9000;
  /// Dynamic body: base size plus a per-query-word increment.
  std::size_t dynamic_base_bytes = 16000;
  std::size_t dynamic_per_word_bytes = 1500;
  /// Multiplicative lognormal noise on the dynamic size (per query).
  double dynamic_size_sigma = 0.05;
  /// Number of synthesized result entries.
  std::size_t results_per_page = 10;
};

/// Appends `bytes` bytes of deterministic printable filler derived from
/// `tag`: lowercase letters from a tag-seeded LCG, with a newline after
/// every 73rd produced byte. A fill of N bytes is the first N bytes of the
/// tag's stream, whatever `out` already holds. It is pure in (tag, bytes)
/// and keeps no per-tag cache, because the caching experiment and the
/// boundary probes use distinct keywords. Cost: one resize of `out`, then
/// four LCG lanes that jump four steps per round, with two multiplies and
/// a table lookup per letter. That is about 2-3x the throughput of one
/// step and one push_back per byte (docs/PERF.md, "Steady query path").
void append_filler(std::string& out, std::string_view tag, std::size_t bytes);

class ContentModel {
 public:
  /// `service_name` flavors the static prefix so different services have
  /// different (but internally constant) static content.
  ContentModel(ContentProfile profile, std::string service_name);

  /// The static portion: HTML head + CSS + menu bar. Identical for every
  /// query; the FE serves this from cache.
  const std::string& static_prefix() const { return static_prefix_; }

  /// The dynamic portion for one query: keyword-dependent result page.
  /// Size varies with word count and the rng draw.
  std::string dynamic_body(const Keyword& keyword, sim::RngStream& rng) const;

  /// Deterministic expected size (before noise) — used by tests.
  std::size_t expected_dynamic_bytes(const Keyword& keyword) const;

  const ContentProfile& profile() const { return profile_; }
  const std::string& service_name() const { return service_name_; }

 private:
  ContentProfile profile_;
  std::string service_name_;
  std::string static_prefix_;
};

}  // namespace dyncdn::search

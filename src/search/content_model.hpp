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
#include <span>
#include <string>
#include <string_view>

#include "net/packet.hpp"
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

/// One query's dynamic body as the inputs of its layout: a keyword-
/// dependent menu, `results_per_page` result entries with filler, and an
/// ads filler, sized to about `target` bytes. The layout is described once
/// (content_model.cpp); size() walks it counting, write() and append_to()
/// walk it writing, so the size and the bytes cannot disagree. The struct
/// owns its inputs and can outlive the ContentModel that drew it.
struct BodyLayout {
  std::string keyword;
  std::string service;
  std::size_t results_per_page = 10;
  std::size_t target = 0;  // the drawn size target

  /// Length of the body, without writing it.
  std::size_t size() const;
  /// Write the body to `out`, which must hold exactly size() bytes.
  void write(std::span<std::uint8_t> out) const;
  /// Append the body to `out` (one walk; no zero-fill beyond the fillers').
  void append_to(std::string& out) const;
};

class ContentModel {
 public:
  /// `service_name` flavors the static prefix so different services have
  /// different (but internally constant) static content.
  ContentModel(ContentProfile profile, std::string service_name);

  /// The static portion: HTML head + CSS + menu bar. Identical for every
  /// query; the FE serves this from cache.
  const std::string& static_prefix() const { return static_prefix_; }

  /// The dynamic portion for one query as a lazy wire buffer: its size is
  /// known now, its bytes are written on the first read (net::ByteFill).
  /// Size varies with word count and the query's one content-RNG draw.
  net::Buffer dynamic_buffer(const Keyword& keyword, sim::RngStream& rng) const;

  /// The same dynamic portion as text (the same draw): draw, then write.
  std::string dynamic_body(const Keyword& keyword, sim::RngStream& rng) const;

  /// Deterministic expected size (before noise) — used by tests.
  std::size_t expected_dynamic_bytes(const Keyword& keyword) const;

  const ContentProfile& profile() const { return profile_; }
  const std::string& service_name() const { return service_name_; }

 private:
  /// Takes the draw: the lognormal size noise on the expected size.
  BodyLayout dynamic_layout(const Keyword& keyword, sim::RngStream& rng) const;

  ContentProfile profile_;
  std::string service_name_;
  std::string static_prefix_;
};

}  // namespace dyncdn::search

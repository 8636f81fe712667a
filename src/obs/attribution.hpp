// Per-query latency attribution: an online reducer that decomposes each
// completed query's T_dynamic into the paper's components and feeds
// per-component log-scale histograms (p50/p99/p999 per component out of
// every run, no retained packets).
//
// The decomposition telescopes over span anchors on the Fig.-2 timeline:
//
//   a0 = t1                 GET transmitted (tx_data on the tcp.flow span)
//   a1 = fe.request start   FE received the request (fallback: a0)
//   a2 = fe.fetch start     FE issued the BE fetch   (fallback: a1)
//   a3 = fetch first_byte   first BE byte at the FE  (fallback: a2)
//
//   uplink   = a1 - a0        fe_wait  = a2 - a1
//   fe_fetch = a3 - a2        delivery = t5 - a3
//   ack      = t2 - t1        (client-side overlap, subtracted)
//
// so (uplink + fe_wait + fe_fetch + delivery) - ack == t5 - t2 ==
// T_dynamic holds *exactly* in integer nanoseconds by construction; any
// violation (negative component, broken event ordering) increments
// `attr_reconcile_failures` instead of polluting the histograms. connect
// (tb -> SYN-ACK) and fe.service (overlapping the fetch, so not part of
// the sum) are reported alongside; dns.resolve arrives via its own root
// spans. Cache-hit / fetch-free queries degenerate gracefully: the
// missing anchors collapse and the identity still holds.
//
// This class is pure obs-layer: it consumes precomputed Sample structs
// (exact nanoseconds). The span-forest walker that produces them — using
// the same reassembly code as the packet-capture pipeline, which is what
// makes the external capture-diff reconcile at tolerance 0 — lives in
// src/analysis/span_attribution.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace dyncdn::obs {

class QueryAttribution {
 public:
  // Exact simulated-clock nanoseconds; -1 marks an absent anchor.
  struct Sample {
    std::int64_t tb = -1;        // SYN sent
    std::int64_t t_synack = -1;  // SYN-ACK received
    std::int64_t t1 = -1;        // GET transmitted
    std::int64_t t2 = -1;        // ACK of the GET
    std::int64_t t5 = -1;        // last dynamic byte
    std::int64_t fe_recv = -1;       // fe.request span start
    std::int64_t fetch_start = -1;   // fe.fetch span start
    std::int64_t fetch_first_byte = -1;  // first_byte event on fe.fetch
    std::int64_t fe_service_ns = -1;     // fe.service span duration
  };

  // The telescoping decomposition of one sample (the header comment's
  // a0..a3 rule), in exact nanoseconds: absent FE-side anchors collapse
  // onto their predecessor. observe() and `trace_inspect attribution
  // --diff` both use it.
  struct Decomposition {
    std::int64_t uplink = 0;    // a1 - a0
    std::int64_t fe_wait = 0;   // a2 - a1
    std::int64_t fe_fetch = 0;  // a3 - a2
    std::int64_t delivery = 0;  // t5 - a3
    std::int64_t ack = 0;       // t2 - t1

    // (uplink + fe_wait + fe_fetch + delivery) - ack; equals t5 - t2.
    std::int64_t telescoped() const {
      return uplink + fe_wait + fe_fetch + delivery - ack;
    }
  };
  static Decomposition decompose(const Sample& s);

  // Component histogram names in report order.
  static const std::vector<std::string>& component_names();

  // Reduce one completed query. Returns true when the sample passed the
  // telescoping reconciliation and fed the histograms.
  bool observe(const Sample& s);

  // dns.resolve spans are roots (resolution is outside the per-query
  // timeline, per the paper's footnote), so they arrive separately.
  void observe_dns_ms(double ms);

  // Count a query the walker could not decompose (failed / incomplete).
  void skip() { registry_.add("attr_skipped", 1); }

  void merge(const QueryAttribution& other) {
    registry_.merge(other.registry_);
  }

  std::uint64_t queries() const { return registry_.counter("attr_queries"); }
  std::uint64_t reconcile_failures() const {
    return registry_.counter("attr_reconcile_failures");
  }
  std::uint64_t skipped() const { return registry_.counter("attr_skipped"); }

  const MetricsRegistry& registry() const { return registry_; }

  // {"queries":N,...,"components":{name:{count,mean,p50,p99,p999,min,max}}}
  std::string to_json() const;

 private:
  MetricsRegistry registry_;
};

}  // namespace dyncdn::obs

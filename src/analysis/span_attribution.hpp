// Span-side readers of the Fig.-2 timeline.
//
// timeline_from_flow_span is the one piece of code that reads a tcp.flow
// span's control events (syn = tb, synack, tx_data = t1, ack_data = t2)
// and rx segments. It applies StreamingTimeline::finalize's rule and the
// same data-plane code (`ReassembledStream::from_segments` +
// `finish_timeline_from_stream`), which is why span timelines agree with
// capture-derived ones at tolerance 0.
//
// extract_attribution walks a trace's span list (live from a
// TraceSession, or read back by obs::read_chrome_trace), pairs each
// `query` span with its `tcp.flow` / `fe.request` / `fe.service` /
// `fe.fetch` descendants, and takes the Fig.-2 anchors from the flow's
// timeline. The obs-layer reducers (`QueryAttribution`, `FlightRecorder`)
// consume the extracted samples; this file owns the analysis dependency
// so src/obs/ stays free of it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/timeline.hpp"
#include "obs/attribution.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"

namespace dyncdn::analysis {

/// The Fig.-2 timeline of one tcp.flow span, split at `boundary` stream
/// bytes. Invalid with "incomplete handshake/request events" unless the
/// span holds all of syn, synack, tx_data and ack_data (the first of each
/// counts); rx events with off >= 0 and len > 0 are the received stream.
/// `flow` stays unset: a span carries only its local port.
QueryTimeline timeline_from_flow_span(const obs::SpanRecord& flow,
                                      std::size_t boundary);

struct AttributedQuery {
  bool ok = false;  // decomposable (complete, not failed)
  obs::QueryAttribution::Sample sample;
  std::string node;
  std::string keyword;
  double t_dynamic_ms = 0.0;
  std::int64_t end_ns = 0;  // completion time (deterministic sort key)
  // Indexes into the input span list: the query span and its whole
  // subtree, parent before child (for flight-recorder promotion).
  std::vector<std::size_t> subtree;
};

struct SpanAttributionResult {
  // Completed queries sorted by (end_ns, node, keyword) so downstream
  // reducers see a deterministic order at any thread/shard count.
  std::vector<AttributedQuery> queries;
  std::vector<double> dns_ms;  // root dns.resolve durations, input order
  std::size_t skipped = 0;     // failed / incomplete query spans
};

/// Decompose every query span in `spans` using `boundary` (stream bytes)
/// as the static/dynamic split — the same value the capture pipeline's
/// content analysis discovers.
SpanAttributionResult extract_attribution(
    const std::vector<obs::SpanRecord>& spans, std::size_t boundary);

/// Static/dynamic boundary recovered from the spans themselves: the FE
/// stamps the wire size of the static portion (`bytes`) on every
/// `static_flush` event. Returns 0 when no stamped event exists (traces
/// from before the arg was added). Lets `trace_inspect attribution` work
/// on a span dump alone, with no packet capture beside it.
std::size_t boundary_from_spans(const std::vector<obs::SpanRecord>& spans);

/// Extract and feed the obs-layer reducers in deterministic order.
/// `flight`, when non-null, receives one entry per completed query with
/// the full span subtree attached.
void reduce_attribution(const std::vector<obs::SpanRecord>& spans,
                        std::size_t boundary,
                        obs::QueryAttribution& attribution,
                        obs::FlightRecorder* flight = nullptr);

}  // namespace dyncdn::analysis

// Back-end data center: generates the dynamic portion of search responses.
//
// Serves two protocols:
//  - the internal fetch protocol on `fetch_port` (persistent connections
//    from FE servers; HTTP requests tagged X-Query-Id, length-framed
//    responses), and
//  - a direct client-facing service on `direct_port` (full static+dynamic
//    page, connection-close framing) used by the no-FE baseline from
//    Pathak et al. [9].
//
// The BE records per-query ground truth (arrival, processing completion,
// bytes) that tests use to validate the paper's inference bounds — the
// analysis pipeline itself never reads these records.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "cdn/load_model.hpp"
#include "net/node.hpp"
#include "search/content_model.hpp"
#include "search/keywords.hpp"
#include "tcp/stack.hpp"

namespace dyncdn::cdn {

/// BE query-processing time model: T_proc = per-query cost drawn from a
/// LoadModel whose base scales with query word count, with an optional
/// "hot result cache" discount for very popular keywords.
struct ProcessingModel {
  double base_ms = 30.0;
  double per_word_ms = 8.0;
  LoadModel load;  // load.median_ms unused; base comes from the fields above

  /// Keywords with popularity rank <= this hit the BE's internal result
  /// cache and cost `cached_factor` of the normal time. 0 disables.
  std::size_t result_cache_top_rank = 0;
  double cached_factor = 0.3;

  /// §6 "search as you type": a query whose text strictly extends a
  /// recently processed query costs `correlated_factor` of the normal
  /// time — "the subsequent queries are highly correlated with previous
  /// queries". Off (0) by default: this models the interactive-search
  /// extension, not the paper's baseline measurement target.
  std::size_t correlation_history = 0;
  double correlated_factor = 0.45;

  double base_for(const search::Keyword& k) const {
    double ms = base_ms + per_word_ms * static_cast<double>(k.word_count());
    if (result_cache_top_rank > 0 && k.rank <= result_cache_top_rank) {
      ms *= cached_factor;
    }
    return ms;
  }
};

/// Ground-truth record of one query processed by the BE.
struct BackendQueryRecord {
  std::uint64_t query_id = 0;
  std::string keyword;
  sim::SimTime request_received;
  sim::SimTime processing_done;  // request_received + T_proc
  sim::SimTime t_proc;           // the drawn processing time
  std::size_t dynamic_bytes = 0;
  bool correlated = false;  // benefited from the §6 prefix-correlation path
};

class BackendDataCenter {
 public:
  struct Config {
    std::string name = "be";
    net::Port fetch_port = 9000;
    net::Port direct_port = 8080;
    ProcessingModel processing;
    tcp::TcpConfig tcp;  // stack config (internal links: large windows)
  };

  BackendDataCenter(net::Node& node, const search::ContentModel& content,
                    Config config);

  net::Node& node() { return node_; }
  const Config& config() const { return config_; }
  net::Endpoint fetch_endpoint() const {
    return {node_.id(), config_.fetch_port};
  }
  net::Endpoint direct_endpoint() const {
    return {node_.id(), config_.direct_port};
  }

  const std::vector<BackendQueryRecord>& query_log() const {
    return query_log_;
  }
  std::size_t queries_served() const { return query_log_.size(); }
  std::size_t active_queries() const { return active_; }
  std::size_t active_queries_peak() const { return active_peak_; }
  tcp::TcpStack& stack() { return stack_; }

 private:
  void serve_fetch(tcp::TcpSocket& socket);
  void serve_direct(tcp::TcpSocket& socket);
  /// `trace_parent` is the caller's span id (from X-Trace-Span; 0 = none):
  /// the be.process span nests under the FE's fe.fetch across nodes.
  /// `done` receives the dynamic body as a lazy buffer: its size is fixed,
  /// its bytes are written only if something downstream reads them.
  void process_query(const search::Keyword& keyword, std::uint64_t query_id,
                     std::uint64_t trace_parent,
                     std::function<void(net::Buffer dynamic_body)> done);

  /// The serialized reply to a /warmup request: built on the first
  /// request and shared by reference with every later one that has the
  /// same query id and size (FEs all send id 0), so a fleet's warm-ups
  /// cost one buffer.
  net::PayloadRef warmup_reply(std::uint64_t query_id, std::size_t bytes);

  /// True when `text` extends (or repeats) a recently processed query.
  bool is_correlated(const std::string& text) const;
  void remember_query(const std::string& text);

  net::Node& node_;
  const search::ContentModel& content_;
  /// Static portion as a wire buffer for direct-connection serves,
  /// primed on first use and sent zero-copy afterwards.
  net::Buffer static_prefix_buf_;
  /// Last warmup_reply(), keyed by its query id and body size. Every FE's
  /// warm-up shares it, so its packets hold references to one buffer.
  struct WarmupReply {
    std::uint64_t query_id = 0;
    std::size_t bytes = 0;
    net::Buffer wire;
  };
  WarmupReply warmup_;
  Config config_;
  tcp::TcpStack stack_;
  sim::RngStream proc_rng_;
  sim::RngStream content_rng_;
  std::size_t active_ = 0;
  std::size_t active_peak_ = 0;
  std::vector<BackendQueryRecord> query_log_;
  std::deque<std::string> recent_queries_;  // newest at the back
};

}  // namespace dyncdn::cdn

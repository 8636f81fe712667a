// Front-end (proxy) server — the system under study.
//
// Implements the two FE roles the paper identifies:
//  1. it caches the static portion of the response and sends it to the
//     client immediately upon receiving the query, and
//  2. it splits the end-to-end TCP connection: clients terminate at the FE
//     while the FE fetches dynamic content over a persistent, pre-warmed
//     connection to the BE data center, then relays bytes as they arrive.
//
// Knobs cover the ablations DESIGN.md lists: cold vs warm BE connection,
// streaming vs store-and-forward relay, deferred static delivery, and an
// (off by default, per the paper's §3 finding) FE result cache.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cdn/load_model.hpp"
#include "http/parser.hpp"
#include "net/node.hpp"
#include "search/content_model.hpp"
#include "tcp/stack.hpp"

namespace dyncdn::cdn {

/// Ground-truth record of one FE->BE fetch. `fetch_start` to `last_byte`
/// is the true T_fetch the paper's framework can only bound from outside.
struct FetchRecord {
  std::uint64_t query_id = 0;
  std::string target;
  sim::SimTime fetch_start;   // FE wrote the query to the BE connection
  sim::SimTime first_byte;    // first dynamic-body byte arrived at the FE
  sim::SimTime last_byte;     // dynamic body complete at the FE
  bool served_from_fe_cache = false;

  sim::SimTime true_fetch_time() const { return last_byte - fetch_start; }
};

class FrontEndServer {
 public:
  enum class RelayMode {
    /// Forward dynamic bytes to the client as they arrive from the BE.
    kStreaming,
    /// Assemble the complete dynamic portion before delivering it — the
    /// edge-side "dynamic content assembly" of Lewin et al. (the paper's
    /// ref [8]), and the behaviour the paper's Eq. 2 encodes: the fetch
    /// time constant C "depends on the TCP window size on the BE data
    /// center", i.e. delivery to the FE completes (window-paced) before
    /// the client sees dynamic bytes. Default.
    kStoreAndForward,
  };

  struct Config {
    std::string name = "fe";
    net::Port client_port = 80;
    net::Endpoint backend;  // BE fetch endpoint

    /// FE request-handling service time (cache lookup + proxy overhead).
    /// Shared CDN hosts (BingLike) get larger sigma/amplitude.
    LoadModel service;

    /// Pre-warm persistent BE connections with a bulk transfer so their
    /// congestion windows are open before the first real query (the paper's
    /// "persistent TCP connection ... eliminates the effect of TCP
    /// slow-start" aspect). Disable for the cold-connection ablation.
    bool warm_backend_connection = true;
    std::size_t warmup_bytes = 128 * 1024;

    /// The FE multiplexes fetches over a pool of persistent BE
    /// connections, one in-flight query per connection (HTTP/1.1-style);
    /// the pool grows on demand up to this cap, beyond which fetches
    /// queue. Zero means unbounded.
    std::size_t max_backend_connections = 0;

    RelayMode relay_mode = RelayMode::kStoreAndForward;

    /// Send headers + static prefix immediately on query receipt (role 1).
    /// false = wait for the BE response before sending anything (ablation).
    bool serve_static_immediately = true;

    /// Cache dynamic results at the FE keyed by request target. The paper
    /// §3 concludes real FEs do NOT do this; the caching-experiment bench
    /// flips it on to show what the detector would see if they did.
    bool cache_results = false;

    tcp::TcpConfig client_tcp;
    tcp::TcpConfig backend_tcp;
  };

  FrontEndServer(net::Node& node, const search::ContentModel& content,
                 Config config);

  net::Node& node() { return node_; }
  const Config& config() const { return config_; }
  net::Endpoint client_endpoint() const {
    return {node_.id(), config_.client_port};
  }

  const std::vector<FetchRecord>& fetch_log() const { return fetch_log_; }
  std::size_t queries_handled() const { return queries_handled_; }
  /// Hits of the (off-by-default) dynamic result cache only.
  std::size_t cache_hits() const { return cache_hits_; }
  /// Hits of the static-portion cache (role 1). The first query primes
  /// the prefix into the FE cache; every later serve of it is a hit, so a
  /// repeated query from the same vantage point always records one.
  std::size_t static_cache_hits() const { return static_cache_hits_; }
  /// True when at least one pooled BE connection is established.
  bool backend_connected() const;
  std::size_t backend_pool_size() const { return be_pool_.size(); }

  /// Instantaneous depths for the time-series sampler (the *_peak()
  /// accessors below keep the end-of-run high-water marks).
  std::size_t fetch_queue_depth() const { return fetch_queue_.size(); }
  std::size_t active_requests() const { return active_requests_; }

  /// High-water marks for the metrics layer.
  std::size_t backend_pool_peak() const { return be_pool_peak_; }
  std::size_t fetch_queue_peak() const { return fetch_queue_peak_; }
  std::size_t active_requests_peak() const { return active_requests_peak_; }
  tcp::TcpStack& stack() { return stack_; }

 private:
  /// Per-client-connection state, shared between callbacks.
  struct ClientCtx {
    tcp::TcpSocket* socket = nullptr;
    bool alive = true;
    /// Store-and-forward accumulation: slices of the BE's body buffer.
    net::PayloadRef buffered;
    /// Head and static prefix sent: once per response (one per connection).
    bool head_sent = false;
    /// Observability: the fe.request span for the request in flight on
    /// this connection (kNoSpan when tracing is off).
    std::uint64_t span = 0;
  };

  /// One pooled persistent connection to the BE.
  struct BackendConn {
    tcp::TcpSocket* socket = nullptr;
    std::unique_ptr<http::ResponseParser> parser;
    std::shared_ptr<bool> alive;   // invalidates socket callbacks
    std::uint64_t response_id = 0;  // id of the response being parsed
    bool response_is_warmup = false;
    std::uint64_t in_flight_query = 0;  // 0 = idle
    bool connected = false;
  };

  void accept_client(tcp::TcpSocket& socket);
  void handle_request(std::shared_ptr<ClientCtx> ctx, http::HttpRequest req);
  void send_head_and_static(ClientCtx& ctx);
  void begin_fetch(std::shared_ptr<ClientCtx> ctx, const std::string& target);
  void dispatch_fetch(std::uint64_t query_id);
  BackendConn* idle_backend_conn();
  BackendConn& open_backend_conn(bool warm);
  void backend_conn_lost(BackendConn& conn);

  net::Node& node_;
  const search::ContentModel& content_;
  Config config_;
  tcp::TcpStack stack_;
  sim::RngStream service_rng_;

  std::vector<std::unique_ptr<BackendConn>> be_pool_;
  std::vector<std::uint64_t> fetch_queue_;  // queries awaiting a connection

  std::uint64_t next_query_id_ = 1;
  /// In-flight fetches: query id -> client context + log index.
  struct Pending {
    std::shared_ptr<ClientCtx> ctx;
    std::size_t log_index = 0;
    std::string cache_key;
    std::string target;
    std::uint64_t fetch_span = 0;  // obs: fe.fetch span id
  };
  std::unordered_map<std::uint64_t, Pending> pending_;

  std::unordered_map<std::string, net::PayloadRef> result_cache_;
  std::vector<FetchRecord> fetch_log_;
  std::size_t queries_handled_ = 0;
  std::size_t cache_hits_ = 0;
  std::size_t static_cache_hits_ = 0;
  bool static_prefix_primed_ = false;
  /// The cached static portion as a wire buffer: primed on first serve,
  /// then sent zero-copy on every hit instead of re-copied per query.
  net::Buffer static_prefix_buf_;
  std::size_t active_requests_ = 0;
  std::size_t be_pool_peak_ = 0;
  std::size_t fetch_queue_peak_ = 0;
  std::size_t active_requests_peak_ = 0;
};

}  // namespace dyncdn::cdn

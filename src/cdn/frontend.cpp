#include "cdn/frontend.hpp"

#include <algorithm>
#include <charconv>
#include <utility>

#include "http/message.hpp"
#include "obs/obs.hpp"

namespace {

// Parse an X-Trace-Span/X-Query-Id-style decimal header value; 0 when
// absent or malformed.
std::uint64_t parse_id_header(const std::optional<std::string_view>& v) {
  std::uint64_t id = 0;
  if (v) std::from_chars(v->data(), v->data() + v->size(), id);
  return id;
}

}  // namespace

namespace dyncdn::cdn {

FrontEndServer::FrontEndServer(net::Node& node,
                               const search::ContentModel& content,
                               Config config)
    : node_(node),
      content_(content),
      config_(std::move(config)),
      stack_(node, config_.client_tcp),
      service_rng_(node.simulator().rng().stream(
          "fe/" + config_.name + "/service")) {
  stack_.listen(config_.client_port,
                [this](tcp::TcpSocket& s) { accept_client(s); });
  // Open (and optionally warm) the first pool connection eagerly so the
  // very first query does not pay the handshake.
  open_backend_conn(config_.warm_backend_connection);
}

bool FrontEndServer::backend_connected() const {
  return std::any_of(be_pool_.begin(), be_pool_.end(),
                     [](const auto& c) { return c->connected; });
}

// ---------------------------------------------------------------------------
// Backend connection pool (persistent, multiplexed one-query-per-conn)
// ---------------------------------------------------------------------------

FrontEndServer::BackendConn* FrontEndServer::idle_backend_conn() {
  for (const auto& conn : be_pool_) {
    if (conn->in_flight_query == 0) return conn.get();
  }
  return nullptr;
}

FrontEndServer::BackendConn& FrontEndServer::open_backend_conn(bool warm) {
  auto owned = std::make_unique<BackendConn>();
  BackendConn& conn = *owned;
  be_pool_.push_back(std::move(owned));
  be_pool_peak_ = std::max(be_pool_peak_, be_pool_.size());
  conn.alive = std::make_shared<bool>(true);
  auto alive = conn.alive;
  BackendConn* conn_ptr = &conn;

  http::ResponseParser::Callbacks pc;
  pc.on_headers = [this, conn_ptr](const http::HttpResponse& resp,
                                   std::optional<std::size_t>) {
    conn_ptr->response_id = 0;
    conn_ptr->response_is_warmup = resp.header("X-Warmup").has_value();
    if (const auto id = resp.header("X-Query-Id")) {
      std::from_chars(id->data(), id->data() + id->size(),
                      conn_ptr->response_id);
    }
    auto it = pending_.find(conn_ptr->response_id);
    if (it != pending_.end()) {
      fetch_log_[it->second.log_index].first_byte =
          node_.simulator().now();
      if (obs::TraceSession* trace =
              obs::active_trace(node_.simulator())) {
        trace->add_event(it->second.fetch_span, "first_byte",
                         node_.simulator().now());
      }
    }
  };
  pc.on_body_data = [this, conn_ptr](const net::PayloadRef& chunk) {
    if (conn_ptr->response_is_warmup) return;
    auto it = pending_.find(conn_ptr->response_id);
    if (it == pending_.end()) return;
    ClientCtx& ctx = *it->second.ctx;
    if (config_.relay_mode == RelayMode::kStoreAndForward ||
        config_.cache_results) {
      ctx.buffered.append(chunk);
    }
    if (config_.relay_mode == RelayMode::kStreaming && ctx.alive) {
      // Deferred-static ablation: head+static go out before the first
      // dynamic byte reaches the client (a no-op once sent).
      if (!config_.serve_static_immediately) send_head_and_static(ctx);
      ctx.socket->send(chunk);
    }
  };
  pc.on_complete = [this, conn_ptr](const http::HttpResponse&) {
    if (conn_ptr->response_is_warmup) {
      conn_ptr->in_flight_query = 0;
    } else {
      auto it = pending_.find(conn_ptr->response_id);
      conn_ptr->in_flight_query = 0;
      if (it != pending_.end()) {
        Pending pending = std::move(it->second);
        pending_.erase(it);

        fetch_log_[pending.log_index].last_byte =
            node_.simulator().now();
        ClientCtx& ctx = *pending.ctx;

        if (config_.cache_results) {
          result_cache_[pending.cache_key] = ctx.buffered;
        }
        if (ctx.alive) {
          if (config_.relay_mode == RelayMode::kStoreAndForward) {
            if (!config_.serve_static_immediately) send_head_and_static(ctx);
            ctx.socket->send(std::move(ctx.buffered));
          }
          ctx.socket->close();
        }
        if (obs::TraceSession* trace =
                obs::active_trace(node_.simulator())) {
          const sim::SimTime now = node_.simulator().now();
          trace->end_span(pending.fetch_span, now);
          // The FE's part in the query ends once the relay is queued.
          trace->end_span(ctx.span, now);
        }
      }
    }
    // This connection is free again: drain one queued fetch, if any.
    if (!fetch_queue_.empty()) {
      const std::uint64_t next = fetch_queue_.front();
      fetch_queue_.erase(fetch_queue_.begin());
      dispatch_fetch(next);
    }
  };
  conn.parser = std::make_unique<http::ResponseParser>(std::move(pc));

  tcp::TcpSocket::Callbacks cb;
  cb.on_connected = [this, conn_ptr, alive, warm] {
    if (!*alive) return;
    conn_ptr->connected = true;
    if (warm) {
      http::HttpRequest warm_req;
      warm_req.target =
          "/warmup?bytes=" + std::to_string(config_.warmup_bytes);
      warm_req.set_header("X-Query-Id", "0");
      conn_ptr->socket->send_text(warm_req.serialize());
    }
  };
  cb.on_data = [this, conn_ptr, alive](net::PayloadRef d) {
    if (!*alive) return;
    try {
      conn_ptr->parser->feed(d);
    } catch (const std::exception&) {
      // Corrupt BE response stream: drop the connection; in-flight fetch
      // fails over via backend_conn_lost.
      conn_ptr->socket->abort();
      backend_conn_lost(*conn_ptr);
    }
  };
  cb.on_closed = [this, conn_ptr, alive] {
    if (!*alive) return;
    backend_conn_lost(*conn_ptr);
  };
  conn.socket = &stack_.connect(config_.backend, std::move(cb),
                                config_.backend_tcp);
  if (warm) {
    // The warm-up transfer occupies the connection until it completes.
    conn.in_flight_query = ~0ULL;
  }
  return conn;
}

void FrontEndServer::backend_conn_lost(BackendConn& conn) {
  *conn.alive = false;

  // The in-flight fetch on this connection (if any) is unanswerable; tear
  // the client connection down so the client observes a failure.
  if (conn.in_flight_query != 0 && conn.in_flight_query != ~0ULL) {
    auto it = pending_.find(conn.in_flight_query);
    if (it != pending_.end()) {
      if (it->second.ctx->alive) it->second.ctx->socket->abort();
      if (obs::TraceSession* trace =
              obs::active_trace(node_.simulator())) {
        const sim::SimTime now = node_.simulator().now();
        trace->add_arg(it->second.fetch_span, "failed",
                       obs::ArgValue::of(std::int64_t{1}));
        trace->end_span(it->second.fetch_span, now);
        trace->end_span(it->second.ctx->span, now);
      }
      pending_.erase(it);
    }
  }
  const auto pool_it = std::find_if(
      be_pool_.begin(), be_pool_.end(),
      [&conn](const auto& c) { return c.get() == &conn; });
  if (pool_it != be_pool_.end()) be_pool_.erase(pool_it);

  // Keep queued fetches moving on a fresh connection.
  if (!fetch_queue_.empty()) {
    const std::uint64_t next = fetch_queue_.front();
    fetch_queue_.erase(fetch_queue_.begin());
    dispatch_fetch(next);
  }
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

void FrontEndServer::accept_client(tcp::TcpSocket& socket) {
  auto ctx = std::make_shared<ClientCtx>();
  ctx->socket = &socket;

  auto parser = std::make_shared<http::RequestParser>(
      [this, ctx](http::HttpRequest req) {
        handle_request(ctx, std::move(req));
      });

  tcp::TcpSocket::Callbacks cb;
  cb.on_data = [ctx, parser](net::PayloadRef d) {
    try {
      d.for_each_slice([&parser](std::span<const std::uint8_t> s) {
        parser->feed(std::string_view(
            reinterpret_cast<const char*>(s.data()), s.size()));
      });
    } catch (const std::exception&) {
      // Malformed request: reset the connection, never crash the server.
      if (ctx->alive) ctx->socket->abort();
    }
  };
  cb.on_closed = [ctx] { ctx->alive = false; };
  socket.set_callbacks(std::move(cb));
}

void FrontEndServer::send_head_and_static(ClientCtx& ctx) {
  if (!ctx.alive || ctx.head_sent) return;
  ctx.head_sent = true;
  // Static-portion cache: the first serve primes the prefix into the FE
  // cache as a wire buffer, every later serve hits it and sends the same
  // buffer zero-copy. The bytes sent are identical either way (the prefix
  // ships with the FE deployment, so the sim charges no miss penalty).
  if (static_prefix_primed_) {
    ++static_cache_hits_;
  } else {
    static_prefix_primed_ = true;
    static_prefix_buf_ = net::make_buffer(content_.static_prefix());
  }
  http::HttpResponse head;
  // Service-level constant headers only: the response head is part of the
  // static portion the analyzer discovers by cross-query (and cross-FE)
  // common-prefix comparison, so nothing FE- or query-specific goes here.
  head.set_header("Server", content_.service_name());
  head.set_header("Connection", "close");
  const std::string head_text = head.serialize_head();
  if (obs::TraceSession* trace =
          obs::active_trace(node_.simulator())) {
    // Role 1 of the paper: the static flush leaves the FE here; the
    // client-side t3/t4 stamps are its arrival as seen by the tcp.flow
    // span's rx events. `bytes` is the wire size of the static portion
    // (head + cached prefix) — the same byte count the analyzer discovers
    // as the static/dynamic boundary, recorded so an offline span trace is
    // attributable without a packet capture (trace_inspect attribution).
    trace->add_event(
        ctx.span, "static_flush", node_.simulator().now(),
        {obs::Arg{"bytes",
                  obs::ArgValue::of(static_cast<std::int64_t>(
                      head_text.size() + static_prefix_buf_->size()))}});
  }
  // Close-framed response: the dynamic size is unknown at this point, which
  // is exactly why the FE can start sending before the BE answers.
  ctx.socket->send_text(head_text);
  ctx.socket->send(
      net::PayloadRef{static_prefix_buf_, 0, static_prefix_buf_->size()});
}

void FrontEndServer::handle_request(std::shared_ptr<ClientCtx> ctx,
                                    http::HttpRequest req) {
  ++queries_handled_;
  sim::Simulator& simulator = node_.simulator();
  const sim::SimTime service_delay = config_.service.draw(
      service_rng_, simulator.now(), active_requests_);
  ++active_requests_;
  active_requests_peak_ = std::max(active_requests_peak_, active_requests_);

  obs::SpanId service_span = obs::kNoSpan;
  if (obs::TraceSession* trace = obs::active_trace(simulator)) {
    // Cross-node parenting: the client put its query-span id in the
    // request; our whole request span hangs under it.
    ctx->span = trace->begin_span(simulator.now(), "fe.request", "fe",
                                  parse_id_header(req.header("X-Trace-Span")));
    trace->add_arg(ctx->span, "fe", obs::ArgValue::of(config_.name));
    trace->add_arg(ctx->span, "target", obs::ArgValue::of(req.target));
    service_span = trace->begin_span(simulator.now(), "fe.service", "fe",
                                     ctx->span);
  }

  simulator.schedule_in(
      service_delay,
      [this, ctx,
       service_span,
       target = req.target]() {
        --active_requests_;
        if (obs::TraceSession* trace =
                obs::active_trace(node_.simulator())) {
          trace->end_span(service_span, node_.simulator().now());
        }
        if (!ctx->alive) return;

        // FE result cache (counterfactual; off per the paper's finding).
        if (config_.cache_results) {
          const auto hit = result_cache_.find(target);
          if (hit != result_cache_.end()) {
            ++cache_hits_;
            send_head_and_static(*ctx);
            ctx->socket->send(hit->second);
            ctx->socket->close();
            FetchRecord rec;
            rec.query_id = 0;
            rec.target = target;
            rec.served_from_fe_cache = true;
            const sim::SimTime now = node_.simulator().now();
            rec.fetch_start = rec.first_byte = rec.last_byte = now;
            fetch_log_.push_back(std::move(rec));
            if (obs::TraceSession* trace =
                    obs::active_trace(node_.simulator())) {
              trace->add_arg(ctx->span, "cache_hit",
                             obs::ArgValue::of(std::int64_t{1}));
              trace->end_span(ctx->span, now);
            }
            return;
          }
        }

        // Role 2: forward the query to the BE *now* so fetching overlaps
        // the static-portion delivery, then (role 1) serve the cached
        // static prefix immediately.
        begin_fetch(ctx, target);
        if (config_.serve_static_immediately) send_head_and_static(*ctx);
      });
}

void FrontEndServer::begin_fetch(std::shared_ptr<ClientCtx> ctx,
                                 const std::string& target) {
  const std::uint64_t id = next_query_id_++;

  FetchRecord rec;
  rec.query_id = id;
  rec.target = target;
  rec.fetch_start = node_.simulator().now();
  fetch_log_.push_back(rec);

  Pending pending;
  pending.ctx = std::move(ctx);
  pending.log_index = fetch_log_.size() - 1;
  pending.cache_key = target;
  pending.target = target;
  if (obs::TraceSession* trace =
          obs::active_trace(node_.simulator())) {
    pending.fetch_span =
        trace->begin_span(node_.simulator().now(), "fe.fetch",
                          "fe", pending.ctx->span);
    trace->add_arg(pending.fetch_span, "query_id",
                   obs::ArgValue::of(static_cast<std::int64_t>(id)));
  }
  pending_.emplace(id, std::move(pending));

  dispatch_fetch(id);
}

void FrontEndServer::dispatch_fetch(std::uint64_t query_id) {
  auto it = pending_.find(query_id);
  if (it == pending_.end()) return;  // client died while queued

  BackendConn* conn = idle_backend_conn();
  if (conn == nullptr) {
    if (config_.max_backend_connections == 0 ||
        be_pool_.size() < config_.max_backend_connections) {
      // Grow the pool. New connections skip warm-up: with the window-
      // limited internal path, the handshake is the only cold cost, and
      // it is paid while the static portion is still being delivered.
      conn = &open_backend_conn(/*warm=*/false);
    } else {
      fetch_queue_.push_back(query_id);
      fetch_queue_peak_ = std::max(fetch_queue_peak_, fetch_queue_.size());
      return;
    }
  }

  conn->in_flight_query = query_id;
  http::HttpRequest fetch;
  fetch.target = it->second.target;
  fetch.set_header("X-Query-Id", std::to_string(query_id));
  if (it->second.fetch_span != 0) {
    fetch.set_header("X-Trace-Span", obs::span_id_header(it->second.fetch_span));
  }
  conn->socket->send_text(fetch.serialize());
}

}  // namespace dyncdn::cdn

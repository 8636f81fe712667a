#include "cdn/backend.hpp"

#include <algorithm>
#include <charconv>
#include <memory>
#include <utility>

#include "http/message.hpp"
#include "http/parser.hpp"
#include "obs/obs.hpp"

namespace dyncdn::cdn {

namespace {

/// Reconstruct workload metadata from request query params. The client
/// emulator encodes rank/class alongside q — standing in for the popularity
/// statistics a real BE maintains internally.
search::Keyword keyword_from_request(const http::HttpRequest& req) {
  search::Keyword k;
  k.text = req.query_param("q").value_or("");
  k.rank = 1000000;  // effectively unranked
  if (const auto r = req.query_param("rank")) {
    std::size_t v = 0;
    const auto [p, ec] = std::from_chars(r->data(), r->data() + r->size(), v);
    if (ec == std::errc{} && v > 0) k.rank = v;
  }
  if (const auto c = req.query_param("cls")) {
    if (*c == "popular") k.cls = search::KeywordClass::kPopular;
    else if (*c == "granular") k.cls = search::KeywordClass::kGranular;
    else if (*c == "complex") k.cls = search::KeywordClass::kComplex;
    else if (*c == "mixed") k.cls = search::KeywordClass::kMixed;
  }
  return k;
}

std::size_t warmup_bytes_from_request(const http::HttpRequest& req) {
  std::size_t v = 64 * 1024;
  if (const auto b = req.query_param("bytes")) {
    std::size_t parsed = 0;
    const auto [p, ec] =
        std::from_chars(b->data(), b->data() + b->size(), parsed);
    if (ec == std::errc{} && parsed > 0) v = parsed;
  }
  return v;
}

}  // namespace

BackendDataCenter::BackendDataCenter(net::Node& node,
                                     const search::ContentModel& content,
                                     Config config)
    : node_(node),
      content_(content),
      config_(std::move(config)),
      stack_(node, config_.tcp),
      proc_rng_(node.simulator().rng().stream(
          "be/" + config_.name + "/proc")),
      content_rng_(node.simulator().rng().stream(
          "be/" + config_.name + "/content")) {
  stack_.listen(config_.fetch_port,
                [this](tcp::TcpSocket& s) { serve_fetch(s); });
  stack_.listen(config_.direct_port,
                [this](tcp::TcpSocket& s) { serve_direct(s); });
}

bool BackendDataCenter::is_correlated(const std::string& text) const {
  if (config_.processing.correlation_history == 0) return false;
  for (const std::string& prev : recent_queries_) {
    // The new query *strictly extends* a recent one: the "search as you
    // type" pattern, where most of the previous computation is reusable.
    // Exact repeats deliberately do NOT qualify — results are generated
    // fresh per query (personalization), which is what makes the paper's
    // §3 same-query-repeated experiment come out cache-free.
    if (!prev.empty() && text.size() > prev.size() &&
        text.compare(0, prev.size(), prev) == 0) {
      return true;
    }
  }
  return false;
}

void BackendDataCenter::remember_query(const std::string& text) {
  if (config_.processing.correlation_history == 0) return;
  recent_queries_.push_back(text);
  while (recent_queries_.size() > config_.processing.correlation_history) {
    recent_queries_.pop_front();
  }
}

void BackendDataCenter::process_query(
    const search::Keyword& keyword, std::uint64_t query_id,
    std::uint64_t trace_parent, std::function<void(net::Buffer)> done) {
  sim::Simulator& simulator = node_.simulator();
  const sim::SimTime now = simulator.now();

  double base_ms = config_.processing.base_for(keyword);
  const bool correlated = is_correlated(keyword.text);
  if (correlated) base_ms *= config_.processing.correlated_factor;
  remember_query(keyword.text);

  const sim::SimTime t_proc = config_.processing.load.draw_scaled(
      proc_rng_, now, active_, base_ms);
  ++active_;
  active_peak_ = std::max(active_peak_, active_);

  obs::SpanId span = obs::kNoSpan;
  if (obs::TraceSession* trace = obs::active_trace(simulator)) {
    span = trace->begin_span(now, "be.process", "be", trace_parent);
    trace->add_arg(span, "keyword", obs::ArgValue::of(keyword.text));
    trace->add_arg(span, "query_id",
                   obs::ArgValue::of(static_cast<std::int64_t>(query_id)));
    trace->add_arg(span, "t_proc_ms",
                   obs::ArgValue::of(t_proc.to_milliseconds()));
    if (correlated) {
      trace->add_arg(span, "correlated", obs::ArgValue::of(std::int64_t{1}));
    }
  }

  simulator.schedule_in(
      t_proc, [this, keyword, query_id, now, t_proc, correlated, span,
               done = std::move(done)]() {
        --active_;
        net::Buffer body = content_.dynamic_buffer(keyword, content_rng_);
        BackendQueryRecord rec;
        rec.query_id = query_id;
        rec.keyword = keyword.text;
        rec.request_received = now;
        rec.processing_done = node_.simulator().now();
        rec.t_proc = t_proc;
        rec.dynamic_bytes = body->size();
        rec.correlated = correlated;
        query_log_.push_back(std::move(rec));
        if (obs::TraceSession* trace =
                obs::active_trace(node_.simulator())) {
          trace->end_span(span, node_.simulator().now());
        }
        done(std::move(body));
      });
}

net::PayloadRef BackendDataCenter::warmup_reply(std::uint64_t query_id,
                                                std::size_t bytes) {
  if (!warmup_.wire || warmup_.query_id != query_id ||
      warmup_.bytes != bytes) {
    http::HttpResponse resp;
    resp.set_header("X-Query-Id", std::to_string(query_id));
    resp.set_header("X-Warmup", "1");
    resp.body.assign(bytes, 'w');
    warmup_ = WarmupReply{query_id, bytes, net::make_buffer(resp.serialize())};
  }
  return net::PayloadRef{warmup_.wire, 0, warmup_.wire->size()};
}

void BackendDataCenter::serve_fetch(tcp::TcpSocket& socket) {
  // Persistent connection from an FE; responses are written atomically per
  // query (one send per response), so completion-order interleaving is safe.
  tcp::TcpSocket* sock = &socket;
  auto alive = std::make_shared<bool>(true);

  auto parser = std::make_shared<http::RequestParser>(
      [this, sock, alive](http::HttpRequest req) {
        std::uint64_t query_id = 0;
        if (const auto id = req.header("X-Query-Id")) {
          std::from_chars(id->data(), id->data() + id->size(), query_id);
        }

        if (req.target.starts_with("/warmup")) {
          // Connection-priming transfer: bulk bytes, no processing delay.
          if (*alive) {
            sock->send(warmup_reply(query_id, warmup_bytes_from_request(req)));
          }
          return;
        }

        const search::Keyword keyword = keyword_from_request(req);
        std::uint64_t trace_parent = 0;
        if (const auto span = req.header("X-Trace-Span")) {
          std::from_chars(span->data(), span->data() + span->size(),
                          trace_parent);
        }
        process_query(keyword, query_id, trace_parent,
                      [sock, alive, query_id](net::Buffer body) {
                        if (!*alive) return;  // FE connection died meanwhile
                        http::HttpResponse resp;
                        resp.set_header("X-Query-Id",
                                        std::to_string(query_id));
                        resp.set_header("Content-Length",
                                        std::to_string(body->size()));
                        // Head and body leave in ONE send: TCP has no
                        // Nagle, so a separate head send would put a
                        // head-only segment on the wire.
                        const net::Buffer head =
                            net::make_buffer(resp.serialize_head());
                        net::PayloadRef wire{head, 0, head->size()};
                        wire.append(net::PayloadRef{body, 0, body->size()});
                        sock->send(std::move(wire));
                      });
      });

  tcp::TcpSocket::Callbacks cb;
  cb.on_data = [sock, alive, parser](net::PayloadRef d) {
    try {
      d.for_each_slice([&parser](std::span<const std::uint8_t> s) {
        parser->feed(std::string_view(
            reinterpret_cast<const char*>(s.data()), s.size()));
      });
    } catch (const std::exception&) {
      if (*alive) sock->abort();  // malformed fetch request
    }
  };
  cb.on_remote_close = [sock] { sock->close(); };
  cb.on_closed = [alive] { *alive = false; };
  socket.set_callbacks(std::move(cb));
}

void BackendDataCenter::serve_direct(tcp::TcpSocket& socket) {
  // The no-FE baseline: the data center serves the complete page itself.
  // Everything (including the static portion) waits for T_proc, and the
  // whole transfer rides one long-RTT connection with cold slow start.
  tcp::TcpSocket* sock = &socket;
  auto alive = std::make_shared<bool>(true);

  auto parser = std::make_shared<http::RequestParser>(
      [this, sock, alive](http::HttpRequest req) {
        const search::Keyword keyword = keyword_from_request(req);
        process_query(keyword, 0, 0, [this, sock, alive](net::Buffer body) {
          if (!*alive) return;
          http::HttpResponse resp;
          resp.set_header("Server", config_.name);
          resp.set_header("Connection", "close");
          // Close-framed: no Content-Length.
          sock->send_text(resp.serialize_head());
          if (!static_prefix_buf_) {
            static_prefix_buf_ = net::make_buffer(content_.static_prefix());
          }
          sock->send(net::PayloadRef{static_prefix_buf_, 0,
                                     static_prefix_buf_->size()});
          sock->send(net::PayloadRef{body, 0, body->size()});
          sock->close();
        });
      });

  tcp::TcpSocket::Callbacks cb;
  cb.on_data = [sock, alive, parser](net::PayloadRef d) {
    try {
      d.for_each_slice([&parser](std::span<const std::uint8_t> s) {
        parser->feed(std::string_view(
            reinterpret_cast<const char*>(s.data()), s.size()));
      });
    } catch (const std::exception&) {
      if (*alive) sock->abort();  // malformed request
    }
  };
  cb.on_closed = [alive] { *alive = false; };
  socket.set_callbacks(std::move(cb));
}

}  // namespace dyncdn::cdn

#include "cdn/client.hpp"

#include <memory>
#include <utility>

#include "http/message.hpp"
#include "http/parser.hpp"
#include "obs/obs.hpp"

namespace dyncdn::cdn {

QueryClient::QueryClient(net::Node& node, tcp::TcpConfig tcp_config)
    : node_(node), stack_(node, tcp_config) {}

std::string QueryClient::target_for(const search::Keyword& keyword) {
  std::string t;
  t.reserve(48 + keyword.text.size() * 3);  // worst case: all %-escaped
  t += "/search?q=";
  t += http::url_encode(keyword.text);
  t += "&rank=";
  t += std::to_string(keyword.rank);
  t += "&cls=";
  t += search::to_string(keyword.cls);
  return t;
}

void QueryClient::submit(net::Endpoint server, const search::Keyword& keyword,
                         Handler handler) {
  sim::Simulator& simulator = node_.simulator();

  // All per-query state lives in one shared context captured by the
  // socket/parser callbacks; it dies with the last callback reference.
  struct QueryCtx {
    QueryResult result;
    Handler handler;
    std::unique_ptr<http::ResponseParser> parser;
    tcp::TcpSocket* socket = nullptr;
    bool reported = false;
    sim::Simulator* sim = nullptr;
    obs::TraceSession* trace = nullptr;  // outlives the query (Scenario-owned)
    obs::SpanId span = obs::kNoSpan;

    void report() {
      if (reported) return;
      reported = true;
      if (trace != nullptr) {
        trace->add_arg(span, "status",
                       obs::ArgValue::of(
                           static_cast<std::int64_t>(result.status)));
        trace->add_arg(span, "failed",
                       obs::ArgValue::of(
                           static_cast<std::int64_t>(result.failed)));
        trace->end_span(span, sim->now());
      }
      handler(result);
    }
  };
  auto ctx = std::make_shared<QueryCtx>();
  ctx->result.keyword = keyword;
  ctx->result.start = simulator.now();
  ctx->handler = std::move(handler);
  // Root span of the query's tree; fe.*/be.* spans parent onto it via the
  // X-Trace-Span request header, the tcp.flow child carries the
  // wire-level t-stamps (see docs/OBSERVABILITY.md).
  obs::TraceSession* const trace = obs::active_trace(simulator);
  if (trace != nullptr) {
    ctx->sim = &simulator;
    ctx->trace = trace;
    ctx->span = trace->begin_span(simulator.now(), "query", "client");
    trace->add_arg(ctx->span, "node", obs::ArgValue::of(node_.name()));
    trace->add_arg(ctx->span, "keyword",
                   obs::ArgValue::of(keyword.text));
  }

  // The parser lives inside ctx, so its callbacks must NOT share ownership
  // of ctx — that would be a ctx -> parser -> callbacks -> ctx cycle and
  // the whole query context would leak. The raw pointer is safe: the
  // parser cannot outlive the context that owns it.
  QueryCtx* const self = ctx.get();
  http::ResponseParser::Callbacks pc;
  pc.on_headers = [self](const http::HttpResponse& resp,
                         std::optional<std::size_t>) {
    self->result.status = resp.status;
  };
  pc.on_body_data = [self, &simulator](const net::PayloadRef& chunk) {
    if (self->result.body_bytes == 0) {
      self->result.first_byte = simulator.now();
    }
    self->result.body_bytes += chunk.length;  // counted, never read
  };
  pc.on_complete = [self, &simulator](const http::HttpResponse&) {
    self->result.complete = simulator.now();
  };
  ctx->parser = std::make_unique<http::ResponseParser>(std::move(pc));

  tcp::TcpSocket::Callbacks cb;
  const std::string target = target_for(keyword);
  cb.on_connected = [ctx, &simulator] {
    ctx->result.connected = simulator.now();
    ctx->result.request_sent = simulator.now();
  };
  cb.on_data = [ctx](net::PayloadRef d) {
    try {
      ctx->parser->feed(d);
    } catch (const std::exception& e) {
      ctx->result.failed = true;
      ctx->result.failure_reason = e.what();
    }
  };
  cb.on_remote_close = [ctx] {
    try {
      ctx->parser->finish_stream();
    } catch (const std::exception& e) {
      ctx->result.failed = true;
      ctx->result.failure_reason = e.what();
    }
    // The server finished its half; finish ours so the connection tears
    // down fully instead of lingering in CLOSE_WAIT.
    if (ctx->socket != nullptr) ctx->socket->close();
  };
  cb.on_closed = [ctx] {
    if (ctx->result.complete == sim::SimTime::zero() && !ctx->result.failed) {
      ctx->result.failed = true;
      ctx->result.failure_reason = "connection terminated before response";
    }
    ctx->report();
  };

  tcp::TcpSocket& socket = stack_.connect(server, std::move(cb));
  ctx->socket = &socket;
  if (trace != nullptr) {
    const obs::SpanId flow_span = trace->begin_span(
        simulator.now(), "tcp.flow", "client", ctx->span);
    trace->add_arg(flow_span, "local_port",
                   obs::ArgValue::of(static_cast<std::int64_t>(
                       socket.flow().local.port)));
    socket.attach_trace(trace, flow_span);
  }
  // The GET is queued now and transmitted the instant the handshake
  // completes — like a browser writing into a connecting socket.
  http::HttpRequest req;
  req.target = target;
  req.set_header("Host", "search.example");
  req.set_header("Connection", "close");
  if (trace != nullptr) {
    req.set_header("X-Trace-Span", obs::span_id_header(ctx->span));
  }
  socket.send_text(req.serialize());
  // Half-close after the request: we have nothing more to send. The FE
  // still sends its full response (close-framed) afterwards.
}

void QueryClient::submit_repeated(net::Endpoint server,
                                  const search::Keyword& keyword,
                                  std::size_t count, sim::SimTime interval,
                                  Handler handler) {
  sim::Simulator& simulator = node_.simulator();
  for (std::size_t i = 0; i < count; ++i) {
    simulator.schedule_in(interval * static_cast<std::int64_t>(i),
                          [this, server, keyword, handler]() {
                            submit(server, keyword, handler);
                          });
  }
}

}  // namespace dyncdn::cdn

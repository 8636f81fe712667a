#include "dns/resolver.hpp"

#include <charconv>
#include <memory>

#include "obs/obs.hpp"

namespace dyncdn::dns {

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

DnsServer::DnsServer(net::Node& node, cdn::LoadModel service)
    : node_(node),
      stack_(node),
      service_(service),
      service_rng_(node.simulator().rng().stream(
          "dns/" + node.name() + "/service")) {
  // policy_ stays null by default: the serve path round-robins.
  stack_.listen(kDnsPort, [this](tcp::TcpSocket& s) { serve(s); });
}

void DnsServer::add_record(const std::string& name, net::Endpoint endpoint) {
  records_[name].push_back(endpoint);
}

void DnsServer::serve(tcp::TcpSocket& socket) {
  tcp::TcpSocket* sock = &socket;
  auto alive = std::make_shared<bool>(true);
  auto buffer = std::make_shared<std::string>();

  tcp::TcpSocket::Callbacks cb;
  cb.on_data = [this, sock, alive, buffer](net::PayloadRef d) {
    d.append_to(*buffer);
    const std::size_t eol = buffer->find('\n');
    if (eol == std::string::npos) return;
    const std::string line = buffer->substr(0, eol);
    buffer->erase(0, eol + 1);

    std::string reply = "NX\n";
    if (line.size() > 2 && line[0] == 'Q' && line[1] == ' ') {
      const std::string name = line.substr(2);
      auto it = records_.find(name);
      if (it != records_.end() && !it->second.empty()) {
        net::Endpoint chosen;
        if (policy_) {
          chosen = policy_(sock->flow().remote.node, it->second);
        } else {
          std::size_t& cursor = rr_cursor_[name];
          chosen = it->second[cursor % it->second.size()];
          ++cursor;
        }
        reply = "A " + std::to_string(chosen.node.value()) + " " +
                std::to_string(chosen.port) + "\n";
      }
    }
    ++queries_served_;

    // Resolver lookup latency, then answer and close.
    sim::Simulator& simulator = node_.simulator();
    const sim::SimTime delay =
        service_.draw(service_rng_, simulator.now(), 0);
    simulator.schedule_in(delay, [sock, alive, reply]() {
      if (!*alive) return;
      sock->send_text(reply);
      sock->close();
    });
  };
  cb.on_closed = [alive] { *alive = false; };
  socket.set_callbacks(std::move(cb));
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

DnsClient::DnsClient(tcp::TcpStack& stack, net::Endpoint server)
    : stack_(stack), server_(server) {}

void DnsClient::resolve(const std::string& name, Handler handler) {
  sim::Simulator& simulator = stack_.simulator();

  if (obs::TraceSession* trace = obs::active_trace(simulator)) {
    // Root span (footnote 1 of the paper: resolution is *not* part of the
    // per-query timeline, so it does not hang under a query span).
    const obs::SpanId span =
        trace->begin_span(simulator.now(), "dns.resolve", "dns");
    trace->add_arg(span, "name", obs::ArgValue::of(name));
    handler = [&simulator, trace, span,
               inner = std::move(handler)](const ResolveResult& r) {
      trace->add_arg(span, "failed",
                     obs::ArgValue::of(static_cast<std::int64_t>(r.failed)));
      trace->end_span(span, simulator.now());
      inner(r);
    };
  }

  if (cache_ttl_ > sim::SimTime::zero()) {
    auto it = cache_.find(name);
    if (it != cache_.end() && it->second.expires >= simulator.now()) {
      ++cache_hits_;
      ResolveResult r;
      r.failed = false;
      r.endpoint = it->second.endpoint;
      r.started = r.completed = simulator.now();
      handler(r);
      return;
    }
  }

  struct LookupCtx {
    ResolveResult result;
    Handler handler;
    std::string buffer;
    bool reported = false;

    void report() {
      if (reported) return;
      reported = true;
      handler(result);
    }
  };
  auto ctx = std::make_shared<LookupCtx>();
  ctx->result.started = simulator.now();
  ctx->handler = std::move(handler);
  ++lookups_sent_;

  tcp::TcpSocket::Callbacks cb;
  cb.on_data = [this, ctx, name, &simulator](net::PayloadRef d) {
    d.append_to(ctx->buffer);
    const std::size_t eol = ctx->buffer.find('\n');
    if (eol == std::string::npos) return;
    const std::string line = ctx->buffer.substr(0, eol);

    if (line.size() > 2 && line[0] == 'A' && line[1] == ' ') {
      std::uint32_t node_id = 0;
      unsigned port = 0;
      const char* p = line.c_str() + 2;
      const char* end = line.c_str() + line.size();
      auto r1 = std::from_chars(p, end, node_id);
      if (r1.ec == std::errc{} && r1.ptr < end) {
        auto r2 = std::from_chars(r1.ptr + 1, end, port);
        if (r2.ec == std::errc{}) {
          ctx->result.failed = false;
          ctx->result.endpoint =
              net::Endpoint{net::NodeId{node_id},
                            static_cast<net::Port>(port)};
        }
      }
      if (ctx->result.failed) ctx->result.error = "malformed answer";
    } else {
      ctx->result.error = "NXDOMAIN";
    }
    ctx->result.completed = simulator.now();
    if (!ctx->result.failed && cache_ttl_ > sim::SimTime::zero()) {
      cache_[name] = CacheEntry{ctx->result.endpoint,
                                simulator.now() + cache_ttl_};
    }
    ctx->report();
  };
  cb.on_closed = [ctx, &simulator] {
    if (!ctx->reported) {
      ctx->result.completed = simulator.now();
      if (ctx->result.error.empty()) {
        ctx->result.error = "connection closed before answer";
      }
      ctx->report();
    }
  };

  tcp::TcpSocket& socket = stack_.connect(server_, std::move(cb));
  socket.send_text("Q " + name + "\n");
}

}  // namespace dyncdn::dns

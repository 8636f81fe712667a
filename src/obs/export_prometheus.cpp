#include "obs/export_prometheus.hpp"

#include <cstdio>
#include <map>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace dyncdn::obs {

namespace {

using json::append_double;
using json::append_i64;
using json::append_u64;

// Metric-description table for `# HELP` lines, keyed by unprefixed name.
// Descriptions are one sentence, no trailing period, per common exposition
// style; unknown names simply get no HELP line.
const std::map<std::string_view, std::string_view>& help_table() {
  static const std::map<std::string_view, std::string_view> table = {
      {"net_packets_created", "Packets constructed by any node"},
      {"net_packets_routed", "Packets forwarded along a routed path"},
      {"net_no_route_drops", "Packets dropped for lack of a route"},
      {"link_packets_offered", "Packets offered to link queues"},
      {"link_packets_delivered", "Packets delivered across links"},
      {"link_bytes_delivered", "Payload bytes delivered across links"},
      {"link_drops_queue", "Packets dropped by full link queues"},
      {"link_drops_loss", "Packets dropped by random link loss"},
      {"link_packets_reordered", "Packets delivered out of order"},
      {"tcp_sockets_opened", "TCP sockets opened"},
      {"tcp_bytes_sent", "Application bytes sent over TCP"},
      {"tcp_bytes_received", "Application bytes received over TCP"},
      {"tcp_segments_sent", "TCP data segments transmitted"},
      {"tcp_retransmits_rto", "Retransmissions triggered by RTO expiry"},
      {"tcp_retransmits_fast", "Fast retransmissions (triple dupack)"},
      {"tcp_dupacks_received", "Duplicate ACKs received"},
      {"fe_queries_handled", "Queries handled by front-end servers"},
      {"fe_cache_hits", "Dynamic-result cache hits at front-ends"},
      {"fe_static_cache_hits", "Static-prefix cache hits at front-ends"},
      {"fe_backend_pool_peak", "Peak pooled FE-to-BE connections"},
      {"fe_fetch_queue_peak", "Peak depth of the FE fetch queue"},
      {"fe_active_requests_peak", "Peak concurrent requests at a front-end"},
      {"be_queries_served", "Queries served by the back-end data center"},
      {"be_queue_depth_peak", "Peak back-end processing queue depth"},
      {"queries_analyzed", "Query timelines analyzed end to end"},
      {"query_rtt_ms", "Client-FE handshake RTT in milliseconds"},
      {"query_t_static_ms", "T_static = t4 - t2 in milliseconds"},
      {"query_t_dynamic_ms", "T_dynamic = t5 - t2 in milliseconds"},
      {"query_t_delta_ms", "T_delta = t5 - t4 in milliseconds"},
      {"query_overall_ms", "Overall delay t5 - t1 in milliseconds"},
      {"sim_events_executed", "Events executed by the kernel"},
      {"sim_events_scheduled", "Events scheduled into the kernel"},
      {"sim_timer_cancels", "Timer events cancelled before firing"},
      {"sim_event_heap_peak", "Peak pending-event count in the kernel"},
      {"stream_timelines_online", "Timelines reduced online by streaming"},
      {"stream_late_packets", "Packets arriving after stream finalization"},
      {"capture_retained_bytes_peak", "Peak bytes retained by captures"},
      {"analyzer_bytes_peak", "Peak bytes held by the streaming analyzer"},
      {"analyzer_live_bytes_peak", "Peak live allocation during analysis"},
      {"attr_queries", "Queries decomposed by latency attribution"},
      {"attr_reconcile_failures",
       "Attribution sums that failed to telescope to T_dynamic"},
      {"attr_skipped", "Queries skipped by attribution (failed or partial)"},
      {"attr_dns_ms", "dns.resolve span duration in milliseconds"},
      {"attr_connect_ms", "Client-FE handshake (tb to SYN-ACK) ms"},
      {"attr_ack_ms", "GET-to-ACK time t2 - t1 in milliseconds"},
      {"attr_uplink_ms", "Request uplink t1 to FE receipt in milliseconds"},
      {"attr_fe_wait_ms", "FE wait from receipt to fetch issue in ms"},
      {"attr_fe_service_ms", "FE parse plus static service span in ms"},
      {"attr_fe_fetch_ms", "FE fetch issue to first BE byte in ms"},
      {"attr_delivery_ms", "First BE byte to t5 delivery in milliseconds"},
  };
  return table;
}

void append_help(std::string& out, const std::string& full,
                 const std::string& name) {
  const std::string_view help = metric_help(name);
  if (help.empty()) return;
  out += "# HELP " + full + " " + escape_help(help);
  out.push_back('\n');
}

}  // namespace

std::string_view metric_help(std::string_view name) {
  const auto& table = help_table();
  const auto it = table.find(name);
  return it == table.end() ? std::string_view{} : it->second;
}

std::string escape_help(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string escape_label_value(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '"') {
      out += "\\\"";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string export_prometheus(const MetricsRegistry& registry,
                              const std::string& prefix) {
  std::string out;
  for (const auto& [name, value] : registry.counters()) {
    const std::string full = prefix + name;
    append_help(out, full, name);
    out += "# TYPE " + full + " counter\n" + full + " ";
    append_u64(out, value);
    out.push_back('\n');
  }
  for (const auto& [name, value] : registry.gauges()) {
    const std::string full = prefix + name;
    append_help(out, full, name);
    out += "# TYPE " + full + " gauge\n" + full + " ";
    append_i64(out, value);
    out.push_back('\n');
  }
  for (const auto& [name, histogram] : registry.histograms()) {
    const std::string full = prefix + name;
    append_help(out, full, name);
    out += "# TYPE " + full + " histogram\n";
    const auto& bounds = Histogram::upper_bounds();
    const auto& buckets = histogram.bucket_counts();
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      cumulative += buckets[i];
      // Skip interior empty prefixes? No — Prometheus wants every bucket,
      // but 65 lines x N histograms is noisy; emit only buckets that
      // change the cumulative count, plus the mandatory +Inf line.
      const bool is_inf = i == buckets.size() - 1;
      if (buckets[i] == 0 && !is_inf) continue;
      out += full + "_bucket{le=\"";
      if (is_inf) {
        out += "+Inf";
      } else {
        append_double(out, bounds[i]);
      }
      out += "\"} ";
      append_u64(out, cumulative);
      out.push_back('\n');
    }
    out += full + "_sum ";
    append_double(out, histogram.sum());
    out.push_back('\n');
    out += full + "_count ";
    append_u64(out, histogram.count());
    out.push_back('\n');
  }
  return out;
}

bool write_prometheus(const MetricsRegistry& registry,
                      const std::string& path,
                      const std::string& prefix) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string body = export_prometheus(registry, prefix);
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) ==
                  body.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace dyncdn::obs

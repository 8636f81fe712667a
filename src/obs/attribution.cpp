#include "obs/attribution.hpp"

#include "obs/json.hpp"

namespace dyncdn::obs {

namespace {

using json::append_double;
using json::append_u64;

constexpr double kNsPerMs = 1e6;

}  // namespace

const std::vector<std::string>& QueryAttribution::component_names() {
  static const std::vector<std::string> names = {
      "attr_dns_ms",      "attr_connect_ms",  "attr_ack_ms",
      "attr_uplink_ms",   "attr_fe_wait_ms",  "attr_fe_service_ms",
      "attr_fe_fetch_ms", "attr_delivery_ms", "attr_t_dynamic_ms",
  };
  return names;
}

QueryAttribution::Decomposition QueryAttribution::decompose(const Sample& s) {
  // Collapse missing anchors onto their predecessor so the telescoping
  // sum is exact whether or not the FE-side spans exist (cache hits,
  // untraced FEs).
  const std::int64_t a0 = s.t1;
  const std::int64_t a1 = s.fe_recv >= 0 ? s.fe_recv : a0;
  const std::int64_t a2 = s.fetch_start >= 0 ? s.fetch_start : a1;
  const std::int64_t a3 = s.fetch_first_byte >= 0 ? s.fetch_first_byte : a2;
  Decomposition d;
  d.uplink = a1 - a0;
  d.fe_wait = a2 - a1;
  d.fe_fetch = a3 - a2;
  d.delivery = s.t5 - a3;
  d.ack = s.t2 - s.t1;
  return d;
}

bool QueryAttribution::observe(const Sample& s) {
  if (s.t1 < 0 || s.t2 < 0 || s.t5 < 0) {
    registry_.add("attr_skipped", 1);
    return false;
  }
  const Decomposition d = decompose(s);
  const std::int64_t t_dynamic = s.t5 - s.t2;

  const bool ordered = d.uplink >= 0 && d.fe_wait >= 0 && d.fe_fetch >= 0 &&
                       d.delivery >= 0 && d.ack >= 0 && t_dynamic >= 0;
  // Exact integer telescoping identity; a failure here means the span
  // events are inconsistent, not a rounding artifact.
  if (!ordered || d.telescoped() != t_dynamic) {
    registry_.add("attr_reconcile_failures", 1);
    return false;
  }

  registry_.add("attr_queries", 1);
  registry_.observe("attr_uplink_ms",
                    static_cast<double>(d.uplink) / kNsPerMs);
  registry_.observe("attr_fe_wait_ms",
                    static_cast<double>(d.fe_wait) / kNsPerMs);
  registry_.observe("attr_fe_fetch_ms",
                    static_cast<double>(d.fe_fetch) / kNsPerMs);
  registry_.observe("attr_delivery_ms",
                    static_cast<double>(d.delivery) / kNsPerMs);
  registry_.observe("attr_ack_ms", static_cast<double>(d.ack) / kNsPerMs);
  registry_.observe("attr_t_dynamic_ms",
                    static_cast<double>(t_dynamic) / kNsPerMs);
  if (s.tb >= 0 && s.t_synack >= s.tb) {
    registry_.observe("attr_connect_ms",
                      static_cast<double>(s.t_synack - s.tb) / kNsPerMs);
  }
  if (s.fe_service_ns >= 0) {
    registry_.observe("attr_fe_service_ms",
                      static_cast<double>(s.fe_service_ns) / kNsPerMs);
  }
  return true;
}

void QueryAttribution::observe_dns_ms(double ms) {
  registry_.observe("attr_dns_ms", ms);
}

std::string QueryAttribution::to_json() const {
  std::string out = "{\"queries\":";
  append_u64(out, queries());
  out += ",\"reconcile_failures\":";
  append_u64(out, reconcile_failures());
  out += ",\"skipped\":";
  append_u64(out, skipped());
  out += ",\"components\":{";
  bool first = true;
  // Every component appears even with zero samples (e.g. attr_dns_ms in a
  // fixed-FE campaign, which never resolves) so the schema is stable for
  // bench_diff and downstream parsers.
  for (const std::string& name : component_names()) {
    const Histogram* h = registry_.histogram(name);
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    out += name;
    out += "\":{\"count\":";
    append_u64(out, h != nullptr ? h->count() : 0);
    out += ",\"mean\":";
    append_double(out, h != nullptr && h->count()
                           ? h->sum() / static_cast<double>(h->count())
                           : 0.0);
    out += ",\"p50\":";
    append_double(out, h != nullptr ? h->quantile(0.50) : 0.0);
    out += ",\"p99\":";
    append_double(out, h != nullptr ? h->quantile(0.99) : 0.0);
    out += ",\"p999\":";
    append_double(out, h != nullptr ? h->quantile(0.999) : 0.0);
    out += ",\"min\":";
    append_double(out, h != nullptr ? h->min() : 0.0);
    out += ",\"max\":";
    append_double(out, h != nullptr ? h->max() : 0.0);
    out += "}";
  }
  out += "}}";
  return out;
}

}  // namespace dyncdn::obs

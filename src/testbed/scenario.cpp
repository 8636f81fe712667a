#include "testbed/scenario.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include "sim/parse.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace dyncdn::testbed {

namespace {

std::size_t resolve_capture_budget(std::size_t requested) {
  if (requested > 0) return requested;
  const char* env = std::getenv("DYNCDN_CAPTURE_BUDGET");
  if (env == nullptr) return 0;
  const auto v = sim::parse_byte_size(env);
  if (!v) {
    throw std::invalid_argument(
        std::string("DYNCDN_CAPTURE_BUDGET must be a byte count such as "
                    "65536 or 64k, got '") +
        env + "'");
  }
  return *v;
}

/// Fresh scenario-owned spill directory under the system temp dir. A
/// process-wide counter keeps concurrent scenarios (replica fleets, test
/// suites) from colliding.
std::string make_temp_spill_dir() {
  static std::atomic<std::uint64_t> counter{0};
  namespace fs = std::filesystem;
#if defined(__unix__) || defined(__APPLE__)
  const unsigned long pid = static_cast<unsigned long>(::getpid());
#else
  const unsigned long pid = 0;
#endif
  const fs::path dir =
      fs::temp_directory_path() /
      ("dyncdn-spill-" + std::to_string(pid) + "-" +
       std::to_string(counter.fetch_add(1)));
  fs::create_directories(dir);
  return dir.string();
}

/// The deterministic durable-trace counters: functions of each client's
/// captured record stream, so replica-additive and byte-identical at any
/// thread or shard count for a fixed budget.
void add_spill_counters(obs::MetricsRegistry& out,
                        const capture::SpillStats& spill) {
  out.add("spill_bytes_written", spill.bytes_written);
  out.add("spill_blocks", spill.blocks);
  out.add("spill_records", spill.records);
  out.add("spill_raw_bytes", spill.raw_bytes);
}

}  // namespace

net::GeoPoint sweep_fe_location(const cdn::ServiceProfile& profile,
                                double miles) {
  return {profile.be_location.lat_deg + miles / 69.0,
          profile.be_location.lon_deg};
}

Scenario::Scenario(ScenarioOptions options) : options_(std::move(options)) {
  if (options_.sim_shards > 1) {
    throw std::invalid_argument(
        "ScenarioOptions::sim_shards must be 0 or 1: a scenario runs on one "
        "event kernel, got " +
        std::to_string(options_.sim_shards));
  }
  capture_budget_ = resolve_capture_budget(options_.capture_budget);
  simulator_ = std::make_unique<sim::Simulator>(options_.seed);
  if (options_.enable_tracing) {
    trace_ = std::make_shared<obs::TraceSession>();
    simulator_->set_trace(trace_.get());
  }
  network_ = std::make_unique<net::Network>(*simulator_);
  content_ = std::make_unique<search::ContentModel>(options_.profile.content,
                                                    options_.profile.name);
  build_backend();
  build_frontends();
  build_clients();
  if (options_.ts_interval > sim::SimTime::zero()) {
    sampler_ = std::make_unique<obs::TimeSeriesSampler>(
        static_cast<std::uint64_t>(options_.ts_interval.ns()));
    ts_channels_.fe_fetch_queue = sampler_->channel("fe_fetch_queue");
    ts_channels_.fe_active_requests = sampler_->channel("fe_active_requests");
    ts_channels_.fe_backend_pool = sampler_->channel("fe_backend_pool");
    ts_channels_.be_queue_depth = sampler_->channel("be_queue_depth");
    ts_channels_.net_packets_in_flight =
        sampler_->channel("net_packets_in_flight");
    ts_channels_.link_packets_delivered =
        sampler_->channel("link_packets_delivered");
    ts_channels_.link_bytes_delivered =
        sampler_->channel("link_bytes_delivered");
    // Spill-progress channels are registered only when budgeted capture is
    // active, so sampled exports of every other configuration stay
    // byte-identical to previous releases. Like every channel they are
    // thread-invariant: flush points are a deterministic function of the
    // captured records, which are themselves thread-invariant.
    if (spilling_active()) {
      ts_channels_.capture_spill_bytes =
          sampler_->channel("capture_spill_bytes");
      ts_channels_.capture_spill_blocks =
          sampler_->channel("capture_spill_blocks");
    }
  }
}

Scenario::~Scenario() {
  if (spill_dir_.empty()) return;
  // Close the writers before removing the directory that holds their
  // files, then best-effort delete (teardown must not throw).
  for (Client& c : clients_) {
    if (c.recorder) c.recorder->set_spill(nullptr, 0);
    c.spill.reset();
  }
  std::error_code ec;
  std::filesystem::remove_all(spill_dir_, ec);
}

bool Scenario::spilling_active() const {
  return capture_budget_ > 0 && options_.capture_clients &&
         !options_.stream_analysis;
}

void Scenario::run() {
  if (!sampler_) {
    simulator_->run();
    return;
  }
  // Sampled run: advance tick by tick, snapshotting the fleet at every
  // tick boundary. Ticks are absolute (tick k = k * interval on the sim
  // clock), so series from consecutive runs and from different replicas
  // align by index. run_until parks coalesced delivery trains at the tick
  // instead of letting them ride past it, so every sample sees exactly
  // the state at its tick time.
  const std::uint64_t interval =
      static_cast<std::uint64_t>(options_.ts_interval.ns());
  std::uint64_t tick =
      static_cast<std::uint64_t>(simulator_->now().ns()) / interval + 1;
  while (simulator_->has_pending()) {
    simulator_->run_until(sim::SimTime::nanoseconds(
        static_cast<std::int64_t>(tick * interval)));
    take_sample(tick);
    ++tick;
  }
}

void Scenario::run_until(sim::SimTime deadline) {
  simulator_->run_until(deadline);
}

void Scenario::build_backend() {
  const cdn::ServiceProfile& p = options_.profile;
  be_node_ = &network_->add_node("be-" + p.be_site_name, p.be_location);
  cdn::BackendDataCenter::Config cfg;
  cfg.name = p.be_site_name;
  cfg.processing = p.processing;
  cfg.tcp = p.internal_tcp;
  backend_ = std::make_unique<cdn::BackendDataCenter>(*be_node_, *content_,
                                                      cfg);
}

void Scenario::build_frontends() {
  const cdn::ServiceProfile& p = options_.profile;

  struct Site {
    std::string name;
    net::GeoPoint location;
  };
  std::vector<Site> sites;

  if (options_.fe_distance_sweep_miles) {
    // Synthetic placement for fetch-factoring at the requested distances.
    const std::vector<double>& sweep = *options_.fe_distance_sweep_miles;
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      sites.push_back(
          Site{"sweep-" + std::to_string(i), sweep_fe_location(p, sweep[i])});
    }
  } else {
    // Metro-based placement: each metro hosts an FE with probability
    // `fe_metro_coverage` (Akamai ~ everywhere; Google ~ a third).
    sim::RngStream rng =
        simulator_->rng().stream("scenario/fe-metro-selection");
    const auto& metros = world_metros();
    for (const Metro& m : metros) {
      if (rng.uniform01() < p.fe_metro_coverage) {
        sites.push_back(Site{m.name, m.location});
      }
    }
    if (sites.empty()) {
      sites.push_back(Site{metros.front().name, metros.front().location});
    }
  }

  // Every FE serves with the same configuration but its name.
  cdn::FrontEndServer::Config cfg;
  cfg.backend = backend_->fetch_endpoint();
  cfg.service = p.fe_service;
  cfg.client_tcp = p.client_tcp;
  cfg.backend_tcp = p.internal_tcp;
  cfg.warm_backend_connection =
      options_.warm_backend_connection.value_or(p.warm_backend_connection);
  if (options_.relay_mode) cfg.relay_mode = *options_.relay_mode;
  if (options_.serve_static_immediately) {
    cfg.serve_static_immediately = *options_.serve_static_immediately;
  }
  if (options_.fe_cache_results) {
    cfg.cache_results = *options_.fe_cache_results;
  }
  if (options_.client_initial_cwnd) {
    cfg.client_tcp.initial_cwnd_segments = *options_.client_initial_cwnd;
  }
  fe_client_port_ = cfg.client_port;

  // A shared fleet warm-up leaves out the FEs not queried here.
  const FleetWarmup* fleet = options_.fleet_warmup.get();
  std::vector<bool> build(sites.size(), fleet == nullptr);
  if (fleet != nullptr) {
    if (fleet->fe_count != sites.size()) {
      throw std::logic_error(
          "fleet warm-up record holds " + std::to_string(fleet->fe_count) +
          " FEs, the scenario places " + std::to_string(sites.size()));
    }
    for (const std::size_t f : options_.queried_fes) build.at(f) = true;
  }

  fes_.reserve(sites.size());
  for (std::size_t f = 0; f < sites.size(); ++f) {
    FrontEnd& fe = fes_.emplace_back();
    fe.site_name = std::move(sites[f].name);
    fe.location = sites[f].location;
    fe.distance_to_be_miles = net::haversine_miles(fe.location, p.be_location);
    if (!build[f]) {
      // Only the node id, so the nodes after it keep the fleet's ids.
      network_->reserve_node_id();
      continue;
    }
    fe.node = &network_->add_node("fe-" + fe.site_name, fe.location);

    // FE <-> BE path: geographic propagation over a well-provisioned (or,
    // for BingLike, public-internet) link.
    net::LinkConfig link;
    link.coalesce_deliveries = options_.link_coalescing;
    link.propagation_delay = net::propagation_delay(fe.location,
                                                    p.be_location);
    link.bandwidth_bps = p.fe_be_bandwidth_bps;
    if (p.fe_be_loss > 0.0) {
      const double loss = p.fe_be_loss;
      link.loss_factory = [loss] { return net::make_bernoulli_loss(loss); };
    }
    network_->connect(*fe.node, *be_node_, link);

    cfg.name = fe.node->name();
    fe.server =
        std::make_unique<cdn::FrontEndServer>(*fe.node, *content_, cfg);
  }
}

std::vector<VantagePoint> Scenario::generate_vantage_points() const {
  const cdn::ServiceProfile& p = options_.profile;
  std::vector<VantagePoint> vps;
  if (options_.fe_distance_sweep_miles) {
    // One client co-located with each sweep FE (low client RTT, so
    // T_dynamic approximates T_fetch, as §5 requires).
    for (std::size_t i = 0; i < fes_.size(); ++i) {
      VantagePoint vp;
      vp.name = "probe-" + std::to_string(i);
      vp.metro_index = 0;
      vp.location = {fes_[i].location.lat_deg + 0.02,
                     fes_[i].location.lon_deg};
      // Probe access latency follows the profile's lower bound so that
      // controlled sweeps can set the probe RTT exactly.
      vp.last_mile_one_way =
          sim::SimTime::from_milliseconds(p.last_mile_min_ms);
      vps.push_back(std::move(vp));
    }
  } else {
    VantagePointOptions vpo;
    vpo.count = options_.client_count;
    vpo.seed = options_.seed;
    vpo.last_mile_min_ms = p.last_mile_min_ms;
    vpo.last_mile_max_ms = p.last_mile_max_ms;
    vpo.residential_fraction = options_.residential_fraction;
    vpo.wireless_fraction = options_.wireless_fraction;
    vps = make_vantage_points(vpo);
  }
  return vps;
}

void Scenario::build_clients() {
  // A replica reads the fleet's vantage points from the shared record;
  // every client refers into the one list.
  const FleetWarmup* fleet = options_.fleet_warmup.get();
  if (fleet == nullptr) generated_vantage_points_ = generate_vantage_points();
  const std::vector<VantagePoint>& vps =
      fleet != nullptr ? fleet->vantage_points : generated_vantage_points_;

  tcp::TcpConfig client_tcp = options_.profile.client_tcp;
  if (options_.client_initial_cwnd) {
    client_tcp.initial_cwnd_segments = *options_.client_initial_cwnd;
  }

  std::vector<bool> driven(vps.size(), options_.driven_clients.empty());
  for (const std::size_t i : options_.driven_clients) driven.at(i) = true;

  clients_.reserve(vps.size());
  for (std::size_t i = 0; i < vps.size(); ++i) {
    Client& c = clients_.emplace_back(vps[i]);
    if (!driven[i]) {
      // Only the node id, so the nodes after it keep the fleet's ids.
      network_->reserve_node_id();
      continue;
    }

    c.default_fe = default_fe_for(i, vps[i]);
    c.node = &network_->add_node(vps[i].name, vps[i].location);

    if (options_.capture_clients) {
      capture::RecorderOptions ro;
      ro.capture_payloads = options_.capture_payloads;
      ro.retain_packets = !options_.stream_analysis;
      c.recorder = std::make_unique<capture::TraceRecorder>(
          *c.node, c.node->simulator(), ro);
      if (options_.stream_analysis) {
        c.analyzer =
            std::make_unique<analysis::StreamingAnalyzer>(fe_client_port_);
        c.recorder->set_sink(c.analyzer.get());
      }
      if (spilling_active()) {
        if (spill_dir_.empty()) spill_dir_ = make_temp_spill_dir();
        c.spill = std::make_unique<capture::SpillWriter>(
            spill_dir_ + "/" + c.vantage.name + ".dtrc", c.node->id());
        c.recorder->set_spill(c.spill.get(), capture_budget_);
      }
    }
    c.query_client = std::make_unique<cdn::QueryClient>(*c.node, client_tcp);
  }
}

std::size_t Scenario::default_fe_for(std::size_t client_index,
                                     const VantagePoint& vp) const {
  if (options_.fe_distance_sweep_miles) return client_index;
  // DNS emulation: default FE = geographically nearest site.
  std::size_t best = 0;
  double best_miles = std::numeric_limits<double>::max();
  for (std::size_t f = 0; f < fes_.size(); ++f) {
    const double miles = net::haversine_miles(vp.location, fes_[f].location);
    if (miles < best_miles) {
      best_miles = miles;
      best = f;
    }
  }
  return best;
}

net::LinkConfig Scenario::client_access_link(
    const VantagePoint& vp, const net::GeoPoint& fe_location) const {
  net::LinkConfig link;
  link.coalesce_deliveries = options_.link_coalescing;
  link.propagation_delay =
      net::propagation_delay(vp.location, fe_location) + vp.last_mile_one_way;
  link.bandwidth_bps = options_.profile.client_fe_bandwidth_bps;
  link.reorder_probability = options_.client_link_reorder;
  const double loss = options_.client_link_loss + vp.access_loss;
  if (loss > 0.0) {
    link.loss_factory = [loss] { return net::make_bernoulli_loss(loss); };
  }
  return link;
}

void Scenario::Client::require_driven() const {
  if (!driven()) {
    throw std::logic_error("vantage point " + vantage.name +
                           " is not driven by this scenario");
  }
}

void Scenario::FrontEnd::require_built() const {
  if (!built()) {
    throw std::logic_error("front-end " + site_name +
                           " is not built by this scenario");
  }
}

void Scenario::connect_client_to_fe(std::size_t client_index,
                                    std::size_t fe_index) {
  Client& c = clients_.at(client_index);
  c.require_driven();
  fes_.at(fe_index).require_built();
  const auto key = std::make_pair(client_index, fe_index);
  if (std::find(client_fe_links_.begin(), client_fe_links_.end(), key) !=
      client_fe_links_.end()) {
    return;
  }
  FrontEnd& fe = fes_.at(fe_index);
  network_->connect(*c.node, *fe.node,
                    client_access_link(c.vantage, fe.location));
  client_fe_links_.push_back(key);
}

net::Endpoint Scenario::default_fe_endpoint(std::size_t client_index) const {
  const Client& c = clients_.at(client_index);
  c.require_driven();
  return fe_endpoint(c.default_fe);
}

net::Endpoint Scenario::fe_endpoint(std::size_t fe_index) const {
  const FrontEnd& fe = fes_.at(fe_index);
  fe.require_built();
  return fe.server->client_endpoint();
}

sim::SimTime Scenario::client_fe_rtt(std::size_t client_index,
                                     std::size_t fe_index) const {
  const Client& c = clients_.at(client_index);
  const FrontEnd& fe = fes_.at(fe_index);
  const sim::SimTime one_way =
      net::propagation_delay(c.vantage.location, fe.location) +
      c.vantage.last_mile_one_way;
  return one_way * 2;
}

void Scenario::warm_up(sim::SimTime duration) {
  const FleetWarmup* fleet = options_.fleet_warmup.get();
  const sim::SimTime floor = simulator_->now() + duration;
  if (fleet == nullptr) {
    run_until(floor);
    simulator_->run();
  } else {
    // A replica runs to the fleet's end, where its own FEs, a subset of
    // the fleet's, must be quiet too.
    if (left_out_ || floor > fleet->deadline) {
      throw std::logic_error(
          "warm-up with its floor at " + floor.to_string() +
          " does not match the shared fleet warm-up, which ends at " +
          fleet->deadline.to_string() + " and is adopted once");
    }
    run_until(fleet->deadline);
    if (!simulator_->idle()) {
      throw std::logic_error(
          "an event is still pending where the shared fleet warm-up ends, " +
          fleet->deadline.to_string());
    }
  }
  // Recorders should not carry warm-up traffic into the analysis.
  for (Client& c : clients_) {
    if (c.recorder) c.recorder->clear();
  }
  if (fleet == nullptr) {
    warm_end_ = simulator_->now();
    return;
  }

  // Adopt the left-out FEs' warm-up: the fleet's counts minus this
  // scenario's own. The fleet's queue is empty at the deadline, so an FE
  // no query reaches never changes its counts again: adding them once to
  // every later export gives the full fleet's. Peaks are high-water marks
  // and merge by max.
  obs::MetricsRegistry own;
  collect_own_metrics(own);
  LeftOut left_out;
  for (const auto& [name, total] : fleet->totals.counters()) {
    const std::uint64_t mine = own.counter(name);
    if (mine > total) {
      throw std::logic_error("fleet warm-up record counts " +
                             std::to_string(total) + " " + name +
                             ", fewer than this scenario's " +
                             std::to_string(mine));
    }
    left_out.metrics.add(name, total - mine);
  }
  for (const auto& [name, peak] : fleet->totals.gauges()) {
    left_out.metrics.gauge_max(name, peak);
  }
  left_out.backend_pool = fleet->backend_pool - backend_pool_total();
  left_out.links = fleet->links;
  left_out.links -= network_->aggregate_link_stats();
  left_out_ = std::move(left_out);
}

void Scenario::require_fleet_adopted() const {
  if (options_.fleet_warmup && !left_out_) {
    throw std::logic_error(
        "a scenario sharing a fleet warm-up reports only after warm_up()");
  }
}

std::int64_t Scenario::backend_pool_total() const {
  std::int64_t pool = 0;
  for (const FrontEnd& fe : fes_) {
    if (fe.built()) {
      pool += static_cast<std::int64_t>(fe.server->backend_pool_size());
    }
  }
  return pool;
}

std::shared_ptr<const FleetWarmup> Scenario::fleet_record() {
  if (options_.fleet_warmup) return options_.fleet_warmup;
  if (!warm_end_) return nullptr;
  auto record = std::make_shared<FleetWarmup>();
  record->deadline = *warm_end_;
  record->fe_count = fes_.size();
  collect_own_metrics(record->totals);
  record->backend_pool = backend_pool_total();
  record->links = network_->aggregate_link_stats();
  record->vantage_points = generated_vantage_points_;
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    const Client& c = clients_[i];
    record->default_fe.push_back(c.driven() ? c.default_fe
                                            : default_fe_for(i, c.vantage));
  }
  return record;
}

void Scenario::collect_kernel_metrics(obs::MetricsRegistry& out) {
  // Event kernel. All counters are replica-additive: a sharded campaign
  // merging its replicas' registries reports fleet totals. They depend on
  // the replica layout (every replica re-runs the warm-ups of the FEs it
  // builds), which is why they are not part of collect_metrics.
  out.add("sim_events_executed", simulator_->events_executed());
  out.add("sim_events_scheduled", simulator_->events_scheduled());
  out.add("sim_timer_cancels", simulator_->events_cancelled());
  out.gauge_max("sim_event_heap_peak",
                static_cast<std::int64_t>(simulator_->max_heaped_entries()));

  // Wall-clock time inside durable-trace disk flushes (capture/spill.hpp).
  // Like the executor stats this is runtime telemetry; it lives here — not
  // in collect_metrics/collect_memory_metrics — so the byte-identical
  // experiment exports never see wall time.
  out.add("spill_flush_ns", spill_totals().flush_ns);
}

capture::SpillStats Scenario::spill_totals() const {
  capture::SpillStats total;
  for (const Client& c : clients_) {
    if (!c.spill) continue;
    const capture::SpillStats& s = c.spill->stats();
    total.bytes_written += s.bytes_written;
    total.blocks += s.blocks;
    total.records += s.records;
    total.raw_bytes += s.raw_bytes;
    total.flush_ns += s.flush_ns;
  }
  return total;
}

void Scenario::collect_metrics(obs::MetricsRegistry& out) {
  require_fleet_adopted();
  collect_own_metrics(out);
  if (left_out_) out.merge(left_out_->metrics);
  // Runs without a budget keep the export of previous releases.
  if (spilling_active()) add_spill_counters(out, spill_totals());
}

void Scenario::collect_own_metrics(obs::MetricsRegistry& out) {
  // Network layer.
  out.add("net_packets_created", network_->packets_created());
  out.add("net_packets_routed", network_->packets_routed());
  out.add("net_no_route_drops", network_->no_route_drops());
  const net::LinkStats links = network_->aggregate_link_stats();
  out.add("link_packets_offered", links.packets_offered);
  out.add("link_packets_delivered", links.packets_delivered);
  out.add("link_drops_loss", links.drops_loss);
  out.add("link_drops_queue", links.drops_queue);
  out.add("link_packets_reordered", links.packets_reordered);
  out.add("link_bytes_delivered", links.bytes_delivered);

  // TCP: every stack in the testbed (clients + FE fleet + BE).
  tcp::SocketStats tcp_totals;
  std::uint64_t sockets_opened = 0;
  const auto fold = [&](tcp::TcpStack& stack) {
    const tcp::SocketStats s = stack.aggregate_stats();
    tcp_totals.bytes_sent += s.bytes_sent;
    tcp_totals.bytes_received += s.bytes_received;
    tcp_totals.segments_sent += s.segments_sent;
    tcp_totals.retransmits_rto += s.retransmits_rto;
    tcp_totals.retransmits_fast += s.retransmits_fast;
    tcp_totals.dupacks_received += s.dupacks_received;
    sockets_opened += stack.sockets_opened();
  };
  for (Client& c : clients_) {
    if (c.driven()) fold(c.query_client->stack());
  }
  for (FrontEnd& fe : fes_) {
    if (fe.built()) fold(fe.server->stack());
  }
  fold(backend_->stack());
  out.add("tcp_sockets_opened", sockets_opened);
  out.add("tcp_bytes_sent", tcp_totals.bytes_sent);
  out.add("tcp_bytes_received", tcp_totals.bytes_received);
  out.add("tcp_segments_sent", tcp_totals.segments_sent);
  out.add("tcp_retransmits_rto", tcp_totals.retransmits_rto);
  out.add("tcp_retransmits_fast", tcp_totals.retransmits_fast);
  out.add("tcp_dupacks_received", tcp_totals.dupacks_received);

  // Front-end fleet.
  std::uint64_t fe_handled = 0, fe_cache_hits = 0, fe_static_hits = 0;
  std::int64_t be_pool_peak = 0, fetch_queue_peak = 0,
               active_requests_peak = 0;
  for (FrontEnd& fe : fes_) {
    if (!fe.built()) continue;
    fe_handled += fe.server->queries_handled();
    fe_cache_hits += fe.server->cache_hits();
    fe_static_hits += fe.server->static_cache_hits();
    be_pool_peak =
        std::max(be_pool_peak,
                 static_cast<std::int64_t>(fe.server->backend_pool_peak()));
    fetch_queue_peak =
        std::max(fetch_queue_peak,
                 static_cast<std::int64_t>(fe.server->fetch_queue_peak()));
    active_requests_peak = std::max(
        active_requests_peak,
        static_cast<std::int64_t>(fe.server->active_requests_peak()));
  }
  out.add("fe_queries_handled", fe_handled);
  // Static-portion hits (role 1, always operating) plus dynamic
  // result-cache hits (the off-by-default counterfactual). The static
  // component is what makes this nonzero in every default experiment.
  out.add("fe_cache_hits", fe_cache_hits + fe_static_hits);
  out.add("fe_static_cache_hits", fe_static_hits);
  out.gauge_max("fe_backend_pool_peak", be_pool_peak);
  out.gauge_max("fe_fetch_queue_peak", fetch_queue_peak);
  out.gauge_max("fe_active_requests_peak", active_requests_peak);

  // Back-end data center.
  out.add("be_queries_served", backend_->queries_served());
  out.gauge_max("be_queue_depth_peak",
                static_cast<std::int64_t>(backend_->active_queries_peak()));
}

void Scenario::take_sample(std::uint64_t tick) {
  obs::TimeSeriesSampler& ts = *sampler_;
  ts.begin_tick(tick);

  // Every channel is derived purely from simulation state at the tick,
  // so byte-identical at any thread/shard count. FEs a shared fleet
  // warm-up left out have no queue or request, and hold their pools and
  // link counts from the end of the warm-up.
  require_fleet_adopted();
  std::int64_t fetch_queue = 0, active = 0, pool = 0;
  net::LinkStats links = network_->aggregate_link_stats();
  if (left_out_) {
    pool = left_out_->backend_pool;
    links += left_out_->links;
  }
  for (FrontEnd& fe : fes_) {
    if (!fe.built()) continue;
    fetch_queue += static_cast<std::int64_t>(fe.server->fetch_queue_depth());
    active += static_cast<std::int64_t>(fe.server->active_requests());
    pool += static_cast<std::int64_t>(fe.server->backend_pool_size());
  }
  ts.record(ts_channels_.fe_fetch_queue, static_cast<double>(fetch_queue));
  ts.record(ts_channels_.fe_active_requests, static_cast<double>(active));
  ts.record(ts_channels_.fe_backend_pool, static_cast<double>(pool));
  ts.record(ts_channels_.be_queue_depth,
            static_cast<double>(backend_->active_queries()));

  ts.record(ts_channels_.net_packets_in_flight,
            static_cast<double>(links.in_flight()));
  ts.record_cumulative(ts_channels_.link_packets_delivered,
                       static_cast<double>(links.packets_delivered));
  ts.record_cumulative(ts_channels_.link_bytes_delivered,
                       static_cast<double>(links.bytes_delivered));

  // Spill progress (only registered under budgeted capture). Cumulative
  // writer stats never reset — on_clear keeps counting — so the per-tick
  // deltas recorded here stay non-negative.
  if (spilling_active()) {
    const capture::SpillStats spill = spill_totals();
    ts.record_cumulative(ts_channels_.capture_spill_bytes,
                         static_cast<double>(spill.bytes_written));
    ts.record_cumulative(ts_channels_.capture_spill_blocks,
                         static_cast<double>(spill.blocks));
  }
  ts.end_tick();
}

obs::TimeSeriesSampler Scenario::take_timeseries() {
  if (!sampler_) return obs::TimeSeriesSampler{};
  obs::TimeSeriesSampler out = std::move(*sampler_);
  *sampler_ = obs::TimeSeriesSampler(
      static_cast<std::uint64_t>(options_.ts_interval.ns()));
  return out;
}

void Scenario::set_stream_boundary(std::size_t boundary) {
  if (!options_.stream_analysis) return;
  for (Client& c : clients_) {
    if (c.analyzer) c.analyzer->set_boundary(boundary);
  }
}

void Scenario::collect_memory_metrics(obs::MetricsRegistry& out) {
  // Deterministic byte accounting, independent of allocator and thread
  // count. Gauges are per-scenario peaks (merge rule: max across
  // replicas); counters are replica-additive.
  std::int64_t retained_peak = 0, analyzer_peak = 0;
  std::uint64_t emitted = 0, late = 0;
  for (Client& c : clients_) {
    if (c.recorder) {
      retained_peak += static_cast<std::int64_t>(
          c.recorder->peak_retained_bytes());
    }
    if (c.analyzer) {
      analyzer_peak += static_cast<std::int64_t>(c.analyzer->peak_live_bytes());
      emitted += c.analyzer->timelines_emitted_online();
      late += c.analyzer->late_packets();
    }
  }
  out.gauge_max("capture_retained_bytes_peak", retained_peak);
  out.gauge_max("analyzer_live_bytes_peak", analyzer_peak);
  out.add("stream_timelines_online", emitted);
  out.add("stream_late_packets", late);
  const capture::SpillStats spill = spill_totals();
  add_spill_counters(out, spill);
  // The compression gauge is the ratio of the spill counters (merge rule:
  // max across replicas, so it is informational rather than
  // layout-invariant like the counters themselves).
  if (spill.bytes_written != 0) {
    out.gauge_max("spill_compression_x",
                  static_cast<std::int64_t>(spill.raw_bytes /
                                            spill.bytes_written));
  }
}

}  // namespace dyncdn::testbed

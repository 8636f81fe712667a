// Scenario: wires a full measurement testbed for one service profile —
// back-end data center, front-end fleet, vantage-point clients, capture
// taps — on top of the simulator. Experiment runners (experiment.hpp)
// drive queries through it and hand traces to the analysis pipeline.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analysis/streaming.hpp"
#include "capture/recorder.hpp"
#include "capture/spill.hpp"
#include "cdn/backend.hpp"
#include "cdn/client.hpp"
#include "cdn/deployment.hpp"
#include "cdn/frontend.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "search/content_model.hpp"
#include "sim/simulator.hpp"
#include "testbed/planetlab.hpp"

namespace dyncdn::testbed {

struct ScenarioOptions {
  cdn::ServiceProfile profile;
  std::size_t client_count = 60;
  std::uint64_t seed = 1;

  /// Vantage points this scenario drives (indices into the fleet; empty =
  /// all). Every other vantage point gets only its net::Node, so node ids,
  /// packet ids and link names match the full fleet: no default-FE search,
  /// access link, QueryClient, recorder, analyzer or spill writer. A
  /// replica (parallel_experiment.hpp) lists its group plus client 0, the
  /// boundary probe; the BE, the FE fleet and their warm-ups stay whole.
  std::vector<std::size_t> driven_clients;

  /// Capture packets at client nodes. Payload retention is needed only for
  /// content-boundary discovery; large sweeps keep it off to bound memory.
  bool capture_clients = true;
  bool capture_payloads = false;

  /// Per-client capture byte budget (capture/spill.hpp). When > 0 and the
  /// scenario retains packets, each client recorder gets a SpillWriter;
  /// once its buffer's retained_bytes reaches the budget the buffer
  /// streams to a .dtrc file and resets, so capture memory stays bounded
  /// while analysis still sees the complete trace (recorder replay()).
  /// 0 = DYNCDN_CAPTURE_BUDGET if set, else unlimited (no spilling).
  std::size_t capture_budget = 0;
  /// Directory for the per-client spill files. Empty = a scenario-owned
  /// temp directory, removed on destruction. Non-empty directories are
  /// created if needed and left in place (the durable-trace workflow).
  std::string spill_dir;

  /// Streaming analysis: attach a StreamingAnalyzer to every client
  /// recorder and stop retaining PacketRecords — flows are reduced to
  /// QueryTimelines online, so campaign memory is O(in-flight flows)
  /// instead of O(total packets). Capture mode (false) retains the packets
  /// and replays them through the same reducer afterwards. Live streaming
  /// collapses a flow at teardown, a replay at drain(); the two agree
  /// unless the analyzers report late_packets() (lossy or reordering
  /// paths, see analysis/streaming.hpp). In streaming mode boundary
  /// discovery probes live, with retention still off.
  bool stream_analysis = false;

  /// Instead of metro-based FE placement, place FE sites at these exact
  /// distances (miles) from the BE, each with one co-located client
  /// (used by the Fig. 9 fetch-factoring bench).
  std::optional<std::vector<double>> fe_distance_sweep_miles;

  /// Per-packet loss on client access links (both directions): the §6
  /// lossy-last-hop (wireless) regime. 0 = clean, like the paper's wired
  /// PlanetLab measurements.
  double client_link_loss = 0.0;

  /// Per-packet probability that a client access link delays a packet by
  /// net::LinkConfig::reorder_extra_delay so later packets overtake it —
  /// multipath-style reordering on the last mile (both directions).
  double client_link_reorder = 0.0;

  /// Deprecated and read only to validate it: a scenario always runs on
  /// one event kernel on one thread. 0 or 1 is accepted; anything else
  /// throws std::invalid_argument. Campaign parallelism is across
  /// vantage-point replicas (parallel_experiment.hpp).
  std::size_t sim_shards = 0;

  /// Fractions of vantage points on residential-DSL and wireless access
  /// (reviewer #5's critique: PlanetLab's campus bias understates real
  /// last-mile latency). Remainder are campus nodes. Residential nodes add
  /// DSL-interleaving latency; wireless nodes add latency plus loss.
  double residential_fraction = 0.0;
  double wireless_fraction = 0.0;

  /// Query-timeline tracing (obs::TraceSession attached to the simulator).
  /// Off by default: tracing adds an X-Trace-Span header to requests, so a
  /// traced run is internally consistent but not byte-identical with an
  /// untraced one.
  bool enable_tracing = false;

  /// Sim-time metric sampling (obs::TimeSeriesSampler). When > 0, run()
  /// advances in `ts_interval` steps and snapshots queue depths /
  /// in-flight work at every tick boundary. Each tick advance is a
  /// Simulator::run_until, so coalesced delivery trains stop at the tick
  /// and the channels are byte-identical at any thread or
  /// replica-shard count; a sampled run's final clock is rounded up to a
  /// tick boundary, so — like tracing — a sampled run is deterministic but
  /// not byte-identical to an unsampled one. zero() = off.
  sim::SimTime ts_interval = sim::SimTime::zero();
  /// Bound on retained ticks (oldest evicted first).
  std::size_t ts_max_samples = 4096;

  /// Batch contiguous link deliveries behind single kernel events
  /// (net::LinkConfig::coalesce_deliveries) on every link. Results are
  /// byte-identical either way — the switch exists so the coalescing
  /// equivalence test can compare both paths on a full scenario.
  bool link_coalescing = true;

  /// FrontEnd config overrides applied to every FE (ablations).
  std::optional<cdn::FrontEndServer::RelayMode> relay_mode;
  std::optional<bool> warm_backend_connection;
  std::optional<bool> serve_static_immediately;
  std::optional<bool> fe_cache_results;
  std::optional<std::size_t> client_initial_cwnd;  // client<->FE IW ablation
};

class Scenario {
 public:
  explicit Scenario(ScenarioOptions options);
  ~Scenario();

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  struct Client {
    VantagePoint vantage;
    net::Node* node = nullptr;
    std::unique_ptr<cdn::QueryClient> query_client;
    std::unique_ptr<capture::TraceRecorder> recorder;
    /// Online timeline reduction (ScenarioOptions::stream_analysis); wired
    /// as the recorder's PacketSink.
    std::unique_ptr<analysis::StreamingAnalyzer> analyzer;
    /// Durable overflow target (ScenarioOptions::capture_budget); wired as
    /// the recorder's spill writer.
    std::unique_ptr<capture::SpillWriter> spill;
    std::size_t default_fe = 0;  // index into fes(); driven clients only

    /// False outside ScenarioOptions::driven_clients: only `vantage` and
    /// `node` are set.
    bool driven() const { return query_client != nullptr; }
    /// Throws std::logic_error unless driven().
    void require_driven() const;
  };

  struct FrontEnd {
    std::string site_name;
    net::GeoPoint location;
    net::Node* node = nullptr;
    std::unique_ptr<cdn::FrontEndServer> server;
    double distance_to_be_miles = 0;
  };

  sim::Simulator& simulator() { return *simulator_; }
  net::Network& network() { return *network_; }
  const cdn::ServiceProfile& profile() const { return options_.profile; }
  const search::ContentModel& content() const { return *content_; }

  std::vector<Client>& clients() { return clients_; }
  std::vector<FrontEnd>& fes() { return fes_; }
  cdn::BackendDataCenter& backend() { return *backend_; }

  /// DNS emulation: the endpoint of client i's default (nearest) FE.
  /// Throws std::logic_error for a client that is not driven.
  net::Endpoint default_fe_endpoint(std::size_t client_index) const;
  net::Endpoint fe_endpoint(std::size_t fe_index) const;
  /// One-way client<->FE propagation path RTT estimate (for sanity checks;
  /// analysis derives RTT from handshakes, not from here).
  sim::SimTime client_fe_rtt(std::size_t client_index,
                             std::size_t fe_index) const;

  /// Ensure a direct link exists between client i and FE j (Datasets B:
  /// querying a fixed, possibly non-default FE). Throws std::logic_error
  /// for a client that is not driven.
  void connect_client_to_fe(std::size_t client_index, std::size_t fe_index);

  /// Run the simulation until the FE fleet's persistent BE connections are
  /// established and warmed. Call before submitting measured queries.
  void warm_up(sim::SimTime duration = sim::SimTime::seconds(5));

  /// Execute pending events until the queue drains / until `deadline`
  /// (which then becomes the clock).
  void run();
  void run_until(sim::SimTime deadline);

  /// Tracing session (null unless ScenarioOptions::enable_tracing).
  obs::TraceSession* trace() { return trace_.get(); }
  std::shared_ptr<obs::TraceSession> shared_trace() { return trace_; }

  /// Snapshot the testbed's operational counters into `out` (network, TCP
  /// stacks, FE/BE servers). Purely additive: callers can merge registries
  /// across replicas. Every counter here is invariant under the replica
  /// layout; the kernel-level counters that depend on it live in
  /// collect_kernel_metrics.
  void collect_metrics(obs::MetricsRegistry& out);

  /// Event-kernel introspection (events executed/scheduled, heap peak) and
  /// spill flush wall time. Kept out of collect_metrics because event
  /// counts depend on the replica layout (each replica re-runs the FE
  /// warm-ups and the boundary probe), and experiment exports must stay
  /// byte-identical at any shard count.
  void collect_kernel_metrics(obs::MetricsRegistry& out);

  /// Time-series sampler (null unless ScenarioOptions::ts_interval > 0).
  obs::TimeSeriesSampler* timeseries() { return sampler_.get(); }
  /// Move the sampled series out (empty sampler when sampling is off).
  /// Call after the final run; the scenario's sampler is left drained.
  obs::TimeSeriesSampler take_timeseries();

  /// True when clients reduce flows online (ScenarioOptions::stream_analysis).
  bool streaming() const { return options_.stream_analysis; }

  /// Resolved per-client capture budget (0 = unlimited / spilling off).
  std::size_t capture_budget() const { return capture_budget_; }
  /// True when budgeted spill-to-disk capture is wired (budget > 0 and the
  /// scenario retains packets at clients).
  bool spilling_active() const;
  /// Directory holding the per-client spill files ("" when spilling is off).
  const std::string& spill_dir() const { return spill_dir_; }

  /// Propagate a discovered static/dynamic boundary to every client
  /// analyzer, enabling online timeline emission (flows collapse at
  /// teardown instead of buffering until drain). No-op when the scenario
  /// is not streaming.
  void set_stream_boundary(std::size_t boundary);

  /// Deterministic memory accounting (capture retention and analyzer
  /// live-state peaks, online-emission counters). Kept separate from
  /// collect_metrics so experiment exports stay byte-identical between
  /// streaming and capture modes — these gauges intentionally differ.
  void collect_memory_metrics(obs::MetricsRegistry& out);

  /// Deterministic durable-trace counters (spill_bytes_written /
  /// spill_blocks / spill_records / spill_raw_bytes). Each client spills
  /// off its own deterministic packet stream, so — unlike the rest of
  /// collect_memory_metrics — these merge byte-identically at any
  /// thread/shard count; budgeted experiment runs fold them into the main
  /// metrics registry (and thus the Prometheus export). `client_indices`
  /// restricts the sum to the listed vantage points (empty = all):
  /// sharded campaigns pass their subset so boundary discovery — which
  /// every replica re-runs from client 0 — is counted exactly once
  /// fleet-wide, by the replica that owns client 0.
  void collect_spill_metrics(obs::MetricsRegistry& out,
                             std::span<const std::size_t> client_indices = {});

 private:
  void build_backend();
  void build_frontends();
  void build_clients();
  void take_sample(std::uint64_t tick);
  net::LinkConfig client_access_link(const VantagePoint& vp,
                                     const net::GeoPoint& fe_location) const;

  ScenarioOptions options_;
  std::size_t capture_budget_ = 0;
  std::string spill_dir_;
  bool owns_spill_dir_ = false;
  std::shared_ptr<obs::TraceSession> trace_;
  std::unique_ptr<sim::Simulator> simulator_;
  std::unique_ptr<obs::TimeSeriesSampler> sampler_;
  /// Interned sampler channels, resolved once at construction so the
  /// per-tick hot path never touches the string-keyed channel map.
  struct TsChannels {
    obs::TimeSeriesSampler::ChannelRef fe_fetch_queue;
    obs::TimeSeriesSampler::ChannelRef fe_active_requests;
    obs::TimeSeriesSampler::ChannelRef fe_backend_pool;
    obs::TimeSeriesSampler::ChannelRef be_queue_depth;
    obs::TimeSeriesSampler::ChannelRef net_packets_in_flight;
    obs::TimeSeriesSampler::ChannelRef link_packets_delivered;
    obs::TimeSeriesSampler::ChannelRef link_bytes_delivered;
    obs::TimeSeriesSampler::ChannelRef capture_spill_bytes;
    obs::TimeSeriesSampler::ChannelRef capture_spill_blocks;
  } ts_channels_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<search::ContentModel> content_;
  std::unique_ptr<cdn::BackendDataCenter> backend_;
  net::Node* be_node_ = nullptr;
  std::vector<FrontEnd> fes_;
  std::vector<Client> clients_;
  /// (client, fe) pairs already linked.
  std::vector<std::pair<std::size_t, std::size_t>> client_fe_links_;
};

}  // namespace dyncdn::testbed

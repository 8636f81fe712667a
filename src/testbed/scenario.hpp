// Scenario: wires a full measurement testbed for one service profile —
// back-end data center, front-end fleet, vantage-point clients, capture
// taps — on top of the simulator. Experiment runners (experiment.hpp)
// drive queries through it and hand traces to the analysis pipeline.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
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

/// One fleet's warm-up, recorded from a scenario that builds every FE
/// (Scenario::fleet_record), and read by every replica of a multi-replica
/// plan (parallel_experiment.hpp) and by the boundary probe's scenario
/// (experiment.hpp). Each FE warms its BE
/// connection over its own FE<->BE path, with no RNG draw and no vantage
/// point involved, so every replica would re-simulate the same warm-ups.
/// With the record, a scenario simulates only the FEs it queries, and
/// takes the rest of the fleet's warm-up counts from here. The warm-up
/// ends with an empty event queue, so no FE changes its counts after the
/// deadline unless queried.
struct FleetWarmup {
  /// Sim time at the end of the warm-up, which starts at time 0: the
  /// later of warm_up()'s floor and the fleet's last warm-up event.
  sim::SimTime deadline;
  /// FEs the fleet places.
  std::size_t fe_count = 0;
  /// The fleet's vantage points, which a replica reads instead of
  /// generating them again, and the FE that DNS names for each.
  std::vector<VantagePoint> vantage_points;
  std::vector<std::size_t> default_fe;
  /// The whole fleet's collect_metrics at the deadline.
  obs::MetricsRegistry totals;
  /// The whole fleet's summed BE-pool size and link counters at the
  /// deadline: what the time-series sampler reads.
  std::int64_t backend_pool = 0;
  net::LinkStats links;
};

struct ScenarioOptions {
  cdn::ServiceProfile profile;
  std::size_t client_count = 60;
  std::uint64_t seed = 1;

  /// Vantage points this scenario drives (indices into the fleet; empty =
  /// all). Every other vantage point gets only its node id
  /// (net::Network::reserve_node_id), so the nodes the scenario builds
  /// keep the full fleet's node ids, packet ids and link names: no
  /// net::Node, default-FE search, access link, QueryClient, recorder,
  /// analyzer or spill writer. A replica (parallel_experiment.hpp) lists
  /// its group only, and a probe scenario (experiment.hpp) its probing
  /// client only. Which FEs it builds is up to fleet_warmup.
  std::vector<std::size_t> driven_clients;

  /// A campaign's shared fleet warm-up and the FEs this scenario queries
  /// (null = build every FE). When set, only the FEs in `queried_fes` get
  /// a node, a server and FE<->BE links; every other FE keeps only its
  /// node id, so the built nodes' ids, names and link RNG streams match
  /// the full fleet. warm_up() ends at the record's deadline; from then on
  /// collect_metrics and the time series add the record's counts for the
  /// FEs left out. Set by the replica runner of multi-replica plans
  /// (parallel_experiment.hpp) and the boundary probe (experiment.hpp).
  std::shared_ptr<const FleetWarmup> fleet_warmup;
  std::vector<std::size_t> queried_fes;

  /// Capture packets at client nodes. Payload bytes are needed only to save
  /// them (the boundary probe captures them in a scenario of its own);
  /// large sweeps keep them off to bound memory.
  bool capture_clients = true;
  bool capture_payloads = false;

  /// Per-client capture byte budget (capture/spill.hpp). When > 0 and the
  /// scenario retains packets, each client recorder gets a SpillWriter;
  /// once its buffer's retained_bytes reaches the budget the buffer
  /// streams to a .dtrc file and resets, so capture memory stays bounded
  /// while analysis still sees the complete trace (recorder replay()).
  /// 0 = DYNCDN_CAPTURE_BUDGET if set, else unlimited (no spilling). The
  /// spill files live in a scenario-owned temp directory, removed on
  /// destruction.
  std::size_t capture_budget = 0;

  /// Streaming analysis: attach a StreamingAnalyzer to every client
  /// recorder and stop retaining PacketRecords — flows are reduced to
  /// QueryTimelines online, so campaign memory is O(in-flight flows)
  /// instead of O(total packets). Capture mode (false) retains the packets
  /// and replays them through the same reducer afterwards. Live streaming
  /// collapses a flow at teardown, a replay at drain(); the two agree
  /// unless the analyzers report late_packets() (lossy or reordering
  /// paths, see analysis/streaming.hpp).
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

/// Where a distance sweep (ScenarioOptions::fe_distance_sweep_miles)
/// places the FE `miles` from `profile`'s BE: due north of it, ~69 miles
/// per degree. Scenario::build_frontends places sweep FEs here.
net::GeoPoint sweep_fe_location(const cdn::ServiceProfile& profile,
                                double miles);

class Scenario {
 public:
  explicit Scenario(ScenarioOptions options);
  ~Scenario();

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  struct Client {
    explicit Client(const VantagePoint& vp) : vantage(vp) {}

    /// The scenario's entry in the fleet's vantage-point list, which it
    /// keeps once for every client, driven or not.
    const VantagePoint& vantage;
    net::Node* node = nullptr;  // driven clients only
    std::unique_ptr<cdn::QueryClient> query_client;
    std::unique_ptr<capture::TraceRecorder> recorder;
    /// Online timeline reduction (ScenarioOptions::stream_analysis); wired
    /// as the recorder's PacketSink.
    std::unique_ptr<analysis::StreamingAnalyzer> analyzer;
    /// Durable overflow target (ScenarioOptions::capture_budget); wired as
    /// the recorder's spill writer.
    std::unique_ptr<capture::SpillWriter> spill;
    std::size_t default_fe = 0;  // index into fes(); driven clients only

    /// False outside ScenarioOptions::driven_clients: only `vantage` is
    /// set, and the vantage point's node id is reserved with no node.
    bool driven() const { return query_client != nullptr; }
    /// Throws std::logic_error unless driven().
    void require_driven() const;
  };

  struct FrontEnd {
    std::string site_name;
    net::GeoPoint location;
    net::Node* node = nullptr;  // built FEs only
    std::unique_ptr<cdn::FrontEndServer> server;
    double distance_to_be_miles = 0;

    /// False for an FE a shared fleet warm-up left out
    /// (ScenarioOptions::fleet_warmup): `node` and `server` are null and
    /// the FE's node id is reserved with no node.
    bool built() const { return server != nullptr; }
    /// Throws std::logic_error unless built().
    void require_built() const;
  };

  /// The fleet warm-up this scenario starts from: the shared record it was
  /// built with (ScenarioOptions::fleet_warmup), else a record of its own
  /// warm-up taken at this call (null before warm_up()). Such a record
  /// holds the scenario's counts at the call, which are the warm-up's only
  /// right after warm_up(), where a campaign's probe pass takes it.
  std::shared_ptr<const FleetWarmup> fleet_record();

  const ScenarioOptions& options() const { return options_; }
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
  /// Throws std::logic_error for an FE that is not built.
  net::Endpoint fe_endpoint(std::size_t fe_index) const;
  /// One-way client<->FE propagation path RTT estimate (for sanity checks;
  /// analysis derives RTT from handshakes, not from here).
  sim::SimTime client_fe_rtt(std::size_t client_index,
                             std::size_t fe_index) const;

  /// Ensure a direct link exists between client i and FE j. A client has
  /// no link until it is linked here, so whatever sends from a client to
  /// an FE links them first (the experiment runners do). Throws
  /// std::logic_error for a client that is not driven or an FE that is not
  /// built.
  void connect_client_to_fe(std::size_t client_index, std::size_t fe_index);

  /// Run the simulation until the FE fleet's persistent BE connections are
  /// established and warmed: for `duration`, then on until the event
  /// queue is empty. Call before submitting measured queries. With a
  /// shared fleet warm-up, the one call runs to the record's deadline and
  /// adopts the record's counts for the FEs this scenario left out; it
  /// throws std::logic_error when called again, when `duration` passes the
  /// deadline, or when an event is still pending there.
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
  /// collect_kernel_metrics. FEs left out by a shared fleet warm-up count
  /// with their recorded warm-up, so the export is the full fleet's.
  void collect_metrics(obs::MetricsRegistry& out);

  /// Event-kernel introspection (events executed/scheduled, heap peak) and
  /// spill flush wall time. Kept out of collect_metrics because event
  /// counts depend on the replica layout (each replica re-runs the
  /// warm-ups of the FEs it builds), and experiment exports must stay
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
  /// metrics registry (and thus the Prometheus export).
  void collect_spill_metrics(obs::MetricsRegistry& out);

 private:
  void build_backend();
  void build_frontends();
  void build_clients();
  /// The fleet's vantage points: one per sweep FE, or the planned set.
  std::vector<VantagePoint> generate_vantage_points() const;
  /// The site DNS names for a vantage point: the nearest FE, or, in a
  /// distance sweep, the FE paired with probe `client_index`.
  std::size_t default_fe_for(std::size_t client_index,
                             const VantagePoint& vp) const;
  /// collect_metrics without the fleet record's counts.
  void collect_own_metrics(obs::MetricsRegistry& out);
  std::int64_t backend_pool_total() const;
  void take_sample(std::uint64_t tick);
  net::LinkConfig client_access_link(const VantagePoint& vp,
                                     const net::GeoPoint& fe_location) const;

  ScenarioOptions options_;
  /// The fleet's vantage points when no shared fleet warm-up holds them:
  /// Client::vantage refers into this list or the record's.
  std::vector<VantagePoint> generated_vantage_points_;
  std::size_t capture_budget_ = 0;
  /// The scenario-owned spill directory ("" until a client spills).
  std::string spill_dir_;
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
  /// Port every FE serves clients on (the per-client analyzers key on it).
  net::Port fe_client_port_ = 0;
  std::vector<Client> clients_;
  /// Counts of the FEs a shared fleet warm-up left out: the record minus
  /// this scenario's own counts at the deadline. Set by warm_up().
  struct LeftOut {
    obs::MetricsRegistry metrics;  // counters to add, gauges to max in
    std::int64_t backend_pool = 0;
    net::LinkStats links;
  };
  std::optional<LeftOut> left_out_;
  /// End of this scenario's own warm-up, for one that builds every FE.
  std::optional<sim::SimTime> warm_end_;
  /// Throws std::logic_error when a shared fleet warm-up is set but
  /// warm_up() has not adopted it yet.
  void require_fleet_adopted() const;
  /// (client, fe) pairs already linked.
  std::vector<std::pair<std::size_t, std::size_t>> client_fe_links_;
};

}  // namespace dyncdn::testbed

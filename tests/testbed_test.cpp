// Testbed + end-to-end integration tests: scenario construction, the full
// measurement pipeline, and validation of the paper's inference claims
// against simulator ground truth (which the analysis pipeline never sees).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>

#include "stats/descriptive.hpp"

#include "analysis/timeline.hpp"
#include "core/inference.hpp"
#include "obs/export_prometheus.hpp"
#include "search/keywords.hpp"
#include "testbed/experiment.hpp"
#include "testbed/parallel_experiment.hpp"
#include "testbed/planetlab.hpp"
#include "testbed/scenario.hpp"

namespace dyncdn::testbed {
namespace {

using sim::SimTime;
using namespace dyncdn::sim::literals;

ScenarioOptions small_options(cdn::ServiceProfile profile,
                              std::size_t clients = 12,
                              std::uint64_t seed = 11) {
  ScenarioOptions opt;
  opt.profile = std::move(profile);
  opt.client_count = clients;
  opt.seed = seed;
  opt.capture_clients = true;
  opt.capture_payloads = false;
  return opt;
}

ExperimentOptions small_experiment(std::size_t reps = 6) {
  ExperimentOptions eo;
  eo.reps_per_node = reps;
  eo.interval = 900_ms;
  search::KeywordCatalog catalog(5);
  eo.keywords = {catalog.figure3_keywords().front()};
  return eo;
}

TEST(Planetlab, VantagePointsAreDeterministicAndJittered) {
  const auto a = make_vantage_points(50, 9);
  const auto b = make_vantage_points(50, 9);
  ASSERT_EQ(a.size(), 50u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].location.lat_deg, b[i].location.lat_deg);
  }
  const auto c = make_vantage_points(50, 10);
  int same_metro = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].metro_index == c[i].metro_index) ++same_metro;
  }
  EXPECT_LT(same_metro, 40);
}

TEST(Planetlab, LastMileWithinBounds) {
  for (const auto& vp : make_vantage_points(100, 3, 1.0, 3.0)) {
    EXPECT_GE(vp.last_mile_one_way, SimTime::from_milliseconds(1.0));
    EXPECT_LE(vp.last_mile_one_way, SimTime::from_milliseconds(3.0));
    EXPECT_LT(vp.metro_index, world_metros().size());
  }
}

TEST(Planetlab, MetroWeightingBiasesTowardsCampusHeavyCities) {
  const auto vps = make_vantage_points(2000, 4);
  std::vector<int> counts(world_metros().size(), 0);
  for (const auto& vp : vps) ++counts[vp.metro_index];
  // Heaviest metro (weight 2.5) should clearly beat the lightest (0.4).
  int heavy = 0, light = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (world_metros()[i].weight >= 2.5) heavy += counts[i];
    if (world_metros()[i].weight <= 0.4) light += counts[i];
  }
  EXPECT_GT(heavy, 2 * light);
}

TEST(Planetlab, AccessMixFractionsApproximatelyRespected) {
  VantagePointOptions opt;
  opt.count = 2000;
  opt.seed = 12;
  opt.residential_fraction = 0.3;
  opt.wireless_fraction = 0.2;
  const auto vps = make_vantage_points(opt);
  std::size_t res = 0, wifi = 0;
  for (const auto& vp : vps) {
    if (vp.access == AccessType::kResidential) ++res;
    if (vp.access == AccessType::kWireless) ++wifi;
  }
  EXPECT_NEAR(static_cast<double>(res) / 2000.0, 0.3, 0.04);
  EXPECT_NEAR(static_cast<double>(wifi) / 2000.0, 0.2, 0.04);
}

TEST(Planetlab, ResidentialNodesHaveDslLatency) {
  VantagePointOptions opt;
  opt.count = 300;
  opt.seed = 13;
  opt.residential_fraction = 1.0;
  opt.dsl_extra_min_ms = 15.0;
  opt.dsl_extra_max_ms = 40.0;
  for (const auto& vp : make_vantage_points(opt)) {
    EXPECT_EQ(vp.access, AccessType::kResidential);
    // base 1-3ms + DSL 15-40ms
    EXPECT_GE(vp.last_mile_one_way, SimTime::from_milliseconds(16.0));
    EXPECT_LE(vp.last_mile_one_way, SimTime::from_milliseconds(43.0));
    EXPECT_EQ(vp.access_loss, 0.0);
  }
}

TEST(Planetlab, WirelessNodesHaveLoss) {
  VantagePointOptions opt;
  opt.count = 300;
  opt.seed = 14;
  opt.wireless_fraction = 1.0;
  for (const auto& vp : make_vantage_points(opt)) {
    EXPECT_EQ(vp.access, AccessType::kWireless);
    EXPECT_GT(vp.access_loss, 0.0);
    EXPECT_LE(vp.access_loss, 0.02 + 1e-9);
    EXPECT_NE(vp.name.find("wi-"), std::string::npos);
  }
}

TEST(Planetlab, CampusDefaultHasNoLossOrExtraLatency) {
  for (const auto& vp : make_vantage_points(100, 15)) {
    EXPECT_EQ(vp.access, AccessType::kCampus);
    EXPECT_EQ(vp.access_loss, 0.0);
    EXPECT_LE(vp.last_mile_one_way, SimTime::from_milliseconds(3.0));
  }
}

TEST(Scenario, WirelessVantagePointsGetLossyAccessLinks) {
  ScenarioOptions opt = small_options(cdn::bing_like_profile(), 30, 16);
  opt.wireless_fraction = 1.0;
  Scenario s(opt);
  s.warm_up();
  // A query from a wireless node must still complete (TCP recovers).
  auto& c = s.clients().front();
  s.connect_client_to_fe(0, c.default_fe);
  cdn::QueryResult result;
  c.query_client->submit(s.default_fe_endpoint(0),
                         search::Keyword{"wifi probe", {}, 100},
                         [&](const cdn::QueryResult& r) { result = r; });
  s.run();
  EXPECT_FALSE(result.failed) << result.failure_reason;
}

TEST(Scenario, SimShardsAboveOneIsRejected) {
  // sim_shards is deprecated: a scenario runs on one event kernel, so only
  // 0 and 1 are accepted.
  for (const std::size_t shards : {0u, 1u}) {
    ScenarioOptions opt = small_options(cdn::google_like_profile(), 2);
    opt.sim_shards = shards;
    EXPECT_NO_THROW(Scenario{opt}) << shards;
  }
  for (const std::size_t shards : {2u, 4u}) {
    ScenarioOptions opt = small_options(cdn::google_like_profile(), 2);
    opt.sim_shards = shards;
    EXPECT_THROW(Scenario{opt}, std::invalid_argument) << shards;
  }
}

TEST(Scenario, MalformedCaptureBudgetEnvIsRejected) {
  for (const char* bad : {"", "lots", "12x", "64kb", "-1", " 64k"}) {
    SCOPED_TRACE(std::string("DYNCDN_CAPTURE_BUDGET='") + bad + "'");
    setenv("DYNCDN_CAPTURE_BUDGET", bad, 1);
    try {
      const Scenario s(small_options(cdn::google_like_profile(), 2));
      ADD_FAILURE() << "accepted, budget " << s.capture_budget();
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("DYNCDN_CAPTURE_BUDGET"),
                std::string::npos)
          << e.what();
    }
  }
  setenv("DYNCDN_CAPTURE_BUDGET", "0", 1);  // well-formed: unlimited
  EXPECT_EQ(Scenario(small_options(cdn::google_like_profile(), 2))
                .capture_budget(),
            0u);
  unsetenv("DYNCDN_CAPTURE_BUDGET");
}

TEST(Scenario, BuildsFullTopology) {
  Scenario s(small_options(cdn::google_like_profile()));
  EXPECT_EQ(s.clients().size(), 12u);
  EXPECT_GT(s.fes().size(), 0u);
  EXPECT_LT(s.fes().size(), world_metros().size());  // sparse coverage
  for (const auto& c : s.clients()) {
    EXPECT_LT(c.default_fe, s.fes().size());
    EXPECT_NE(c.node, nullptr);
  }
}

TEST(Scenario, BingCoverageYieldsMoreFesAndLowerRtt) {
  Scenario google(small_options(cdn::google_like_profile(), 30, 2));
  Scenario bing(small_options(cdn::bing_like_profile(), 30, 2));
  EXPECT_GT(bing.fes().size(), google.fes().size());

  auto median_default_rtt = [](Scenario& s) {
    std::vector<double> rtts;
    for (std::size_t i = 0; i < s.clients().size(); ++i) {
      rtts.push_back(
          s.client_fe_rtt(i, s.clients()[i].default_fe).to_milliseconds());
    }
    std::nth_element(rtts.begin(), rtts.begin() + rtts.size() / 2,
                     rtts.end());
    return rtts[rtts.size() / 2];
  };
  EXPECT_LT(median_default_rtt(bing), median_default_rtt(google));
}

TEST(Scenario, DefaultFeIsNearest) {
  Scenario s(small_options(cdn::google_like_profile(), 20, 6));
  for (std::size_t i = 0; i < s.clients().size(); ++i) {
    const auto& c = s.clients()[i];
    const double chosen = net::haversine_miles(
        c.vantage.location, s.fes()[c.default_fe].location);
    for (const auto& fe : s.fes()) {
      EXPECT_LE(chosen,
                net::haversine_miles(c.vantage.location, fe.location) + 1e-6);
    }
  }
}

TEST(Scenario, WarmUpEstablishesBackendConnections) {
  Scenario s(small_options(cdn::google_like_profile(), 4, 3));
  s.warm_up();
  for (const auto& fe : s.fes()) {
    EXPECT_TRUE(fe.server->backend_connected());
  }
  for (const auto& c : s.clients()) {
    EXPECT_TRUE(c.recorder->trace().empty());  // warm-up traffic cleared
  }
}

TEST(Scenario, DistanceSweepPlacesFesAtRequestedDistances) {
  ScenarioOptions opt = small_options(cdn::google_like_profile());
  opt.fe_distance_sweep_miles = std::vector<double>{50, 150, 300};
  Scenario s(opt);
  ASSERT_EQ(s.fes().size(), 3u);
  ASSERT_EQ(s.clients().size(), 3u);
  EXPECT_NEAR(s.fes()[0].distance_to_be_miles, 50, 5);
  EXPECT_NEAR(s.fes()[1].distance_to_be_miles, 150, 10);
  EXPECT_NEAR(s.fes()[2].distance_to_be_miles, 300, 15);
}

TEST(Experiment, BoundaryDiscoveryFindsStaticPortion) {
  Scenario s(small_options(cdn::google_like_profile(), 4, 8));
  s.warm_up();
  const std::size_t boundary = discover_boundary(s, 0, 0);
  // The boundary must cover the HTTP head + full static prefix and stop
  // before keyword-dependent content.
  const std::size_t static_html = s.content().static_prefix().size();
  EXPECT_GE(boundary, static_html);
  EXPECT_LE(boundary, static_html + 256);  // head block is small
}

TEST(Experiment, DiscoverBoundaryLeavesTheScenarioUnchanged) {
  // The probe runs in a throw-away scenario of its own: the scenario it is
  // handed keeps its clock, exports, kernel counters, ground-truth logs,
  // spans and captures. Clients 0 and 1 have each queried once first, so
  // there is state to keep.
  ScenarioOptions opt = small_options(cdn::bing_like_profile(), 4, 23);
  opt.capture_payloads = true;
  opt.enable_tracing = true;
  Scenario s(opt);
  s.warm_up();
  auto& clients = s.clients();
  const search::Keyword kw = search::KeywordCatalog(5).figure3_keywords()[0];
  for (const std::size_t i : {0, 1}) {
    s.connect_client_to_fe(i, clients[i].default_fe);
    clients[i].query_client->submit(s.default_fe_endpoint(i), kw,
                                    [](const cdn::QueryResult&) {});
  }
  s.run();

  struct Snapshot {
    sim::SimTime now;
    std::string metrics;
    std::uint64_t events = 0;
    std::vector<std::size_t> fetches;
    std::size_t be_queries = 0;
    std::size_t spans = 0;
    std::vector<std::size_t> captured;
  };
  const auto snapshot = [&s, &clients] {
    Snapshot out;
    out.now = s.simulator().now();
    obs::MetricsRegistry metrics, kernel;
    s.collect_metrics(metrics);
    out.metrics = obs::export_prometheus(metrics);
    s.collect_kernel_metrics(kernel);
    out.events = kernel.counter("sim_events_executed");
    for (auto& fe : s.fes()) out.fetches.push_back(fe.server->fetch_log().size());
    out.be_queries = s.backend().query_log().size();
    out.spans = s.trace()->spans().size();
    for (auto& c : clients) out.captured.push_back(c.recorder->trace().size());
    return out;
  };
  const Snapshot before = snapshot();
  ASSERT_GT(before.captured[0], 0u);
  ASSERT_GT(before.spans, 0u);
  const std::size_t other_fe = (clients[0].default_fe + 1) % s.fes().size();
  for (const std::size_t fe : {clients[0].default_fe, other_fe}) {
    SCOPED_TRACE("probing FE " + std::to_string(fe));
    EXPECT_GT(discover_boundary(s, 0, fe), 0u);
    const Snapshot after = snapshot();
    EXPECT_EQ(after.now, before.now);
    EXPECT_EQ(after.metrics, before.metrics);
    EXPECT_EQ(after.events, before.events);
    EXPECT_EQ(after.fetches, before.fetches);
    EXPECT_EQ(after.be_queries, before.be_queries);
    EXPECT_EQ(after.spans, before.spans);
    EXPECT_EQ(after.captured, before.captured);
  }

  // Nothing to build the probe scenario from before the warm-up.
  Scenario cold(opt);
  EXPECT_THROW(discover_boundary(cold, 0, 0), std::logic_error);
}

TEST(Experiment, DiscoverBoundaryMatchesTheInPlaceProbe) {
  // The throw-away probe scenario finds the boundary the probe found when
  // it ran inside the scenario it was handed (9033 bytes for Google-like
  // seed 77, 9031 for Bing-like), whatever the handed scenario's analysis
  // mode and tracing, towards client 0's default FE and another. It
  // captures for itself, so the handed scenario need not capture at all.
  enum class Mode { kCapture, kStreaming, kNoCapture };
  for (const bool bing : {false, true}) {
    for (const Mode mode : {Mode::kCapture, Mode::kStreaming, Mode::kNoCapture}) {
      for (const bool traced : {false, true}) {
        SCOPED_TRACE(std::string(bing ? "Bing-like" : "Google-like") +
                     (mode == Mode::kCapture     ? ", capture"
                      : mode == Mode::kStreaming ? ", streaming"
                                                 : ", no capture") +
                     (traced ? ", traced" : ", untraced"));
        ScenarioOptions opt = small_options(
            bing ? cdn::bing_like_profile() : cdn::google_like_profile(), 5,
            77);
        opt.stream_analysis = mode == Mode::kStreaming;
        opt.capture_clients = mode != Mode::kNoCapture;
        opt.enable_tracing = traced;
        Scenario s(opt);
        s.warm_up();
        const std::size_t fe = s.clients()[0].default_fe;
        const std::size_t expected = bing ? 9031u : 9033u;
        EXPECT_EQ(discover_boundary(s, 0, fe), expected);
        EXPECT_EQ(discover_boundary(s, 0, (fe + 3) % s.fes().size()),
                  expected);
      }
    }
  }
}

TEST(Experiment, QueriesTakeTheDirectClientFePath) {
  // A query to FE f travels the client's own access link to f, not a route
  // through its default FE and the BE: its handshake RTT equals
  // Scenario::client_fe_rtt within 0.1 ms (the SYN and SYN-ACK
  // serialization adds 0.013 ms; the detour through client 0's default FE
  // and the BE adds 2.1 ms). Checked for a serial and a replica campaign,
  // the caching experiment and a query submitted by hand after
  // discover_boundary, each towards an FE no client defaults to.
  constexpr double kTolMs = 0.1;
  ScenarioOptions opt = small_options(cdn::bing_like_profile(), 4, 29);
  opt.enable_tracing = true;
  std::size_t far_fe = 0;
  {
    Scenario probe(opt);
    while (std::any_of(probe.clients().begin(), probe.clients().end(),
                       [&](const Scenario::Client& c) {
                         return c.default_fe == far_fe;
                       })) {
      ++far_fe;
    }
    ASSERT_LT(far_fe, probe.fes().size());
  }
  const auto expect_direct = [&](Scenario& s, std::size_t client,
                                 double rtt_ms) {
    EXPECT_NEAR(rtt_ms, s.client_fe_rtt(client, far_fe).to_milliseconds(),
                kTolMs)
        << "client " << client;
  };

  {
    SCOPED_TRACE("serial campaign");
    Scenario s(opt);
    s.warm_up();
    const ExperimentResult r =
        run_fixed_fe_experiment(s, far_fe, small_experiment(2));
    ASSERT_EQ(r.all().size(), 8u);
    for (std::size_t i = 0; i < r.per_node_timings.size(); ++i) {
      for (const auto& q : r.per_node_timings[i]) expect_direct(s, i, q.rtt_ms);
    }
  }
  {
    SCOPED_TRACE("replica campaign");
    Scenario s(opt);
    const ExperimentResult r =
        run_fixed_fe_experiment(opt, far_fe, small_experiment(2));
    ASSERT_EQ(r.all().size(), 8u);
    for (std::size_t i = 0; i < r.per_node_timings.size(); ++i) {
      for (const auto& q : r.per_node_timings[i]) expect_direct(s, i, q.rtt_ms);
    }
  }
  {
    SCOPED_TRACE("caching experiment");
    Scenario s(opt);
    s.warm_up();
    run_caching_experiment(s, 0, far_fe, 3);
    std::size_t flows = 0;
    for (const obs::SpanRecord& span : s.trace()->spans()) {
      if (span.name != "tcp.flow") continue;
      sim::SimTime syn, synack;
      for (const obs::SpanEvent& e : span.events) {
        if (e.name == "syn") syn = e.at;
        if (e.name == "synack") synack = e.at;
      }
      expect_direct(s, 0, (synack - syn).to_milliseconds());
      ++flows;
    }
    EXPECT_EQ(flows, 6u);
  }
  {
    SCOPED_TRACE("query submitted by hand");
    Scenario s(opt);
    s.warm_up();
    const std::size_t boundary = discover_boundary(s, 0, far_fe);
    s.connect_client_to_fe(0, far_fe);
    auto& client = s.clients()[0];
    client.query_client->submit(
        s.fe_endpoint(far_fe), search::KeywordCatalog(5).figure3_keywords()[0],
        [](const cdn::QueryResult&) {});
    s.run();
    const auto timelines =
        analysis::extract_all_timelines(client.recorder->trace(), 80, boundary);
    ASSERT_EQ(timelines.size(), 1u);
    expect_direct(s, 0, timelines[0].rtt().to_milliseconds());
  }
}

TEST(Experiment, FixedFeProducesValidTimingsForAllNodes) {
  Scenario s(small_options(cdn::google_like_profile(), 10, 21));
  s.warm_up();
  const ExperimentResult r =
      run_fixed_fe_experiment(s, 0, small_experiment(5));
  ASSERT_EQ(r.per_node.size(), 10u);
  for (const auto& node : r.per_node) {
    EXPECT_EQ(node.samples, 5u) << node.node_name;
    EXPECT_GT(node.rtt_ms, 0.0);
    EXPECT_GT(node.med_dynamic_ms, 0.0);
    EXPECT_GE(node.med_dynamic_ms, node.med_static_ms - 1e-6);
  }
}

TEST(Experiment, InferenceBoundsHoldAgainstGroundTruth) {
  // The paper's central claim, checked against the simulator's hidden
  // truth: for every query, T_delta <= true T_fetch <= T_dynamic.
  Scenario s(small_options(cdn::google_like_profile(), 8, 31));
  s.warm_up();
  const ExperimentResult r =
      run_fixed_fe_experiment(s, 0, small_experiment(4));

  const auto& fetch_log = s.fes()[0].server->fetch_log();
  ASSERT_EQ(fetch_log.size(), 8u * 4u);

  // With a single FE and interleaved per-node queries we can't match 1:1,
  // so check the aggregate envelope instead: every true fetch must lie
  // within [min T_delta, max T_dynamic], and medians must be ordered.
  std::vector<double> deltas, dynamics, truths;
  for (const auto& q : r.all()) {
    deltas.push_back(q.t_delta_ms);
    dynamics.push_back(q.t_dynamic_ms);
  }
  for (const auto& fetch : fetch_log) {
    truths.push_back(fetch.true_fetch_time().to_milliseconds());
  }
  ASSERT_FALSE(deltas.empty());
  const double max_dynamic = *std::max_element(dynamics.begin(), dynamics.end());
  const double min_delta = *std::min_element(deltas.begin(), deltas.end());
  for (const double t : truths) {
    EXPECT_LE(t, max_dynamic + 1e-6);
    EXPECT_GE(t, min_delta - 1e-6);
  }
  EXPECT_LE(stats::median(deltas), stats::median(truths) + 1e-6);
  EXPECT_GE(stats::median(dynamics), stats::median(truths) - 1e-6);
}

TEST(Experiment, PerQueryBoundsHoldOnSingleClient) {
  // With exactly one client and sequential queries, fetch-log entries map
  // 1:1 onto extracted timings: check the bound per query.
  Scenario s(small_options(cdn::google_like_profile(), 1, 13));
  s.warm_up();
  const ExperimentResult r =
      run_fixed_fe_experiment(s, 0, small_experiment(8));
  const auto timings = r.per_node_timings.at(0);
  const auto& fetch_log = s.fes()[0].server->fetch_log();
  ASSERT_EQ(timings.size(), 8u);
  ASSERT_EQ(fetch_log.size(), 8u);
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const double truth = fetch_log[i].true_fetch_time().to_milliseconds();
    const core::FetchBounds bounds = core::fetch_bounds(timings[i]);
    EXPECT_LE(bounds.lower_ms, truth + 0.5) << "query " << i;
    EXPECT_GE(bounds.upper_ms, truth - 0.5) << "query " << i;
  }
}

TEST(Experiment, DefaultFeExperimentUsesPerClientFes) {
  Scenario s(small_options(cdn::bing_like_profile(), 10, 17));
  s.warm_up();
  const ExperimentResult r = run_default_fe_experiment(s, small_experiment(3));
  ASSERT_EQ(r.per_node.size(), 10u);
  std::size_t with_samples = 0;
  for (const auto& n : r.per_node) {
    if (n.samples > 0) ++with_samples;
  }
  EXPECT_EQ(with_samples, 10u);
  // Akamai-style coverage: most nodes see low RTT to their default FE.
  std::vector<double> rtts;
  for (const auto& n : r.per_node) rtts.push_back(n.rtt_ms);
  EXPECT_LT(stats::median(rtts), 25.0);
}

/// The caching probe must sit close to the FE: at high client RTT the
/// fetch time hides behind the static-portion delivery, so T_dynamic no
/// longer reflects whether a fetch happened at all.
std::size_t nearest_client(Scenario& s, std::size_t fe_index) {
  std::size_t best = 0;
  sim::SimTime best_rtt = sim::SimTime::infinity();
  for (std::size_t i = 0; i < s.clients().size(); ++i) {
    const sim::SimTime rtt = s.client_fe_rtt(i, fe_index);
    if (rtt < best_rtt) {
      best_rtt = rtt;
      best = i;
    }
  }
  return best;
}

TEST(Experiment, ZipfWorkloadRunsAndHitsHotKeywords) {
  Scenario s(small_options(cdn::google_like_profile(), 6, 19));
  s.warm_up();
  ExperimentOptions eo;
  eo.reps_per_node = 10;
  eo.interval = 700_ms;
  eo.zipf = ExperimentOptions::ZipfWorkload{200, 1.1};
  const ExperimentResult r = run_fixed_fe_experiment(s, 0, eo);
  std::size_t total = 0;
  for (const auto& n : r.per_node) total += n.samples;
  EXPECT_EQ(total, 60u);
  // Hot (rank <= 3) keywords hit the BE result cache and process at a
  // fraction of the base cost; with Zipf draws a substantial share of
  // queries is hot, so the minimum observed T_proc sits well below the
  // median.
  EXPECT_EQ(s.backend().query_log().size(), 60u);  // the campaign's only
  std::vector<double> procs;
  for (const auto& rec : s.backend().query_log()) {
    procs.push_back(rec.t_proc.to_milliseconds());
  }
  EXPECT_LT(stats::min_of(procs), 0.7 * stats::median(procs));
}

TEST(Experiment, ZipfSequencesDifferAcrossClients) {
  Scenario s(small_options(cdn::google_like_profile(), 2, 19));
  s.warm_up();
  ExperimentOptions eo;
  eo.reps_per_node = 12;
  eo.interval = 700_ms;
  eo.zipf = ExperimentOptions::ZipfWorkload{200, 1.0};
  run_fixed_fe_experiment(s, 0, eo);
  // The BE saw both clients' queries; if the two streams were identical
  // the keyword multiset would have every count even.
  std::map<std::string, int> counts;
  for (const auto& rec : s.backend().query_log()) ++counts[rec.keyword];
  bool any_odd = false;
  for (const auto& [kw, n] : counts) {
    if (n % 2 == 1) any_odd = true;
  }
  EXPECT_TRUE(any_odd);
}

TEST(Experiment, CachingExperimentFindsNoCachingByDefault) {
  Scenario s(small_options(cdn::google_like_profile(), 8, 23));
  s.warm_up();
  const CachingExperimentResult r =
      run_caching_experiment(s, nearest_client(s, 0), 0, 25);
  EXPECT_FALSE(r.detection.caching_detected) << r.detection.verdict();
  EXPECT_EQ(r.fe_cache_hits, 0u);
  EXPECT_EQ(r.t_dynamic_same_ms.size(), 25u);
  EXPECT_EQ(r.t_dynamic_distinct_ms.size(), 25u);
}

TEST(Experiment, CachingExperimentDetectsCounterfactualCache) {
  ScenarioOptions opt = small_options(cdn::google_like_profile(), 8, 23);
  opt.fe_cache_results = true;  // the counterfactual FE
  Scenario s(opt);
  s.warm_up();
  const CachingExperimentResult r =
      run_caching_experiment(s, nearest_client(s, 0), 0, 25);
  EXPECT_TRUE(r.detection.caching_detected) << r.detection.verdict();
  EXPECT_GT(r.fe_cache_hits, 0u);
}

TEST(Experiment, CachingInvisibleFromHighRttVantagePoint) {
  // Methodological corollary: run the same counterfactual-cache probe from
  // the *farthest* client — the fetch hides behind delivery and the
  // detector (correctly, given its inputs) cannot see the cache.
  ScenarioOptions opt = small_options(cdn::google_like_profile(), 8, 23);
  opt.fe_cache_results = true;
  Scenario s(opt);
  s.warm_up();
  std::size_t farthest = 0;
  sim::SimTime worst = sim::SimTime::zero();
  for (std::size_t i = 0; i < s.clients().size(); ++i) {
    if (s.client_fe_rtt(i, 0) > worst) {
      worst = s.client_fe_rtt(i, 0);
      farthest = i;
    }
  }
  if (worst < sim::SimTime::milliseconds(120)) {
    GTEST_SKIP() << "no sufficiently distant vantage point in this draw";
  }
  const CachingExperimentResult r =
      run_caching_experiment(s, farthest, 0, 25);
  EXPECT_GT(r.fe_cache_hits, 0u);  // the cache *is* operating...
  EXPECT_FALSE(r.detection.caching_detected)
      << r.detection.verdict();  // ...but is invisible at this RTT
}

TEST(Experiment, FetchFactoringRecoversProcessingTime) {
  ScenarioOptions opt = small_options(cdn::google_like_profile());
  opt.fe_distance_sweep_miles =
      std::vector<double>{40, 100, 180, 260, 340, 420, 500};
  // Deterministic processing so the intercept is sharp.
  opt.profile.processing.load.sigma = 0.02;
  opt.profile.processing.load.load_amplitude = 0.0;
  opt.profile.fe_service.sigma = 0.02;
  opt.profile.fe_service.load_amplitude = 0.0;

  search::KeywordCatalog catalog(5);
  const auto keyword = catalog.figure3_keywords().front();
  ReplicaPlan serial;
  serial.shards = 1;
  const FetchFactoringResult r =
      run_fetch_factoring_experiment(opt, keyword, 7, serial);

  ASSERT_EQ(r.distances_miles.size(), 7u);
  EXPECT_GT(r.factoring.fit.r_squared, 0.9);
  EXPECT_GT(r.factoring.slope_ms_per_mile(), 0.0);

  // The intercept estimates the distance-independent cost: the true BE
  // processing time plus the FE's own service time (which the paper's
  // reading of the intercept silently absorbs — T_dynamic is measured
  // from t2, so FE request handling is part of it).
  const double expected_intercept =
      opt.profile.processing.base_for(keyword) +
      opt.profile.fe_service.median_ms;
  EXPECT_NEAR(r.factoring.t_proc_ms(), expected_intercept,
              0.35 * expected_intercept);
  // Implied round-trip count must be physically sensible.
  EXPECT_GT(r.factoring.implied_round_trips(), 0.5);
  EXPECT_LT(r.factoring.implied_round_trips(), 12.0);
}

TEST(Experiment, LossyLastMileStillMeasurable) {
  ScenarioOptions opt = small_options(cdn::google_like_profile(), 4, 29);
  opt.client_link_loss = 0.01;
  Scenario s(opt);
  s.warm_up();
  const ExperimentResult r =
      run_fixed_fe_experiment(s, 0, small_experiment(4));
  std::size_t total = 0;
  for (const auto& n : r.per_node) total += n.samples;
  // Loss may invalidate occasional timelines, but most must survive.
  EXPECT_GE(total, 12u);
}

TEST(Experiment, DeterministicAcrossRuns) {
  auto run_once = [] {
    Scenario s(small_options(cdn::google_like_profile(), 4, 77));
    s.warm_up();
    const ExperimentResult r =
        run_fixed_fe_experiment(s, 0, small_experiment(3));
    std::vector<double> meds;
    for (const auto& n : r.per_node) meds.push_back(n.med_dynamic_ms);
    return meds;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace dyncdn::testbed

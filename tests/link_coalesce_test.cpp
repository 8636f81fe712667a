// Link delivery coalescing equivalence: batching contiguous in-flight
// deliveries behind one kernel event must leave every observable — delivery
// times, handler order, packet captures, Fig. 2 timelines — byte-identical
// to the one-event-per-packet path. The artifact test additionally feeds
// the `trace_diff_coalesced` ctest entry, which cross-checks a coalesced
// run's spans against an uncoalesced run's capture with
// `trace_inspect spans --diff` at tolerance 0.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "capture/serialize.hpp"
#include "capture/spill.hpp"
#include "cdn/deployment.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "obs/export_chrome.hpp"
#include "search/keywords.hpp"
#include "sim/simulator.hpp"
#include "testbed/scenario.hpp"

namespace dyncdn {
namespace {

using sim::SimTime;
using namespace dyncdn::sim::literals;

net::PacketPtr make_packet(std::size_t payload_bytes) {
  auto p = net::acquire_packet();
  p->src = net::NodeId{1};
  p->dst = net::NodeId{2};
  p->payload = net::PayloadRef{
      net::make_buffer(std::vector<std::uint8_t>(payload_bytes, 0xAB)), 0,
      payload_bytes};
  return p;
}

/// One delivery observation: (arrival ns, payload bytes).
using DeliveryLog = std::vector<std::pair<long long, std::size_t>>;

/// Drive a fixed transmission schedule — bursts that form packet trains,
/// plus unrelated interleaved events that force the coalesced path to
/// re-arm mid-train — and log every delivery.
DeliveryLog run_link_schedule(bool coalesce, net::LinkStats* stats_out) {
  sim::Simulator simulator(5);
  net::LinkConfig cfg;
  cfg.propagation_delay = 10_ms;
  cfg.bandwidth_bps = 8e6;  // 1448B segment ~ 1.45ms serialization
  cfg.coalesce_deliveries = coalesce;
  DeliveryLog log;
  net::Link link(
      simulator, cfg,
      [&](net::PacketPtr p) {
        log.emplace_back(simulator.now().ns(), p->payload_size());
      },
      "test");

  for (int burst = 0; burst < 4; ++burst) {
    simulator.schedule_in(SimTime::milliseconds(burst * 40),
                          [&link, burst]() {
                            for (int i = 0; i <= burst * 2; ++i) {
                              link.transmit(make_packet(1448));
                            }
                          });
  }
  // Foreign events landing between train arrivals: the drain must yield
  // to them and re-schedule instead of running past the event horizon.
  for (int i = 0; i < 60; ++i) {
    simulator.schedule_in(SimTime::microseconds(i * 2700 + 333), []() {});
  }
  simulator.run();
  if (stats_out != nullptr) *stats_out = link.stats();
  return log;
}

TEST(LinkCoalesce, DeliverySequenceIdenticalToPerPacketPath) {
  net::LinkStats on{}, off{};
  const DeliveryLog coalesced = run_link_schedule(true, &on);
  const DeliveryLog per_packet = run_link_schedule(false, &off);

  ASSERT_EQ(coalesced.size(), per_packet.size());
  for (std::size_t i = 0; i < coalesced.size(); ++i) {
    EXPECT_EQ(coalesced[i].first, per_packet[i].first) << "packet " << i;
    EXPECT_EQ(coalesced[i].second, per_packet[i].second) << "packet " << i;
  }
  EXPECT_EQ(on.packets_delivered, off.packets_delivered);
  EXPECT_EQ(on.bytes_delivered, off.bytes_delivered);
  // The trains actually coalesced — the equivalence above was not vacuous.
  EXPECT_GT(on.deliveries_coalesced, 0u);
  EXPECT_EQ(off.deliveries_coalesced, 0u);
}

TEST(LinkCoalesce, ReorderingLinkNeverCoalesces) {
  sim::Simulator simulator(5);
  net::LinkConfig cfg;
  cfg.propagation_delay = 10_ms;
  cfg.bandwidth_bps = 8e6;
  cfg.coalesce_deliveries = true;
  cfg.reorder_probability = 0.5;
  int delivered = 0;
  net::Link link(
      simulator, cfg, [&](net::PacketPtr) { ++delivered; }, "reorder");
  simulator.schedule_in(SimTime::zero(), [&link]() {
    for (int i = 0; i < 16; ++i) link.transmit(make_packet(1448));
  });
  simulator.run();
  EXPECT_EQ(delivered, 16);
  EXPECT_EQ(link.stats().deliveries_coalesced, 0u);
}

TEST(LinkCoalesce, RunUntilLeavesLaterTrainArrivalsPending) {
  // Two packets on one coalescing link, arriving at 10 ms and 15 ms, ride
  // one train. run_until(12 ms) must deliver only the first: the second
  // stays pending and lands at its own arrival time on the next run.
  sim::Simulator simulator(5);
  net::LinkConfig cfg;
  cfg.propagation_delay = 10_ms;
  cfg.bandwidth_bps = 0;  // no serialization delay
  cfg.coalesce_deliveries = true;
  std::vector<long long> arrivals;
  net::Link link(
      simulator, cfg,
      [&](net::PacketPtr) { arrivals.push_back(simulator.now().ns()); },
      "deadline");
  simulator.schedule_at(0_ms, [&link]() { link.transmit(make_packet(100)); });
  simulator.schedule_at(5_ms, [&link]() { link.transmit(make_packet(100)); });

  EXPECT_EQ(simulator.run_until(12_ms), 12_ms);
  EXPECT_EQ(arrivals, std::vector<long long>{(10_ms).ns()});
  EXPECT_TRUE(simulator.has_pending());

  simulator.run();
  EXPECT_EQ(arrivals, (std::vector<long long>{(10_ms).ns(), (15_ms).ns()}));
  EXPECT_EQ(simulator.now(), 15_ms);
}

/// Run the full testbed (FE fleet + BE + vantage-point client) with link
/// coalescing toggled; return client 0's serialized packet capture and
/// optionally export spans/capture artifacts for the offline diff tool.
std::string run_scenario_capture(bool coalesce,
                                 const std::string& spans_json_path,
                                 const std::string& capture_path) {
  testbed::ScenarioOptions so;
  so.profile = cdn::google_like_profile();
  so.client_count = 2;
  so.seed = 7;
  so.capture_payloads = true;
  so.enable_tracing = true;
  so.link_coalescing = coalesce;
  testbed::Scenario scenario(so);
  scenario.warm_up();
  scenario.connect_client_to_fe(0, 0);

  auto& client = scenario.clients()[0];
  const net::Endpoint fe = scenario.fe_endpoint(0);
  const search::KeywordCatalog catalog(9);
  const auto keywords = catalog.distinct_corpus(4);
  SimTime at = SimTime::zero();
  for (const search::Keyword& kw : keywords) {
    client.node->simulator().schedule_in(at, [&client, fe, kw]() {
      client.query_client->submit(fe, kw, [](const cdn::QueryResult&) {});
    });
    at = at + SimTime::milliseconds(1500);
  }
  scenario.run();

  const capture::PacketTrace web =
      client.recorder->trace().filter_remote_port(80);
  if (!capture_path.empty()) {
    capture::save_trace_dtrc(web, capture_path);
  }
  if (!spans_json_path.empty()) {
    EXPECT_TRUE(obs::write_chrome_trace(*scenario.trace(), spans_json_path));
  }
  return capture::serialize_trace(web, /*with_payloads=*/true);
}

TEST(LinkCoalesce, ScenarioCaptureByteIdentical) {
  const std::string coalesced = run_scenario_capture(true, "", "");
  const std::string per_packet = run_scenario_capture(false, "", "");
  ASSERT_FALSE(coalesced.empty());
  // Byte-for-byte: timestamps, headers, and payload hex of every captured
  // packet. (EXPECT_TRUE keeps a failure from dumping the whole trace.)
  EXPECT_TRUE(coalesced == per_packet)
      << "captures diverge: " << coalesced.size() << " vs "
      << per_packet.size() << " bytes";
}

// Exports cross-run artifacts consumed by the `trace_diff_coalesced` ctest
// entry: tcp.flow spans from a COALESCED run, packet capture from an
// UNCOALESCED run. `trace_inspect spans --diff` then rebuilds both sets of
// t1..te timelines and requires zero mismatches at tolerance 0.
TEST(LinkCoalesceArtifacts, ExportSpansAndCaptureForDiff) {
  namespace fs = std::filesystem;
  const char* env = std::getenv("DYNCDN_COALESCE_ARTIFACT_DIR");
  const fs::path dir =
      env != nullptr ? fs::path(env)
                     : fs::temp_directory_path() / "dyncdn_coalesce_artifacts";
  fs::create_directories(dir);
  run_scenario_capture(true, (dir / "spans.json").string(), "");
  run_scenario_capture(false, "", (dir / "capture.dtrc").string());
  EXPECT_TRUE(fs::exists(dir / "spans.json"));
  EXPECT_TRUE(fs::exists(dir / "capture.dtrc"));
}

}  // namespace
}  // namespace dyncdn

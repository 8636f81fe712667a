// Durable trace pipeline tests: .dtrc round-trip byte-identity, block
// index / per-flow seeks, corrupt-input rejection, budget-triggered spill
// equivalence (a campaign that spills mid-run must analyze identically to
// one that kept everything in memory, at any thread count), saved traces
// (ExperimentOptions::save_traces: each file holds the capture its
// vantage point's timings were computed from), and the artifact export
// feeding the `trace_diff_spilled` ctest entry.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/reassembly.hpp"
#include "analysis/timeline.hpp"
#include "capture/recorder.hpp"
#include "capture/serialize.hpp"
#include "capture/spill.hpp"
#include "cdn/deployment.hpp"
#include "core/timings.hpp"
#include "harness.hpp"
#include "obs/export_chrome.hpp"
#include "obs/export_prometheus.hpp"
#include "search/keywords.hpp"
#include "sim/parse.hpp"
#include "tcp/stack.hpp"
#include "testbed/experiment.hpp"
#include "testbed/parallel_experiment.hpp"
#include "testbed/scenario.hpp"

namespace dyncdn::capture {
namespace {

using dyncdn::testing::pattern_text;
using dyncdn::testing::TwoNodeHarness;
using sim::SimTime;
using namespace dyncdn::sim::literals;

/// Real captured traffic (handshake, data, teardown) — same generator as
/// the text-dump tests.
/// `connections` concurrent client connections multiply the record count
/// and give the capture several distinct flows. With `budget` > 0 the
/// recorder spills into `*spill` whenever its buffer crosses the budget;
/// the harness run is deterministic, so two calls produce byte-identical
/// packet streams regardless of spilling.
std::unique_ptr<TwoNodeHarness> harness;
std::unique_ptr<TraceRecorder> recorder;

/// Tears the long-lived harness down while the slab pools backing
/// its captured payloads are still alive (static destruction order across
/// translation units is unspecified, so the trace must not outlive main).
class HarnessTeardown : public ::testing::Environment {
 public:
  void TearDown() override {
    recorder.reset();
    harness.reset();
  }
};
const auto* const kTeardown =
    ::testing::AddGlobalTestEnvironment(new HarnessTeardown);

/// Collects a recorder's replay: its complete capture as one trace.
struct CollectingSink final : PacketSink {
  explicit CollectingSink(net::NodeId node) : trace(node) {}
  void on_packet(const PacketRecord& r) override { trace.add(r); }
  void on_clear() override { trace.clear(); }
  PacketTrace trace;
};

PacketTrace whole_capture(TraceRecorder& r) {
  CollectingSink sink(r.trace().node());
  r.replay(sink);
  return std::move(sink.trace);
}

PacketTrace make_real_trace(bool payloads, int connections = 1,
                            SpillWriter* spill = nullptr,
                            std::size_t budget = 0,
                            TraceRecorder** recorder_out = nullptr) {
  harness = std::make_unique<TwoNodeHarness>();
  RecorderOptions ro;
  ro.capture_payloads = payloads;
  recorder = std::make_unique<TraceRecorder>(*harness->client_node,
                                             harness->simulator, ro);
  if (spill != nullptr) recorder->set_spill(spill, budget);
  harness->server->listen(80, [](tcp::TcpSocket& s) {
    tcp::TcpSocket::Callbacks cb;
    cb.on_data = [&s](net::PayloadRef) {
      s.send_text("response:" + pattern_text(4000));
      s.close();
    };
    s.set_callbacks(std::move(cb));
  });
  for (int i = 0; i < connections; ++i) {
    tcp::TcpSocket& c =
        harness->client->connect({harness->server_node->id(), 80}, {});
    c.send_text("GET /x HTTP/1.1\r\n\r\n");
  }
  harness->simulator.run();
  if (recorder_out != nullptr) *recorder_out = recorder.get();
  return whole_capture(*recorder);
}

void expect_traces_equal(const PacketTrace& a, const PacketTrace& b,
                         bool with_payloads) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.node(), b.node());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto x = a.records()[i];
    const auto y = b.records()[i];
    EXPECT_EQ(x.timestamp, y.timestamp) << i;
    EXPECT_EQ(x.direction, y.direction) << i;
    EXPECT_EQ(x.src, y.src) << i;
    EXPECT_EQ(x.dst, y.dst) << i;
    EXPECT_EQ(x.tcp.seq, y.tcp.seq) << i;
    EXPECT_EQ(x.tcp.ack, y.tcp.ack) << i;
    EXPECT_EQ(x.tcp.window, y.tcp.window) << i;
    EXPECT_EQ(x.tcp.flags.syn, y.tcp.flags.syn) << i;
    EXPECT_EQ(x.tcp.flags.ack, y.tcp.flags.ack) << i;
    EXPECT_EQ(x.tcp.flags.fin, y.tcp.flags.fin) << i;
    EXPECT_EQ(x.tcp.flags.rst, y.tcp.flags.rst) << i;
    EXPECT_EQ(x.payload_size, y.payload_size) << i;
    if (with_payloads) {
      EXPECT_EQ(x.payload.to_text(), y.payload.to_text()) << i;
    } else {
      EXPECT_TRUE(y.payload.empty()) << i;
    }
  }
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

// ---------------------------------------------------------------------------
// Codec: round-trip byte-identity.
// ---------------------------------------------------------------------------

TEST(SpillFormat, RoundTripWithPayloads) {
  const PacketTrace original = make_real_trace(true);
  ASSERT_GT(original.size(), 5u);
  const std::string path = temp_path("spill_rt_payloads.dtrc");
  save_trace_dtrc(original, path);
  const PacketTrace loaded = load_trace(path);
  expect_traces_equal(original, loaded, true);
  std::remove(path.c_str());
}

TEST(SpillFormat, RoundTripHeadersOnly) {
  const PacketTrace original = make_real_trace(false);
  const std::string path = temp_path("spill_rt_headers.dtrc");
  save_trace_dtrc(original, path);
  const PacketTrace loaded = load_trace(path);
  expect_traces_equal(original, loaded, false);
  std::remove(path.c_str());
}

TEST(SpillFormat, EmptyTraceRoundTrips) {
  PacketTrace empty(net::NodeId{7});
  const std::string path = temp_path("spill_rt_empty.dtrc");
  save_trace_dtrc(empty, path);
  SpillReader reader(path);
  EXPECT_EQ(reader.node(), net::NodeId{7});
  EXPECT_EQ(reader.record_count(), 0u);
  EXPECT_TRUE(reader.read_all().empty());
  std::remove(path.c_str());
}

TEST(SpillFormat, ReassemblyWorksOnReloadedTrace) {
  // The acid test: the analysis pipeline must produce identical results on
  // the spilled-then-reloaded trace.
  const PacketTrace original = make_real_trace(true);
  const std::string path = temp_path("spill_reassembly.dtrc");
  save_trace_dtrc(original, path);
  const PacketTrace loaded = load_trace(path);
  const auto flow = original.flows().front();
  const auto a = analysis::reassemble(original, flow, Direction::kReceived);
  const auto b = analysis::reassemble(loaded, flow, Direction::kReceived);
  EXPECT_EQ(a.bytes(), b.bytes());
  ASSERT_EQ(a.segments().size(), b.segments().size());
  for (std::size_t i = 0; i < a.segments().size(); ++i) {
    EXPECT_EQ(a.segments()[i].at, b.segments()[i].at);
  }
  std::remove(path.c_str());
}

TEST(SpillFormat, TextAndBinaryConvergeOnTheSameRecords) {
  // The trace_inspect convert path: the text dump of a reloaded .dtrc is
  // the dump of the original capture, byte for byte.
  const PacketTrace original = make_real_trace(true);
  const std::string path = temp_path("spill_convert.dtrc");
  save_trace_dtrc(original, path);
  const PacketTrace loaded = load_trace(path);
  expect_traces_equal(original, loaded, true);
  EXPECT_TRUE(serialize_trace(loaded, true) ==
              serialize_trace(original, true));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Block structure: index metadata, iteration determinism, per-flow seek.
// ---------------------------------------------------------------------------

TEST(SpillFormat, MultiBlockEncodingAndBlockIndex) {
  const PacketTrace original = make_real_trace(true, 8);
  ASSERT_GT(original.size(), 64u);
  const std::string path = temp_path("spill_blocks.dtrc");
  SpillWriter::Options wo;
  wo.block_records = 16;  // force many blocks
  {
    SpillWriter writer(path, original.node(), wo);
    writer.append_trace(original);
    writer.finish();
    EXPECT_EQ(writer.stats().records, original.size());
    EXPECT_GT(writer.stats().bytes_written, 0u);
    EXPECT_EQ(writer.stats().blocks, (original.size() + 15) / 16);
  }
  SpillReader reader(path);
  EXPECT_GT(reader.block_count(), 3u);
  std::uint64_t indexed_records = 0;
  SimTime prev_last = SimTime::zero();
  for (std::size_t b = 0; b < reader.block_count(); ++b) {
    const auto info = reader.block_info(b);
    EXPECT_LE(info.records, 16u);
    EXPECT_LE(info.first_timestamp, info.last_timestamp) << "block " << b;
    EXPECT_GE(info.first_timestamp, prev_last) << "block " << b;
    prev_last = info.last_timestamp;
    indexed_records += info.records;
  }
  EXPECT_EQ(indexed_records, reader.record_count());
  EXPECT_EQ(reader.record_count(), original.size());

  // Blocks decode independently and concatenate to the full capture.
  PacketTrace concat(reader.node());
  for (std::size_t b = 0; b < reader.block_count(); ++b) {
    reader.read_block(b, concat);
  }
  expect_traces_equal(original, concat, true);
  std::remove(path.c_str());
}

TEST(SpillFormat, ReaderIterationIsDeterministic) {
  const PacketTrace original = make_real_trace(true);
  const std::string path = temp_path("spill_determinism.dtrc");
  save_trace_dtrc(original, path);
  SpillReader reader(path);
  // Two full decodes of the same mapping are byte-identical.
  const std::string once = serialize_trace(reader.read_all(), true);
  const std::string twice = serialize_trace(reader.read_all(), true);
  EXPECT_TRUE(once == twice);
  // Streaming visitation sees the same records in the same order.
  PacketTrace streamed(reader.node());
  reader.for_each_record([&](const PacketRecord& r) { streamed.add(r); });
  expect_traces_equal(original, streamed, true);
  std::remove(path.c_str());
}

TEST(SpillFormat, ReadFlowMatchesFilterFlow) {
  const PacketTrace original = make_real_trace(true, 8);
  ASSERT_GT(original.flows().size(), 4u);
  const std::string path = temp_path("spill_flow.dtrc");
  SpillWriter::Options wo;
  wo.block_records = 16;
  {
    SpillWriter writer(path, original.node(), wo);
    writer.append_trace(original);
    writer.finish();
  }
  SpillReader reader(path);
  for (const net::FlowId& flow : original.flows()) {
    expect_traces_equal(original.filter_flow(flow), reader.read_flow(flow),
                        true);
  }
  std::remove(path.c_str());
}

TEST(SpillFormat, LoadTraceSniffsBinaryFormat) {
  // load_trace judges the magic, not the extension: a .dtrc file under a
  // text-ish name still loads in every consumer of load_trace
  // (trace_inspect, --diff).
  const PacketTrace original = make_real_trace(true);
  const std::string path = temp_path("spill_sniff.trace");
  save_trace_dtrc(original, path);
  expect_traces_equal(original, load_trace(path), true);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Error paths: truncation and corruption must throw, never crash.
// ---------------------------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(SpillFormat, TruncatedFilesThrow) {
  const PacketTrace original = make_real_trace(true);
  const std::string path = temp_path("spill_trunc.dtrc");
  save_trace_dtrc(original, path);
  const std::string whole = read_file(path);
  ASSERT_GT(whole.size(), 64u);
  const std::string cut = temp_path("spill_trunc_cut.dtrc");
  // Every truncation class: empty, sub-header, header-only (no tail),
  // mid-blocks, and just-missing-the-tail.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{4}, std::size_t{16}, whole.size() / 2,
        whole.size() - 1}) {
    write_file(cut, whole.substr(0, keep));
    EXPECT_THROW(SpillReader reader(cut), std::runtime_error)
        << "kept " << keep << " of " << whole.size() << " bytes";
  }
  std::remove(path.c_str());
  std::remove(cut.c_str());
}

TEST(SpillFormat, CorruptMagicThrows) {
  const PacketTrace original = make_real_trace(true);
  const std::string path = temp_path("spill_corrupt.dtrc");
  save_trace_dtrc(original, path);
  std::string bytes = read_file(path);
  const std::string bad = temp_path("spill_corrupt_bad.dtrc");

  std::string head = bytes;
  head[0] ^= 0xFF;  // header magic
  write_file(bad, head);
  try {
    SpillReader r1(bad);
    FAIL() << "bad magic accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("(not a .dtrc file): " + bad),
              std::string::npos)
        << e.what();
  }

  std::string tail = bytes;
  tail[tail.size() - 1] ^= 0xFF;  // tail magic
  write_file(bad, tail);
  EXPECT_THROW(SpillReader r2(bad), std::runtime_error);

  std::string footer = bytes;
  // Footer offset pointing past EOF.
  for (std::size_t i = 0; i < 8; ++i) {
    footer[footer.size() - 24 + i] = static_cast<char>(0xEE);
  }
  write_file(bad, footer);
  EXPECT_THROW(SpillReader r3(bad), std::runtime_error);

  EXPECT_THROW(SpillReader missing(temp_path("no_such_file.dtrc")),
               std::runtime_error);
  std::remove(path.c_str());
  std::remove(bad.c_str());
}

TEST(SpillMutation, DecodesOrRejectsAndReencodesStably) {
  // Bit flips, truncations and splices of a file the writer produced. Each
  // mutant is rejected with std::runtime_error or decodes; a decoded one
  // re-encodes to a file that decodes to the same records and encodes to
  // the same bytes again.
  const PacketTrace original = make_real_trace(true);
  const std::string path = temp_path("spill_mutation.dtrc");
  save_trace_dtrc(original, path);
  const std::string corpus = read_file(path);
  ASSERT_GT(corpus.size(), 4000u);
  const std::string mutant = temp_path("spill_mutant.dtrc");
  const std::string again = temp_path("spill_mutant_again.dtrc");
  std::mt19937 gen(20111105);
  int rejected = 0;
  int decoded = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    write_file(mutant, dyncdn::testing::mutate(corpus, gen));
    PacketTrace first;
    try {
      first = load_trace(mutant);
    } catch (const std::runtime_error&) {
      ++rejected;
      continue;
    }
    ++decoded;
    save_trace_dtrc(first, again);
    const std::string encoded = read_file(again);
    PacketTrace second;
    ASSERT_NO_THROW(second = load_trace(again)) << "iteration " << iter;
    expect_traces_equal(first, second, true);
    save_trace_dtrc(second, again);
    EXPECT_TRUE(read_file(again) == encoded) << "iteration " << iter;
    if (HasFailure()) {
      ADD_FAILURE() << "iteration " << iter;
      return;
    }
  }
  // Both outcomes occur, so neither check above is vacuous.
  EXPECT_GT(rejected, 1000);
  EXPECT_GT(decoded, 1000);
  std::remove(path.c_str());
  std::remove(mutant.c_str());
  std::remove(again.c_str());
}

// ---------------------------------------------------------------------------
// Writer lifecycle: finish/on_clear semantics and cumulative stats.
// ---------------------------------------------------------------------------

TEST(SpillFormat, OnClearRestartsFileAndKeepsCumulativeStats) {
  const PacketTrace original = make_real_trace(true, 4);
  ASSERT_GT(original.size(), 20u);
  const std::string path = temp_path("spill_clear.dtrc");
  SpillWriter writer(path, original.node());
  writer.append_trace(original);
  writer.finish();
  EXPECT_THROW(writer.append_trace(original), std::logic_error);

  writer.on_clear();  // discard: the file restarts from the header
  PacketTrace second(original.node());
  for (std::size_t i = 0; i < 10; ++i) second.add(original.records()[i]);
  writer.append_trace(second);
  writer.finish();

  SpillReader reader(path);
  EXPECT_EQ(reader.record_count(), 10u);
  expect_traces_equal(second, reader.read_all(), true);
  // Stats are cumulative across restarts (the telemetry counters must
  // never run backwards mid-campaign).
  EXPECT_EQ(writer.stats().records, original.size() + 10u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Recorder integration: budget-triggered spill.
// ---------------------------------------------------------------------------

TEST(SpillRecorder, BudgetedCaptureEqualsInMemoryCapture) {
  // Unbudgeted reference run, then an identical deterministic run with a
  // budget small enough to force several mid-run spills: the replay
  // (spilled prefix read back from disk + in-memory tail) must be
  // byte-identical to the in-memory capture.
  const PacketTrace reference = make_real_trace(true, 4);
  const std::size_t budget = reference.retained_bytes() / 5;
  ASSERT_GT(budget, 0u);

  const std::string path = temp_path("spill_budget.dtrc");
  SpillWriter spill(path, reference.node());
  TraceRecorder* recorder = nullptr;
  const PacketTrace budgeted =
      make_real_trace(true, 4, &spill, budget, &recorder);
  ASSERT_NE(recorder, nullptr);
  EXPECT_TRUE(recorder->has_spilled());
  // The buffer actually stayed bounded: the tail alone is not the capture.
  EXPECT_LT(recorder->trace().size(), reference.size());
  expect_traces_equal(reference, budgeted, true);
  std::remove(path.c_str());
}

TEST(SpillRecorder, PeakRetainedReflectsPreSpillHighWater) {
  const PacketTrace reference = make_real_trace(true, 4);
  const std::size_t budget = reference.retained_bytes() / 4;
  const std::string path = temp_path("spill_peak.dtrc");
  SpillWriter spill(path, reference.node());
  TraceRecorder* recorder = nullptr;
  make_real_trace(true, 4, &spill, budget, &recorder);
  ASSERT_TRUE(recorder->has_spilled());
  // The saw-toothing buffer's true high-water: at least the budget (a
  // spill only fires at/above it), well below the full capture cost.
  EXPECT_GE(recorder->peak_retained_bytes(), budget);
  EXPECT_LT(recorder->peak_retained_bytes(), reference.retained_bytes());
  std::remove(path.c_str());
}

TEST(SpillRecorder, ClearResetsSpilledState) {
  const PacketTrace reference = make_real_trace(true, 4);
  const std::string path = temp_path("spill_reclear.dtrc");
  SpillWriter spill(path, reference.node());
  TraceRecorder* recorder = nullptr;
  make_real_trace(true, 4, &spill, reference.retained_bytes() / 5, &recorder);
  ASSERT_TRUE(recorder->has_spilled());
  recorder->clear();
  EXPECT_FALSE(recorder->has_spilled());
  EXPECT_TRUE(recorder->trace().empty());
  EXPECT_TRUE(whole_capture(*recorder).empty());
  EXPECT_FALSE(spill.finished());  // restarted, ready for the next phase
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Scenario wiring: budget resolution and campaign-level equivalence.
// ---------------------------------------------------------------------------

TEST(SpillScenario, ParseByteSizeSuffixes) {
  using sim::parse_byte_size;
  EXPECT_EQ(parse_byte_size("0"), std::size_t{0});
  EXPECT_EQ(parse_byte_size("1024"), std::size_t{1024});
  EXPECT_EQ(parse_byte_size("4k"), std::size_t{4096});
  EXPECT_EQ(parse_byte_size("4K"), std::size_t{4096});
  EXPECT_EQ(parse_byte_size("2m"), std::size_t{2} << 20);
  EXPECT_EQ(parse_byte_size("1G"), std::size_t{1} << 30);
  EXPECT_FALSE(parse_byte_size("").has_value());
  EXPECT_FALSE(parse_byte_size("k").has_value());
  EXPECT_FALSE(parse_byte_size("12x").has_value());
  EXPECT_FALSE(parse_byte_size("1kb").has_value());
  EXPECT_FALSE(parse_byte_size("-1").has_value());
  EXPECT_FALSE(parse_byte_size(" 64k").has_value());
  EXPECT_FALSE(parse_byte_size("17179869184G").has_value());  // 2^64 bytes
}

testbed::ScenarioOptions spill_scenario(std::size_t budget) {
  testbed::ScenarioOptions opt;
  opt.profile = cdn::google_like_profile();
  opt.client_count = 4;
  opt.seed = 4242;
  opt.capture_budget = budget;
  return opt;
}

TEST(SpillScenario, EnvVarSetsBudgetAndOptionWins) {
  setenv("DYNCDN_CAPTURE_BUDGET", "64k", 1);
  testbed::Scenario from_env(spill_scenario(0));
  EXPECT_EQ(from_env.capture_budget(), std::size_t{64} << 10);
  EXPECT_TRUE(from_env.spilling_active());
  testbed::Scenario explicit_opt(spill_scenario(1234));
  EXPECT_EQ(explicit_opt.capture_budget(), 1234u);
  unsetenv("DYNCDN_CAPTURE_BUDGET");
  testbed::Scenario off(spill_scenario(0));
  EXPECT_EQ(off.capture_budget(), 0u);
  EXPECT_FALSE(off.spilling_active());
}

testbed::ExperimentOptions small_experiment() {
  testbed::ExperimentOptions eo;
  eo.reps_per_node = 3;
  eo.interval = 900_ms;
  search::KeywordCatalog catalog(5);
  eo.keywords = {catalog.figure3_keywords().front()};
  return eo;
}

/// One vantage point's per-query timings, bit for bit.
void expect_same_timings(const std::vector<core::QueryTimings>& qa,
                         const std::vector<core::QueryTimings>& qb,
                         const std::string& node) {
  ASSERT_EQ(qa.size(), qb.size()) << node;
  for (std::size_t q = 0; q < qa.size(); ++q) {
    EXPECT_EQ(std::memcmp(&qa[q], &qb[q], sizeof(qa[q])), 0)
        << node << " query " << q;
  }
}

void expect_timings_identical(const testbed::ExperimentResult& a,
                              const testbed::ExperimentResult& b) {
  ASSERT_EQ(a.boundary, b.boundary);
  ASSERT_EQ(a.per_node_timings.size(), b.per_node_timings.size());
  for (std::size_t n = 0; n < a.per_node_timings.size(); ++n) {
    expect_same_timings(a.per_node_timings[n], b.per_node_timings[n],
                        "node " + std::to_string(n));
  }
}

TEST(SpillScenario, BudgetedCampaignMatchesInMemoryAtAnyThreadCount) {
  // The tentpole contract: a campaign whose recorders spill mid-run must
  // produce byte-identical per-query timings to the unbudgeted in-memory
  // run, at 1, 2 and 4 worker threads. The replica split is held fixed
  // (one replica per vantage point, the same plan the unbudgeted base
  // uses): clients share the FE fleet, so changing the *replica* layout
  // legitimately changes the measured packet streams — the invariance
  // contract is over threads, and the spill counters ride on the capture
  // bytes.
  const auto options = small_experiment();
  testbed::ReplicaPlan plan;  // shards = 0: one replica per vantage point
  plan.executor.threads = 1;
  const auto base =
      testbed::run_fixed_fe_experiment(spill_scenario(0), 0, options, plan);

  // A budget this small forces multiple spills per vantage point.
  const std::size_t budget = 8 << 10;
  std::string budgeted_export;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    plan.executor.threads = threads;
    const auto r = testbed::run_fixed_fe_experiment(spill_scenario(budget), 0,
                                                    options, plan);
    expect_timings_identical(base, r);
    EXPECT_GT(r.metrics.counter("spill_bytes_written"), 0u) << threads;
    EXPECT_GT(r.metrics.counter("spill_blocks"), 0u);
    // The compact encoding beats PacketTrace's in-memory accounting.
    EXPECT_GT(r.metrics.counter("spill_raw_bytes"),
              r.metrics.counter("spill_bytes_written"));
    // The whole export — spill counters included — is byte-identical at
    // every thread count.
    const std::string exported = obs::export_prometheus(r.metrics);
    if (budgeted_export.empty()) {
      budgeted_export = exported;
    } else {
      EXPECT_TRUE(budgeted_export == exported)
          << "metrics diverge at " << threads << " threads";
    }
  }
}

TEST(SpillScenario, BoundaryProbeIsNeverSplitByTheBudget) {
  // The boundary probe compares six whole responses of about 30 KB each,
  // kept in its probe scenario's memory whatever the campaign's capture
  // budget: a 4k budget, far below one response, leaves discover_boundary,
  // probe_campaign and a 3-replica campaign on the unbudgeted boundary.
  testbed::ScenarioOptions budgeted = spill_scenario(4 << 10);
  budgeted.capture_payloads = true;
  testbed::ScenarioOptions plain = budgeted;
  plain.capture_budget = 0;  // DYNCDN_CAPTURE_BUDGET when set
  const std::size_t unbudgeted =
      testbed::probe_campaign(plain, 5_s, std::size_t{0}).boundary;
  EXPECT_EQ(unbudgeted, 9033u);

  testbed::Scenario scenario(budgeted);
  scenario.warm_up();
  ASSERT_TRUE(scenario.spilling_active());
  EXPECT_EQ(testbed::discover_boundary(scenario, 0, 0), unbudgeted);
  EXPECT_EQ(testbed::probe_campaign(budgeted, 5_s, std::size_t{0}).boundary,
            unbudgeted);
  testbed::ReplicaPlan plan;
  plan.shards = 3;
  const testbed::ExperimentResult campaign =
      testbed::run_fixed_fe_experiment(budgeted, 0, small_experiment(), plan);
  EXPECT_EQ(campaign.boundary, unbudgeted);
  EXPECT_GT(campaign.metrics.counter("spill_blocks"), 0u);
}

// ---------------------------------------------------------------------------
// Saved traces: a campaign with ExperimentOptions::save_traces writes each
// analyzed vantage point's whole capture to DIR/<name>.dtrc just before
// analyzing it. Under the spill lane's DYNCDN_CAPTURE_BUDGET the capture
// is a spilled prefix plus an in-memory tail, and the file holds both.
// ---------------------------------------------------------------------------

/// A small Bing-like Datasets-A campaign in capture mode, traced and
/// sampled so that every export can be compared.
testbed::ScenarioOptions saved_scenario() {
  testbed::ScenarioOptions so;
  so.profile = cdn::bing_like_profile();
  so.client_count = 7;
  so.seed = 2;
  so.capture_payloads = true;
  so.enable_tracing = true;
  so.ts_interval = 100_ms;
  return so;
}

testbed::ExperimentOptions saved_experiment(const std::string& dir) {
  testbed::ExperimentOptions eo;
  eo.reps_per_node = 3;
  eo.interval = 1200_ms;
  eo.keywords = search::KeywordCatalog(2).figure3_keywords();
  eo.save_traces = dir;
  return eo;
}

/// A fresh path under the temp directory, removed if it exists.
std::filesystem::path fresh_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Every file in `dir`, by name.
std::map<std::string, std::string> file_set(const std::filesystem::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files[entry.path().filename().string()] = read_file(entry.path().string());
  }
  return files;
}

TEST(SavedTraces, ReplayToTheCampaignsTimings) {
  // Offline analysis of each saved file at the campaign's boundary gives
  // that vantage point's timings exactly, at every replica layout; and the
  // files themselves do not depend on the thread count.
  for (const std::size_t shards :
       {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
    std::map<std::string, std::string> at_one_thread;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      if (shards == 1 && threads != 1) continue;  // one replica: no threads
      SCOPED_TRACE("shards " + std::to_string(shards) + ", threads " +
                   std::to_string(threads));
      const auto dir = fresh_dir("dyncdn_saved_traces");
      testbed::ReplicaPlan plan;
      plan.shards = shards;
      plan.executor.threads = threads;
      const auto r = testbed::run_default_fe_experiment(
          saved_scenario(), saved_experiment(dir.string()), plan);
      ASSERT_EQ(r.per_node.size(), 7u);
      for (std::size_t i = 0; i < r.per_node.size(); ++i) {
        const std::string file =
            (dir / (r.per_node[i].node_name + ".dtrc")).string();
        ASSERT_EQ(r.per_node_timings[i].size(), 3u) << file;
        expect_same_timings(
            core::timings_from_timelines(analysis::extract_all_timelines(
                load_trace(file), 80, r.boundary)),
            r.per_node_timings[i], file);
      }
      const auto files = file_set(dir);
      EXPECT_EQ(files.size(), 7u);
      if (threads == 1) {
        at_one_thread = files;
      } else {
        EXPECT_TRUE(files == at_one_thread) << "saved files differ";
      }
      std::filesystem::remove_all(dir);
    }
  }
}

TEST(SavedTraces, SavingDoesNotPerturbTheCampaign) {
  const auto dir = fresh_dir("dyncdn_saved_traces_unperturbed");
  testbed::ReplicaPlan plan;
  plan.executor.threads = 2;
  const auto saved = testbed::run_default_fe_experiment(
      saved_scenario(), saved_experiment(dir.string()), plan);
  const auto plain = testbed::run_default_fe_experiment(
      saved_scenario(), saved_experiment(""), plan);
  expect_timings_identical(plain, saved);
  const auto row = [](const core::NodeAggregate& n) {
    return std::tuple(n.node_name, n.rtt_ms, n.med_static_ms, n.med_dynamic_ms,
                      n.med_delta_ms, n.med_overall_ms, n.samples);
  };
  ASSERT_EQ(saved.per_node.size(), plain.per_node.size());
  for (std::size_t i = 0; i < plain.per_node.size(); ++i) {
    EXPECT_EQ(row(saved.per_node[i]), row(plain.per_node[i])) << i;
  }
  EXPECT_EQ(obs::export_prometheus(saved.metrics),
            obs::export_prometheus(plain.metrics));
  EXPECT_EQ(saved.timeseries.to_json(), plain.timeseries.to_json());
  EXPECT_GT(plain.attribution.queries(), 0u);
  EXPECT_EQ(saved.attribution.to_json(), plain.attribution.to_json());
  std::filesystem::remove_all(dir);
}

TEST(SavedTraces, LeanReplicaSavesTheFullScenariosBytes) {
  // A .dtrc file carries the capture node's id and every packet's id, so a
  // replica that reserves the ids of the vantage points and FEs it does
  // not drive must still save its client's capture byte for byte as the
  // full scenario does.
  const testbed::ScenarioOptions base = saved_scenario();
  const testbed::CampaignProbe probe =
      testbed::probe_campaign(base, 5_s, std::nullopt);
  const std::vector<std::size_t> group = {4};
  const auto dir = fresh_dir("dyncdn_saved_traces_lean");
  std::vector<std::map<std::string, std::string>> saved;
  for (const auto& [name, options] :
       {std::pair{"replica", testbed::replica_options(base, group, probe.fleet,
                                                      std::nullopt)},
        std::pair{"full", base}}) {
    SCOPED_TRACE(name);
    testbed::Scenario scenario(options);
    scenario.warm_up(5_s);
    auto& clients = scenario.clients();
    const auto r = testbed::run_experiment_subset(
        scenario, saved_experiment((dir / name).string()), group,
        [&](std::size_t i) { return clients[i].default_fe; }, probe.boundary);
    ASSERT_EQ(r.per_node_timings.front().size(), 3u);
    saved.push_back(file_set(dir / name));
  }
  ASSERT_EQ(saved[0].size(), 1u);
  EXPECT_TRUE(saved[0] == saved[1]) << "saved captures differ";
  std::filesystem::remove_all(dir);
}

TEST(SavedTraces, StreamingCampaignIsRefused) {
  // A streaming scenario keeps no capture to save: refused before any
  // replica runs a query or writes a file.
  const auto dir = fresh_dir("dyncdn_saved_traces_streaming");
  testbed::ScenarioOptions so = saved_scenario();
  so.stream_analysis = true;
  EXPECT_THROW(testbed::run_default_fe_experiment(
                   so, saved_experiment(dir.string())),
               std::invalid_argument);
  EXPECT_FALSE(std::filesystem::exists(dir));
}

// ---------------------------------------------------------------------------
// Artifact export for the `trace_diff_spilled` ctest entry: one budgeted
// traced run; its spans go to spans.json and its complete capture goes to
// capture.dtrc THROUGH the spill path (budget-spilled prefix + flushed
// tail). `trace_inspect spans --diff` then requires the timelines rebuilt
// from the spilled file to match the live spans at tolerance 0.
// ---------------------------------------------------------------------------

TEST(SpillArtifacts, ExportSpansAndSpilledCaptureForDiff) {
  namespace fs = std::filesystem;
  const char* env = std::getenv("DYNCDN_SPILL_ARTIFACT_DIR");
  const fs::path dir = env != nullptr
                           ? fs::path(env)
                           : fs::temp_directory_path() / "dyncdn_spill_artifacts";
  fs::create_directories(dir);

  testbed::ScenarioOptions so;
  so.profile = cdn::google_like_profile();
  so.client_count = 2;
  so.seed = 7;
  so.capture_payloads = true;
  so.enable_tracing = true;
  so.capture_budget = 8 << 10;  // forced low: several spills per client
  testbed::Scenario scenario(so);
  scenario.warm_up();
  scenario.connect_client_to_fe(0, 0);

  auto& client = scenario.clients()[0];
  const net::Endpoint fe = scenario.fe_endpoint(0);
  const search::KeywordCatalog catalog(9);
  SimTime at = SimTime::zero();
  for (const search::Keyword& kw : catalog.distinct_corpus(4)) {
    client.node->simulator().schedule_in(at, [&client, fe, kw]() {
      client.query_client->submit(fe, kw, [](const cdn::QueryResult&) {});
    });
    at = at + SimTime::milliseconds(1500);
  }
  scenario.run();

  // The diff must exercise a genuinely spilled file, not an in-memory dump.
  ASSERT_TRUE(client.recorder->has_spilled());
  client.spill->append_trace(client.recorder->trace());  // flush the tail
  client.spill->finish();
  fs::copy_file(client.spill->path(), dir / "capture.dtrc",
                fs::copy_options::overwrite_existing);
  EXPECT_TRUE(obs::write_chrome_trace(*scenario.trace(),
                                      (dir / "spans.json").string()));
  EXPECT_TRUE(fs::exists(dir / "capture.dtrc"));
}

}  // namespace
}  // namespace dyncdn::capture

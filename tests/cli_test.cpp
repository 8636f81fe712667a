// The input contract of dyncdn_experiment, trace_inspect and bench_diff,
// driven as subprocesses: numeric flags and the environment variables
// behind them are whole (or, where fractions make sense, finite
// non-negative) numbers, and the files trace_inspect reads back hold
// well-formed numbers, or the run is refused with a message naming the
// input. Nothing is silently coerced to 0 (which for --threads would mean
// "all cores", for a boundary "discover it from the content", and for a
// bench_diff tolerance "fail on any noise").
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <sys/wait.h>

#include "capture/serialize.hpp"
#include "capture/spill.hpp"

namespace {

using namespace dyncdn;

struct CliRun {
  int exit_code = -1;
  std::string output;  // stdout and stderr
};

CliRun run_command(const std::string& command_line) {
  const std::string command = command_line + " 2>&1";
  CliRun run;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buf[512];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) run.output += buf;
  const int status = pclose(pipe);
  if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  return run;
}

CliRun run_experiment(const std::string& env, const std::string& args) {
  return run_command(env + " " DYNCDN_EXPERIMENT_BIN " " + args);
}

CliRun run_trace_inspect(const std::string& args) {
  return run_command(DYNCDN_TRACE_INSPECT_BIN " " + args);
}

CliRun run_bench_diff(const std::string& args) {
  return run_command(DYNCDN_BENCH_DIFF_BIN " " + args);
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream(path) << text;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// One record of a hand-built capture at client node 10, whose connections
/// from `port` go to server node 20, port 80. `flags` is a subset of "SAF".
capture::PacketRecord client_record(std::int64_t ns, bool sent,
                                    net::Port port, std::uint64_t seq,
                                    std::uint64_t ack, const std::string& flags,
                                    std::size_t payload_size) {
  capture::PacketRecord r;
  r.timestamp = sim::SimTime::nanoseconds(ns);
  r.direction = sent ? capture::Direction::kSent : capture::Direction::kReceived;
  r.src = net::NodeId{sent ? 10u : 20u};
  r.dst = net::NodeId{sent ? 20u : 10u};
  r.tcp.src_port = sent ? port : net::Port{80};
  r.tcp.dst_port = sent ? net::Port{80} : port;
  r.tcp.seq = seq;
  r.tcp.ack = ack;
  r.tcp.window = 65535;
  r.tcp.flags.syn = flags.find('S') != std::string::npos;
  r.tcp.flags.ack = flags.find('A') != std::string::npos;
  r.tcp.flags.fin = flags.find('F') != std::string::npos;
  r.payload_size = payload_size;
  return r;
}

/// A fresh, empty scratch directory for one test.
std::filesystem::path scratch_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("dyncdn_cli_test_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(ExperimentCli, MalformedNumericFlagsAreRefused) {
  for (const char* flag :
       {"--clients", "--reps", "--seed", "--threads", "--shards"}) {
    for (const char* bad : {"", "abc", "4x", "-1", " 2", "1.5",
                            "99999999999999999999"}) {
      SCOPED_TRACE(std::string(flag) + "='" + bad + "'");
      const CliRun run =
          run_experiment("", "'" + std::string(flag) + "=" + bad + "'");
      EXPECT_EQ(run.exit_code, 2) << run.output;
      EXPECT_NE(run.output.find(std::string("bad ") + flag + " value"),
                std::string::npos)
          << run.output;
    }
  }
}

TEST(ExperimentCli, MalformedDecimalFlagsAreRefused) {
  for (const char* flag : {"--ts-interval", "--slow-threshold"}) {
    for (const char* bad : {"", "abc", "1.5x", "-1", " 2", "1e400", "inf",
                            "nan"}) {
      SCOPED_TRACE(std::string(flag) + "='" + bad + "'");
      const CliRun run =
          run_experiment("", "'" + std::string(flag) + "=" + bad + "'");
      EXPECT_EQ(run.exit_code, 2) << run.output;
      EXPECT_NE(run.output.find(std::string("bad ") + flag + " value"),
                std::string::npos)
          << run.output;
    }
  }
}

TEST(ExperimentCli, MalformedEnvIsRefused) {
  const std::string tiny =
      "--experiment=default-fe --clients=2 --reps=1 --shards=0";
  const std::pair<const char*, const char*> cases[] = {
      {"DYNCDN_THREADS", " must be a whole number"},
      {"DYNCDN_CAPTURE_BUDGET", " must be a byte count"}};
  for (const auto& [var, complaint] : cases) {
    SCOPED_TRACE(var);
    const CliRun run = run_experiment(std::string(var) + "=abc", tiny);
    EXPECT_EQ(run.exit_code, 1) << run.output;
    EXPECT_NE(run.output.find(std::string(var) + complaint),
              std::string::npos)
        << run.output;
  }
}

TEST(ExperimentCli, WellFormedNumbersRun) {
  const auto dir = scratch_dir("well_formed");
  const CliRun run = run_experiment(
      "DYNCDN_THREADS=2",
      "--experiment=fixed-fe --clients=3 --reps=1 --seed=07 --threads=0 "
      "--shards=1 --ts-interval=50.5 --slow-threshold=0 --ts-out=" +
          (dir / "ts.json").string() +
          " --slow-log=" + (dir / "slow.json").string());
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("seed=7 "), std::string::npos) << run.output;
  std::filesystem::remove_all(dir);
}

TEST(ExperimentCli, RuntimeOutWrapsTheSeriesAndCountsReplicas) {
  // --ts-runtime-out is the --ts-out JSON series byte for byte, plus the
  // executor block, whose task count is the number of replicas run.
  const auto dir = scratch_dir("runtime_out");
  const std::string ts = (dir / "ts.json").string();
  const std::string rt = (dir / "rt.json").string();
  const CliRun run = run_experiment(
      "", "--experiment=default-fe --clients=6 --reps=1 --threads=2 "
          "--ts-out=" + ts + " --ts-runtime-out=" + rt);
  ASSERT_EQ(run.exit_code, 0) << run.output;
  const std::string series = slurp(ts);
  const std::string runtime = slurp(rt);
  ASSERT_FALSE(series.empty());
  const std::string prefix = "{\"timeseries\":" + series +
                             ",\"executor\":{\"workers\":2,\"tasks\":6,"
                             "\"tasks_by_worker\":[";
  EXPECT_TRUE(runtime.starts_with(prefix)) << runtime;
  EXPECT_EQ(runtime.find("steals"), std::string::npos) << runtime;
  const CliRun inspect = run_trace_inspect("timeseries " + rt);
  EXPECT_EQ(inspect.exit_code, 0) << inspect.output;
  std::filesystem::remove_all(dir);
}

TEST(ExperimentCli, ShardsPerScenarioIsAnUnknownArgument) {
  // Scenarios always run on one event kernel, so an in-scenario shard flag
  // must be refused, not silently ignored.
  const CliRun run = run_experiment(
      "", "--experiment=fixed-fe --clients=2 --reps=1 --shards-per-scenario=2");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("unknown argument: --shards-per-scenario=2"),
            std::string::npos)
      << run.output;
}

/// Runs dyncdn_experiment with `flags`, in which '@' stands for a fresh
/// directory that every output points into: the run must exit 2 with
/// `message`, naming the flag and the mode, and leave the directory empty.
void expect_refused(const std::string& test, std::string flags,
                    const std::string& message) {
  const auto dir = scratch_dir(test);
  for (std::size_t at; (at = flags.find('@')) != std::string::npos;) {
    flags.replace(at, 1, dir.string());
  }
  const CliRun run = run_experiment(
      "", "--clients=2 --reps=1 --metrics-out=@/m.prom " + flags);
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find(message), std::string::npos) << run.output;
  EXPECT_TRUE(std::filesystem::is_empty(dir)) << run.output;
  std::filesystem::remove_all(dir);
}

TEST(ExperimentCli, FactoringRefusesSaveTraces) {
  expect_refused("factoring_save",
                 "--experiment=factoring --save-traces=@/traces",
                 "--save-traces is unavailable with --experiment=factoring");
}

TEST(ExperimentCli, CachingRefusesSaveTraces) {
  expect_refused("caching_save", "--experiment=caching --save-traces=@/traces",
                 "--save-traces is unavailable with --experiment=caching");
}

TEST(ExperimentCli, CachingRefusesAttributionOut) {
  expect_refused("caching_attribution",
                 "--experiment=caching --attribution-out=@/a.json",
                 "--attribution-out is unavailable with --experiment=caching");
}

TEST(ExperimentCli, CachingRefusesSlowLog) {
  expect_refused("caching_slow", "--experiment=caching --slow-log=@/s.json",
                 "--slow-log is unavailable with --experiment=caching");
}

TEST(ExperimentCli, CachingRefusesThreads) {
  expect_refused("caching_threads", "--experiment=caching --threads=3",
                 "--threads is unavailable with --experiment=caching");
}

TEST(ExperimentCli, CachingRefusesShards) {
  expect_refused("caching_shards", "--experiment=caching --shards=7",
                 "--shards is unavailable with --experiment=caching");
}

TEST(ExperimentCli, StreamRefusesCaptureBudget) {
  // In either order: a budget bounds the retained capture, which --stream
  // does not keep.
  for (const char* flags : {"--capture-budget=1k --stream",
                            "--stream --capture-budget=1k"}) {
    SCOPED_TRACE(flags);
    expect_refused("stream_budget", flags,
                   "--capture-budget is unavailable with --stream");
  }
}

TEST(ExperimentCli, StreamRefusesSaveTraces) {
  expect_refused("stream_save", "--save-traces=@/traces --stream",
                 "--save-traces is unavailable with --stream");
}

TEST(ExperimentCli, TsIntervalRefusesNoSeriesOut) {
  // A tick with no series to write would only move the run's results.
  expect_refused("ts_interval", "--ts-interval=50",
                 "--ts-interval needs --ts-out or --ts-runtime-out");
}

TEST(ExperimentCli, SlowThresholdRefusesNoSlowLog) {
  expect_refused("slow_threshold", "--slow-threshold=5",
                 "--slow-threshold needs --slow-log");
}

TEST(ExperimentCli, SaveTracesWritesEveryOutput) {
  // A saving run is the campaign itself, captured: each of its 14 vantage
  // points gets a .dtrc file, the attribution and the slow log count its
  // 28 queries, and it writes what the same command with --capture in
  // place of --save-traces writes.
  const auto dir = scratch_dir("save_outputs");
  const auto path = [&dir](const std::string& name) {
    return (dir / name).string();
  };
  // stdout goes to the TSV file; the run's output is its stderr.
  const auto run = [&](const std::string& tag, const std::string& mode) {
    return run_command(
        "(" DYNCDN_EXPERIMENT_BIN " --experiment=default-fe --service=bing "
        "--clients=14 --reps=2 --seed=2 --shards=7 --threads=2 " +
        mode + " --attribution-out=" + path(tag + ".attr.json") +
        " --slow-log=" + path(tag + ".slow.json") + " --metrics-out=" +
        path(tag + ".prom") + " > " + path(tag + ".tsv") + ")");
  };
  const CliRun saved = run("saved", "--save-traces=" + path("traces"));
  ASSERT_EQ(saved.exit_code, 0) << saved.output;
  std::size_t traces = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir / "traces")) {
    traces += entry.path().extension() == ".dtrc" ? 1 : 0;
  }
  EXPECT_EQ(traces, 14u);
  EXPECT_TRUE(slurp(path("saved.attr.json")).starts_with("{\"queries\":28,"))
      << slurp(path("saved.attr.json"));
  EXPECT_TRUE(slurp(path("saved.slow.json")).starts_with("{\"observed\":28,"))
      << slurp(path("saved.slow.json"));

  const CliRun captured = run("captured", "--capture");
  ASSERT_EQ(captured.exit_code, 0) << captured.output;
  EXPECT_NE(slurp(path("saved.tsv")).find("\nnode\trtt_ms\t"),
            std::string::npos);
  for (const char* output : {".tsv", ".prom", ".attr.json", ".slow.json"}) {
    EXPECT_EQ(slurp(path(std::string("saved") + output)),
              slurp(path(std::string("captured") + output)))
        << output;
  }
  std::filesystem::remove_all(dir);
}

TEST(ExperimentCli, FactoringWritesEveryOutput) {
  // Fetch factoring is a Datasets-A campaign over 6 sweep probes, so it
  // writes every output the measurement campaigns write, and its 12
  // queries reach the attribution, the slow log (whose 1 ms threshold
  // promotes them all) and the span dump.
  const auto dir = scratch_dir("factoring_outputs");
  const auto path = [&dir](const char* name) { return (dir / name).string(); };
  const CliRun run = run_experiment(
      "", "--experiment=factoring --service=bing --clients=30 --reps=2 "
          "--seed=4 --threads=2 --metrics-out=" + path("m.prom") +
          " --trace-out=" + path("spans.json") + " --ts-out=" +
          path("ts.json") + " --ts-runtime-out=" + path("rt.json") +
          " --attribution-out=" + path("attr.json") + " --slow-log=" +
          path("slow.json") + " --slow-threshold=1");
  ASSERT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(slurp(path("m.prom")).find("\ndyncdn_queries_analyzed 12\n"),
            std::string::npos);
  EXPECT_TRUE(slurp(path("attr.json")).starts_with("{\"queries\":12,"))
      << slurp(path("attr.json"));
  const std::string slow = slurp(path("slow.json"));
  EXPECT_TRUE(slow.starts_with("{\"observed\":12,\"threshold_ms\":1,"))
      << slow;
  std::size_t promoted = 0;  // one t_dynamic_ms per slow entry
  for (std::size_t at = 0;
       (at = slow.find("\"t_dynamic_ms\":", at)) != std::string::npos; ++at) {
    ++promoted;
  }
  EXPECT_EQ(promoted, 12u) << slow;
  const std::string series = slurp(path("ts.json"));
  ASSERT_FALSE(series.empty());
  EXPECT_TRUE(slurp(path("rt.json")).starts_with("{\"timeseries\":" + series +
                                                 ",\"executor\":"));
  const CliRun inspect = run_trace_inspect("attribution " + path("spans.json"));
  EXPECT_EQ(inspect.exit_code, 0) << inspect.output;
  EXPECT_NE(inspect.output.find("queries=12 "), std::string::npos)
      << inspect.output;
  std::filesystem::remove_all(dir);
}

TEST(TraceInspectCli, MalformedBoundaryIsRefused) {
  // The boundary is parsed before any file is read, so no trace is needed.
  for (const char* bad : {"", "abc", "12x", "-1", " 5", "1.5",
                          "99999999999999999999"}) {
    SCOPED_TRACE(std::string("boundary '") + bad + "'");
    for (const char* mode : {"spans", "attribution"}) {
      const CliRun run = run_trace_inspect(std::string(mode) +
                                           " missing.json '--boundary=" + bad +
                                           "'");
      EXPECT_EQ(run.exit_code, 2) << run.output;
      EXPECT_NE(run.output.find("bad --boundary value"), std::string::npos)
          << run.output;
    }
    const CliRun run =
        run_trace_inspect("missing.dtrc '" + std::string(bad) + "'");
    EXPECT_EQ(run.exit_code, 2) << run.output;
    EXPECT_NE(run.output.find("bad boundary value"), std::string::npos)
        << run.output;
  }
}

TEST(TraceInspectCli, SavedTraceAnalyzesWithDiscoveredOrGivenBoundary) {
  const auto dir = scratch_dir("saved");
  const CliRun saved = run_experiment(
      "", "--experiment=fixed-fe --clients=1 --reps=3 --seed=5 --shards=1 "
          "--save-traces=" +
              dir.string());
  ASSERT_EQ(saved.exit_code, 0) << saved.output;
  std::string trace;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".dtrc") trace = entry.path().string();
  }
  ASSERT_FALSE(trace.empty());

  const CliRun discovered = run_trace_inspect(trace);
  EXPECT_EQ(discovered.exit_code, 0) << discovered.output;
  // The exact boundary: response bytes synthesized wrongly (or lazily
  // written from the wrong inputs) would move the common prefix.
  EXPECT_NE(discovered.output.find(
                "content analysis: static portion = 9033 bytes"),
            std::string::npos)
      << discovered.output;
  const CliRun given = run_trace_inspect(trace + " 1000");
  EXPECT_EQ(given.exit_code, 0) << given.output;
  EXPECT_EQ(given.output.find("content analysis"), std::string::npos)
      << given.output;
  std::filesystem::remove_all(dir);
}

TEST(TraceInspectCli, HeadersOnlyCaptureHasNoBoundary) {
  // Two responses whose payload bytes were not captured: there is nothing
  // to compare, so content analysis finds no boundary.
  const auto dir = scratch_dir("headers_only");
  const std::string path = (dir / "headers_only.dtrc").string();
  capture::PacketTrace trace(net::NodeId{10});
  for (const net::Port port : {40001, 40002}) {
    trace.add(client_record(1000, true, port, 100, 0, "S", 0));
    trace.add(client_record(2000, false, port, 500, 101, "SA", 0));
    trace.add(client_record(3000, true, port, 101, 501, "A", 20));
    trace.add(client_record(4000, false, port, 501, 121, "A", 1448));
  }
  capture::save_trace_dtrc(trace, path);
  const CliRun run = run_trace_inspect(path);
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("no boundary available"), std::string::npos)
      << run.output;
  std::filesystem::remove_all(dir);
}

TEST(TraceInspectCli, MalformedTimeSeriesIsRefused) {
  const auto dir = scratch_dir("timeseries");
  const std::string header = "tick,time_ms,fe_fetch_queue\n";
  const std::string good = header + "0,0,1\n1,100,2.5\n";
  write_file(dir / "good.csv", good);
  const CliRun ok =
      run_trace_inspect("timeseries " + (dir / "good.csv").string());
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
  EXPECT_NE(ok.output.find("interval: 100.000 ms"), std::string::npos)
      << ok.output;
  const struct {
    const char* rows;
    const char* message;
  } cases[] = {{"0,0,1\n1x,100,2\n", "line 3: bad tick '1x'"},
               {"0,0,1\n1,100,2\n2,250,3\n",
                "line 4: time_ms 250 is not tick 2 times the interval of "
                "100000000 ns"},
               {"0,0,1\n-1,100,2\n", "line 3: bad tick '-1'"},
               {"0,0,abc\n", "line 2: bad value 'abc' in column 3"},
               {"0,0,-2\n", "line 2: bad value '-2' in column 3"},
               {"0,zero,2\n", "line 2: bad value 'zero' in column 2"},
               {"0,0\n", "line 2: fewer columns than the header"},
               {"0,0,1,2\n", "line 2: more columns than the header"}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.rows);
    write_file(dir / "bad.csv", header + c.rows);
    const CliRun run =
        run_trace_inspect("timeseries " + (dir / "bad.csv").string());
    EXPECT_EQ(run.exit_code, 1) << run.output;
    EXPECT_NE(run.output.find(c.message), std::string::npos) << run.output;
  }
  std::filesystem::remove_all(dir);
}

TEST(TraceInspectCli, MalformedTimeSeriesJsonIsRefused) {
  const auto dir = scratch_dir("timeseries_json");
  const std::string good =
      "{\"interval_ns\":100000000,\"ticks\":[0,1],"
      "\"channels\":{\"fe_fetch_queue\":[1,2.5],\"be_queue_depth\":[0,3]}}";
  for (const std::string& doc :
       {good, "{\"timeseries\":" + good + ",\"executor\":{\"workers\":1}}"}) {
    write_file(dir / "good.json", doc);
    const CliRun ok =
        run_trace_inspect("timeseries " + (dir / "good.json").string());
    EXPECT_EQ(ok.exit_code, 0) << ok.output;
    EXPECT_NE(ok.output.find("ticks: 2"), std::string::npos) << ok.output;
  }
  const struct {
    const char* doc;
    const char* message;
  } cases[] = {
      {"{\"interval_ns\":\"soon\",\"ticks\":[\"x\",-1,2.5],\"channels\":"
       "{\"fe_fetch_queue\":[1,\"two\"],\"be_queue_depth\":[null,-4,7,9]}}",
       "interval_ns must be a positive whole number"},
      {"{\"interval_ns\":0,\"ticks\":[],\"channels\":{}}",
       "interval_ns must be a positive whole number"},
      {"{\"interval_ns\":2.5,\"ticks\":[],\"channels\":{}}",
       "interval_ns must be a positive whole number"},
      {"{\"ticks\":[],\"channels\":{}}",
       "interval_ns must be a positive whole number"},
      {"{\"interval_ns\":10,\"ticks\":7,\"channels\":{}}",
       "ticks must be an array"},
      {"{\"interval_ns\":10,\"ticks\":[\"x\"],\"channels\":{}}",
       "bad tick at ticks[0]"},
      {"{\"interval_ns\":10,\"ticks\":[0,-1],\"channels\":{}}",
       "bad tick at ticks[1]"},
      {"{\"interval_ns\":10,\"ticks\":[0,2.5],\"channels\":{}}",
       "bad tick at ticks[1]"},
      {"{\"interval_ns\":10,\"ticks\":[0,1]}", "channels must be an object"},
      {"{\"interval_ns\":10,\"ticks\":[0,1],\"channels\":{\"q\":[1]}}",
       "channel q must hold one value per tick"},
      {"{\"interval_ns\":10,\"ticks\":[0,1],\"channels\":{\"q\":[1,2,3]}}",
       "channel q must hold one value per tick"},
      {"{\"interval_ns\":10,\"ticks\":[0,1],\"channels\":{\"q\":[1,\"two\"]}}",
       "bad value at q[1]"},
      {"{\"interval_ns\":10,\"ticks\":[0,1],\"channels\":{\"q\":[null,1]}}",
       "bad value at q[0]"},
      {"{\"interval_ns\":10,\"ticks\":[0,1],\"channels\":{\"q\":[0,-4]}}",
       "bad value at q[1]"}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.doc);
    write_file(dir / "bad.json", c.doc);
    const CliRun run =
        run_trace_inspect("timeseries " + (dir / "bad.json").string());
    EXPECT_EQ(run.exit_code, 1) << run.output;
    EXPECT_NE(run.output.find(c.message), std::string::npos) << run.output;
  }
  std::filesystem::remove_all(dir);
}

TEST(TraceInspectCli, MalformedSpanPortIsRefused) {
  // One tcp.flow span whose local_port is not a port number: the --diff
  // check refuses the span file instead of matching it as port 0.
  const auto dir = scratch_dir("span_port");
  capture::PacketTrace trace(net::NodeId{10});
  trace.add(client_record(1000, true, 40001, 100, 0, "S", 0));
  trace.add(client_record(2000, false, 40001, 500, 101, "SA", 0));
  capture::save_trace_dtrc(trace, (dir / "capture.dtrc").string());
  for (const char* port : {"\"abc\"", "-5", "70000", "1.5"}) {
    SCOPED_TRACE(port);
    write_file(dir / "spans.json",
               std::string("{\"traceEvents\":[\n"
                           "{\"name\":\"tcp.flow\",\"cat\":\"tcp\","
                           "\"ph\":\"X\",\"args\":{\"span_id\":7,"
                           "\"parent\":0,\"start_ns\":0,\"end_ns\":1,"
                           "\"local_port\":") +
                   port + "}}\n]}\n");
    const CliRun run = run_trace_inspect(
        "spans " + (dir / "spans.json").string() + " --diff=" +
        (dir / "capture.dtrc").string() + " --boundary=100");
    EXPECT_EQ(run.exit_code, 1) << run.output;
    EXPECT_NE(run.output.find("span 7: bad local_port value"),
              std::string::npos)
        << run.output;
  }
  std::filesystem::remove_all(dir);
}

TEST(TraceInspectCli, TextCaptureIsRefusedByName) {
  // Captures are read back only as .dtrc; a text dump is refused in every
  // mode that reads one, with a message naming the file.
  const auto dir = scratch_dir("text_capture");
  const std::string path = (dir / "capture.txt").string();
  capture::PacketTrace trace(net::NodeId{10});
  trace.add(client_record(1000, true, 40001, 100, 0, "S", 0));
  capture::save_trace(trace, path);
  write_file(dir / "spans.json", "{\"traceEvents\":[]}");
  const std::string spans = (dir / "spans.json").string();
  for (const std::string& args :
       {path, path + " 1000", "convert " + path + " out.dtrc",
        "spans " + spans + " --diff=" + path,
        "attribution " + spans + " --diff=" + path}) {
    SCOPED_TRACE(args);
    const CliRun run = run_trace_inspect(args);
    EXPECT_EQ(run.exit_code, 1) << run.output;
    EXPECT_NE(run.output.find("(not a .dtrc file): " + path),
              std::string::npos)
        << run.output;
  }
  std::filesystem::remove_all(dir);
}

TEST(TraceInspectCli, DeeplyNestedJsonIsRefused) {
  // Far deeper than any file the library writes: refused as not valid
  // JSON, not a stack overflow.
  const auto dir = scratch_dir("deep_json");
  const std::string path = (dir / "deep.json").string();
  write_file(dir / "deep.json",
             std::string(100000, '[') + std::string(100000, ']'));
  for (const char* mode : {"spans", "attribution", "timeseries", "slow"}) {
    SCOPED_TRACE(mode);
    const CliRun run = run_trace_inspect(std::string(mode) + " " + path);
    EXPECT_EQ(run.exit_code, 1) << run.output;
    EXPECT_NE(run.output.find(path + " is not valid JSON"), std::string::npos)
        << run.output;
  }
  std::filesystem::remove_all(dir);
}

TEST(TraceInspectCli, DeepSpanChainPrints) {
  // A parent chain as deep as the file is long, printed under a 128 KB
  // stack: the tree walk must not recurse once per level.
  const auto dir = scratch_dir("deep_chain");
  const int depth = 3000;
  std::string doc = "{\"traceEvents\":[";
  for (int id = 1; id <= depth; ++id) {
    doc += (id > 1 ? ",\n" : "\n");
    doc += "{\"ph\":\"X\",\"name\":\"s\",\"cat\":\"c\",\"args\":{"
           "\"span_id\":" + std::to_string(id) +
           ",\"parent\":" + std::to_string(id - 1) +
           ",\"start_ns\":0,\"end_ns\":1000}}";
  }
  doc += "]}";
  write_file(dir / "chain.json", doc);
  const std::string out = (dir / "tree.txt").string();
  const CliRun run = run_command("ulimit -s 128 && " DYNCDN_TRACE_INSPECT_BIN
                                 " spans " + (dir / "chain.json").string() +
                                 " > " + out + " && tail -n 1 " + out);
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(run.output, std::string(2 * (depth - 1), ' ') +
                            "[c] s  0.000000 ms  +0.001000 ms\n");
  std::filesystem::remove_all(dir);
}

TEST(TraceInspectCli, SpanModesReadOneRun) {
  // The span readers on real output: a traced run that saved its
  // captures, and a traced run that kept a slow-query log.
  const auto dir = scratch_dir("span_modes");
  const std::string spans = (dir / "spans.json").string();
  const std::string common =
      "--experiment=fixed-fe --service=google --clients=2 --reps=3 --seed=5 "
      "--shards=1 ";
  const CliRun saved = run_experiment(
      "", common + "--save-traces=" + (dir / "traces").string() +
              " --trace-out=" + spans);
  ASSERT_EQ(saved.exit_code, 0) << saved.output;
  std::filesystem::path capture;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir / "traces")) {
    if (entry.path().extension() == ".dtrc") capture = entry.path();
  }
  ASSERT_FALSE(capture.empty());
  const std::string node = capture.stem().string();

  const CliRun tree = run_trace_inspect("spans " + spans + " --tree --diff=" +
                                        capture.string() + " --node=" + node);
  EXPECT_EQ(tree.exit_code, 0) << tree.output;
  EXPECT_NE(tree.output.find("] tcp.flow "), std::string::npos) << tree.output;
  EXPECT_NE(tree.output.find(" 0 mismatched, 0 unmatched"), std::string::npos)
      << tree.output;
  const CliRun attribution = run_trace_inspect(
      "attribution " + spans + " --diff=" + capture.string());
  EXPECT_EQ(attribution.exit_code, 0) << attribution.output;
  EXPECT_NE(attribution.output.find("attribution diff: 3 compared, "
                                    "0 mismatched"),
            std::string::npos)
      << attribution.output;

  const std::string slow = (dir / "slow.json").string();
  const CliRun logged = run_experiment(
      "", common + "--slow-log=" + slow + " --slow-threshold=0.001");
  ASSERT_EQ(logged.exit_code, 0) << logged.output;
  const CliRun slow_tree = run_trace_inspect("slow " + slow + " --tree");
  EXPECT_EQ(slow_tree.exit_code, 0) << slow_tree.output;
  const std::size_t flow = slow_tree.output.find("] tcp.flow ");
  ASSERT_NE(flow, std::string::npos) << slow_tree.output;
  EXPECT_NE(slow_tree.output.find(". rx @", flow), std::string::npos)
      << slow_tree.output;
  EXPECT_NE(slow_tree.output.find(" off=0 len=", flow), std::string::npos)
      << slow_tree.output;
  std::filesystem::remove_all(dir);
}

TEST(ExperimentCli, AttributionCountsCampaignQueriesOnly) {
  // 14 vantage points x 2 queries at three replica layouts. Every replica
  // probes the static/dynamic boundary with 6 queries of its own; none of
  // them may reach the attribution, the slow log or the span dump, so all
  // three count the campaign's 28 queries, and trace_inspect reads the
  // same count back from the dump.
  const auto dir = scratch_dir("campaign_queries");
  for (const int shards : {1, 3, 7}) {
    const std::string tag = std::to_string(shards);
    const std::string attribution = (dir / ("attr" + tag + ".json")).string();
    const std::string slow = (dir / ("slow" + tag + ".json")).string();
    const std::string spans = (dir / ("spans" + tag + ".json")).string();
    const CliRun run = run_experiment(
        "", "--experiment=default-fe --service=bing --clients=14 --reps=2 "
            "--seed=2 --threads=2 --shards=" + tag +
            " --attribution-out=" + attribution + " --slow-log=" + slow +
            " --trace-out=" + spans);
    ASSERT_EQ(run.exit_code, 0) << run.output;
    EXPECT_TRUE(slurp(attribution).starts_with("{\"queries\":28,"))
        << "shards " << shards << ": " << slurp(attribution);
    EXPECT_TRUE(slurp(slow).starts_with("{\"observed\":28,"))
        << "shards " << shards << ": " << slurp(slow);
    const CliRun inspect = run_trace_inspect("attribution " + spans);
    EXPECT_EQ(inspect.exit_code, 0) << inspect.output;
    EXPECT_NE(inspect.output.find("queries=28 "), std::string::npos)
        << "shards " << shards << ": " << inspect.output;
  }
  std::filesystem::remove_all(dir);
}

TEST(BenchDiffCli, MalformedKnobsAreRefused) {
  const auto dir = scratch_dir("bench_diff_knobs");
  const std::string bench =
      "{\"mode\": \"quick\", \"event_kernel\": {\"events_per_sec\": 100}}";
  write_file(dir / "b.json", bench);
  const std::string files =
      (dir / "b.json").string() + " " + (dir / "b.json").string();
  for (const char* knob : {"--tolerance", "--mem-tolerance",
                           "--alloc-tolerance", "--overhead-ceiling"}) {
    for (const char* bad : {"", "abc", "0.1x", "-0.1", "nan"}) {
      SCOPED_TRACE(std::string(knob) + "='" + bad + "'");
      const CliRun run =
          run_bench_diff(files + " '" + knob + "=" + bad + "'");
      EXPECT_EQ(run.exit_code, 2) << run.output;
      EXPECT_NE(run.output.find(std::string("bad ") + knob + " value"),
                std::string::npos)
          << run.output;
    }
    const CliRun ok = run_bench_diff(files + " " + knob + "=0.5");
    EXPECT_EQ(ok.exit_code, 0) << ok.output;
  }
  std::filesystem::remove_all(dir);
}

TEST(BenchDiffCli, WarnsWhenRunDescriptorsDiffer) {
  // A warning per differing descriptor, a missing one included; the gate
  // itself is unchanged: equal metrics pass, a regression still fails.
  const auto dir = scratch_dir("bench_diff_descriptors");
  write_file(dir / "base.json",
             "{\"mode\": \"quick\", \"threads_available\": 1, "
             "\"event_kernel\": {\"events_per_sec\": 1000}}");
  write_file(dir / "cand.json",
             "{\"mode\": \"quick\", \"threads_available\": 4, "
             "\"build_type\": \"Release\", "
             "\"event_kernel\": {\"events_per_sec\": 1000}}");
  write_file(dir / "slow.json",
             "{\"mode\": \"full\", \"threads_available\": 1, "
             "\"event_kernel\": {\"events_per_sec\": 500}}");
  const std::string base = (dir / "base.json").string();
  const CliRun run =
      run_bench_diff(base + " " + (dir / "cand.json").string());
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find(
                "WARNING  threads_available differs: baseline=1 candidate=4"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("WARNING  build_type differs: "
                            "baseline=(missing) candidate=Release"),
            std::string::npos)
      << run.output;
  EXPECT_EQ(run.output.find("WARNING  mode"), std::string::npos)
      << run.output;

  const CliRun same = run_bench_diff(base + " " + base);
  EXPECT_EQ(same.exit_code, 0) << same.output;
  EXPECT_EQ(same.output.find("WARNING"), std::string::npos) << same.output;

  const CliRun slow = run_bench_diff(base + " " + (dir / "slow.json").string());
  EXPECT_EQ(slow.exit_code, 1) << slow.output;
  EXPECT_NE(slow.output.find("WARNING  mode differs: baseline=quick "
                             "candidate=full"),
            std::string::npos)
      << slow.output;
  std::filesystem::remove_all(dir);
}

}  // namespace

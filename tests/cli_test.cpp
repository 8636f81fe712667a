// The input contract of dyncdn_experiment and trace_inspect, driven as
// subprocesses: numeric flags and the environment variables behind them are
// whole numbers or the run is refused with a message naming the input.
// Nothing is silently coerced to 0 (which for --threads would mean "all
// cores", and for a boundary "discover it from the content").
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <sys/wait.h>

namespace {

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

/// A fresh, empty scratch directory for one test.
std::filesystem::path scratch_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("dyncdn_cli_test_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(ExperimentCli, MalformedNumericFlagsAreRefused) {
  for (const char* flag : {"--clients", "--reps", "--seed", "--threads",
                           "--shards", "--shards-per-scenario"}) {
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

TEST(ExperimentCli, MalformedEnvIsRefused) {
  const std::string tiny =
      "--experiment=default-fe --clients=2 --reps=1 --shards=0";
  for (const char* var : {"DYNCDN_THREADS", "DYNCDN_SIM_SHARDS"}) {
    SCOPED_TRACE(var);
    const CliRun run = run_experiment(std::string(var) + "=abc", tiny);
    EXPECT_EQ(run.exit_code, 1) << run.output;
    EXPECT_NE(run.output.find(std::string(var) + " must be a whole number"),
              std::string::npos)
        << run.output;
  }
}

TEST(ExperimentCli, WellFormedNumbersRun) {
  const CliRun run = run_experiment(
      "DYNCDN_THREADS=2",
      "--experiment=fixed-fe --clients=3 --reps=1 --seed=07 --threads=0 "
      "--shards=1 --shards-per-scenario=1");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("seed=7 "), std::string::npos) << run.output;
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
  EXPECT_NE(discovered.output.find("content analysis: static portion = "),
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
  const std::string path = (dir / "headers_only.trace").string();
  {
    std::ofstream out(path);
    out << "# dyncdn-trace v1 node=10\n";
    for (const int port : {40001, 40002}) {
      out << "1000 snd 10 " << port << " 20 80 100 0 65535 S 0\n"
          << "2000 rcv 20 80 10 " << port << " 500 101 65535 SA 0\n"
          << "3000 snd 10 " << port << " 20 80 101 501 65535 A 20\n"
          << "4000 rcv 20 80 10 " << port << " 501 121 65535 A 1448\n";
    }
  }
  const CliRun run = run_trace_inspect(path);
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("no boundary available"), std::string::npos)
      << run.output;
  std::filesystem::remove_all(dir);
}

}  // namespace

// dyncdn_experiment's input contract, driven as a subprocess: numeric flags
// and the environment variables behind them are whole numbers or the run is
// refused with a message naming the input. Nothing is silently coerced to 0
// (which for --threads would mean "all cores").
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <sys/wait.h>

namespace {

struct CliRun {
  int exit_code = -1;
  std::string output;  // stdout and stderr
};

CliRun run_experiment(const std::string& env, const std::string& args) {
  const std::string command =
      env + " " DYNCDN_EXPERIMENT_BIN " " + args + " 2>&1";
  CliRun run;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buf[512];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) run.output += buf;
  const int status = pclose(pipe);
  if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  return run;
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

}  // namespace

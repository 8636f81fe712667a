// Tests for the §6 interactive "search as you type" extension: the typing
// emulator, per-keystroke connections, and the BE's prefix-correlation
// processing discount.
#include <gtest/gtest.h>

#include "cdn/interactive.hpp"
#include "core/timings.hpp"
#include "analysis/timeline.hpp"
#include "net/packet.hpp"
#include "search/keywords.hpp"
#include "testbed/experiment.hpp"
#include "testbed/scenario.hpp"

namespace dyncdn::cdn {
namespace {

struct InteractiveFixture {
  explicit InteractiveFixture(bool correlation = true,
                              std::uint64_t seed = 9) {
    testbed::ScenarioOptions opt;
    opt.profile = google_like_profile();
    if (correlation) opt.profile.processing.correlation_history = 64;
    opt.profile.processing.load.sigma = 0.0;
    opt.profile.fe_service.sigma = 0.0;
    opt.profile.last_mile_min_ms = 2.0;
    opt.profile.last_mile_max_ms = 2.0;
    opt.seed = seed;
    opt.fe_distance_sweep_miles = std::vector<double>{200.0};
    scenario = std::make_unique<testbed::Scenario>(opt);
    scenario->warm_up();
    scenario->connect_client_to_fe(0, 0);
  }

  TypingSessionResult run_typing(const std::string& text,
                                 TypingOptions options = {}) {
    auto& client = scenario->clients().front();
    InteractiveTyper typer(*client.query_client, options, 5);
    TypingSessionResult out;
    typer.type(scenario->fe_endpoint(0),
               search::Keyword{text, search::KeywordClass::kGranular, 500},
               [&](const TypingSessionResult& s) { out = s; });
    scenario->run();
    return out;
  }

  std::unique_ptr<testbed::Scenario> scenario;
};

TEST(InteractiveTyper, OneQueryPerKeystrokeAfterMinPrefix) {
  InteractiveFixture f;
  TypingOptions opt;
  opt.min_prefix = 3;
  const auto session = f.run_typing("abcdef", opt);
  // Prefixes: abc, abcd, abcde, abcdef.
  ASSERT_EQ(session.keystrokes.size(), 4u);
  EXPECT_EQ(session.keystrokes.front().prefix, "abc");
  EXPECT_EQ(session.keystrokes.back().prefix, "abcdef");
  EXPECT_EQ(session.connections, 4u);
}

TEST(InteractiveTyper, PrefixesGrowByOneCharacter) {
  InteractiveFixture f;
  const auto session = f.run_typing("network measurement");
  for (std::size_t i = 1; i < session.keystrokes.size(); ++i) {
    const auto& prev = session.keystrokes[i - 1].prefix;
    const auto& cur = session.keystrokes[i].prefix;
    EXPECT_EQ(cur.size(), prev.size() + 1);
    EXPECT_EQ(cur.substr(0, prev.size()), prev);
  }
}

TEST(InteractiveTyper, EveryKeystrokeQueryCompletes) {
  InteractiveFixture f;
  const auto session = f.run_typing("cloud computing");
  ASSERT_FALSE(session.keystrokes.empty());
  for (const auto& ks : session.keystrokes) {
    EXPECT_FALSE(ks.result.failed) << ks.prefix << ": "
                                   << ks.result.failure_reason;
    EXPECT_EQ(ks.result.status, 200) << ks.prefix;
    EXPECT_GT(ks.result.body_bytes, 0u) << ks.prefix;
  }
}

TEST(InteractiveTyper, EachKeystrokeUsesAFreshConnection) {
  InteractiveFixture f;
  std::size_t syns = 0;
  f.scenario->clients().front().node->add_send_tap(
      [&](const net::PacketPtr& p) {
        if (p->tcp.flags.syn) ++syns;
      });
  const auto session = f.run_typing("galaxy");
  EXPECT_EQ(syns, session.keystrokes.size());
}

TEST(InteractiveTyper, PerKeystrokeDeliveriesFitTheModel) {
  // §6's headline: "the delivery of each query hence still fits our basic
  // model" — every keystroke query yields a valid Fig.-2 timeline.
  InteractiveFixture f;
  const std::size_t boundary = testbed::discover_boundary(*f.scenario, 0, 0);
  f.scenario->clients().front().recorder->clear();

  const auto session = f.run_typing("science");
  const auto timelines = analysis::extract_all_timelines(
      f.scenario->clients().front().recorder->trace(), 80, boundary);
  ASSERT_EQ(timelines.size(), session.keystrokes.size());
  for (const auto& tl : timelines) {
    EXPECT_TRUE(tl.valid) << tl.invalid_reason;
  }
}

TEST(BackendCorrelation, ExtensionsAreDiscounted) {
  InteractiveFixture f(/*correlation=*/true);
  f.run_typing("abcdef");
  const auto& log = f.scenario->backend().query_log();
  ASSERT_GE(log.size(), 3u);
  // First issued prefix is uncorrelated; every extension is correlated.
  std::size_t first = log.size() - 5;  // 5 keystrokes for "abcdef" (min 2)
  EXPECT_FALSE(log[first].correlated);
  for (std::size_t i = first + 1; i < log.size(); ++i) {
    EXPECT_TRUE(log[i].correlated) << log[i].keyword;
    EXPECT_LT(log[i].t_proc.to_milliseconds(),
              0.7 * log[first].t_proc.to_milliseconds());
  }
}

TEST(BackendCorrelation, DisabledByDefault) {
  InteractiveFixture f(/*correlation=*/false);
  f.run_typing("abcdef");
  for (const auto& rec : f.scenario->backend().query_log()) {
    EXPECT_FALSE(rec.correlated);
  }
}

TEST(BackendCorrelation, ExactRepeatIsNotCorrelated) {
  // Personalization: identical queries are regenerated at full cost, which
  // is what keeps the §3 caching experiment clean.
  InteractiveFixture f(/*correlation=*/true);
  auto& client = f.scenario->clients().front();
  const search::Keyword kw{"repeat me", search::KeywordClass::kPopular, 500};
  for (int i = 0; i < 3; ++i) {
    client.query_client->submit(f.scenario->fe_endpoint(0), kw,
                                [](const QueryResult&) {});
    f.scenario->run();
  }
  const auto& log = f.scenario->backend().query_log();
  ASSERT_EQ(log.size(), 3u);
  for (const auto& rec : log) {
    EXPECT_FALSE(rec.correlated) << rec.keyword;
  }
}

TEST(BackendCorrelation, HistoryIsBounded) {
  testbed::ScenarioOptions opt;
  opt.profile = google_like_profile();
  opt.profile.processing.correlation_history = 2;  // tiny window
  opt.profile.processing.load.sigma = 0.0;
  opt.seed = 10;
  opt.fe_distance_sweep_miles = std::vector<double>{200.0};
  testbed::Scenario scenario(opt);
  scenario.warm_up();
  scenario.connect_client_to_fe(0, 0);
  auto& client = scenario.clients().front();

  auto submit = [&](const std::string& text) {
    client.query_client->submit(
        scenario.fe_endpoint(0),
        search::Keyword{text, search::KeywordClass::kPopular, 500},
        [](const QueryResult&) {});
    scenario.run();
  };
  submit("aaa");       // history: [aaa]
  submit("unrelated"); // history: [aaa, unrelated]
  submit("other");     // history: [unrelated, other] — "aaa" evicted
  submit("aaa bbb");   // extends the evicted entry: NOT correlated
  const auto& log = scenario.backend().query_log();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_FALSE(log[3].correlated);
}

TEST(InteractiveTyper, OverlappingKeystrokesAllComplete) {
  // Fast typist: keystroke gaps shorter than a query round trip, so
  // several queries are in flight concurrently.
  InteractiveFixture f;
  TypingOptions opt;
  opt.keystroke_min_ms = 15.0;
  opt.keystroke_max_ms = 25.0;
  const auto session = f.run_typing("fast typing session");
  ASSERT_FALSE(session.keystrokes.empty());
  for (const auto& ks : session.keystrokes) {
    EXPECT_FALSE(ks.result.failed) << ks.prefix;
  }
}

TEST(InteractiveTyper, ShortTextBelowMinPrefixIssuesNothing) {
  InteractiveFixture f;
  TypingOptions opt;
  opt.min_prefix = 10;
  const auto session = f.run_typing("short", opt);
  EXPECT_TRUE(session.keystrokes.empty());
  EXPECT_EQ(session.connections, 0u);
}

}  // namespace
}  // namespace dyncdn::cdn

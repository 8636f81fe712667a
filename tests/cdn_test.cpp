// CDN layer integration tests: BE processing model, FE split-TCP relay,
// static-immediate delivery, caching knob, warm/cold BE connections.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cdn/backend.hpp"
#include "cdn/client.hpp"
#include "cdn/deployment.hpp"
#include "cdn/frontend.hpp"
#include "http/message.hpp"
#include "net/network.hpp"
#include "search/content_model.hpp"
#include "sim/simulator.hpp"

namespace dyncdn::cdn {
namespace {

using sim::SimTime;
using namespace dyncdn::sim::literals;

struct CdnFixture {
  struct Options {
    SimTime client_fe_delay = 20_ms;
    SimTime fe_be_delay = 5_ms;
    std::optional<FrontEndServer::Config> fe_overrides;
    ProcessingModel processing;
    std::uint64_t seed = 3;
  };

  CdnFixture() : CdnFixture(Options{}) {}

  explicit CdnFixture(Options opt)
      : simulator(opt.seed),
        network(simulator),
        content(search::ContentProfile{}, "TestSearch") {
    client_node = &network.add_node("client");
    fe_node = &network.add_node("fe");
    be_node = &network.add_node("be");

    net::LinkConfig access;
    access.propagation_delay = opt.client_fe_delay;
    network.connect(*client_node, *fe_node, access);
    net::LinkConfig internal;
    internal.propagation_delay = opt.fe_be_delay;
    network.connect(*fe_node, *be_node, internal);
    // Direct client<->BE path for the no-FE baseline.
    net::LinkConfig direct;
    direct.propagation_delay = opt.client_fe_delay + opt.fe_be_delay;
    network.connect(*client_node, *be_node, direct);

    BackendDataCenter::Config be_cfg;
    be_cfg.name = "test-be";
    be_cfg.processing = opt.processing;
    backend = std::make_unique<BackendDataCenter>(*be_node, content, be_cfg);

    FrontEndServer::Config fe_cfg =
        opt.fe_overrides.value_or(FrontEndServer::Config{});
    fe_cfg.backend = backend->fetch_endpoint();
    if (fe_cfg.service.median_ms == LoadModel{}.median_ms) {
      fe_cfg.service.median_ms = 2.0;  // keep FE delay small by default
      fe_cfg.service.sigma = 0.0;
    }
    frontend = std::make_unique<FrontEndServer>(*fe_node, content,
                                                std::move(fe_cfg));
    client = std::make_unique<QueryClient>(*client_node);

    // Let the FE's persistent BE connection establish and warm.
    simulator.run_until(simulator.now() + 3_s);
  }

  QueryResult query(const search::Keyword& kw) {
    QueryResult out;
    client->submit(frontend->client_endpoint(), kw,
                   [&](const QueryResult& r) { out = r; });
    simulator.run();
    return out;
  }

  QueryResult query_direct(const search::Keyword& kw) {
    QueryResult out;
    client->submit(backend->direct_endpoint(), kw,
                   [&](const QueryResult& r) { out = r; });
    simulator.run();
    return out;
  }

  sim::Simulator simulator;
  net::Network network;
  search::ContentModel content;
  net::Node* client_node = nullptr;
  net::Node* fe_node = nullptr;
  net::Node* be_node = nullptr;
  std::unique_ptr<BackendDataCenter> backend;
  std::unique_ptr<FrontEndServer> frontend;
  std::unique_ptr<QueryClient> client;
};

const search::Keyword kKeyword{"cloud computing", search::KeywordClass::kPopular,
                               50};

TEST(Backend, DirectServiceReturnsFullPage) {
  CdnFixture f;
  const QueryResult r = f.query_direct(kKeyword);
  EXPECT_FALSE(r.failed) << r.failure_reason;
  EXPECT_EQ(r.status, 200);
  EXPECT_GT(r.body_bytes, f.content.static_prefix().size());
  EXPECT_EQ(f.backend->queries_served(), 1u);
}

TEST(Backend, ProcessingTimeScalesWithWordCount) {
  ProcessingModel pm;
  pm.base_ms = 30;
  pm.per_word_ms = 20;
  pm.load.sigma = 0.0;
  CdnFixture::Options opt;
  opt.processing = pm;
  CdnFixture f(opt);

  f.query(search::Keyword{"one", search::KeywordClass::kPopular, 99});
  f.query(search::Keyword{"one two three four five",
                          search::KeywordClass::kComplex, 99});
  const auto& log = f.backend->query_log();
  ASSERT_GE(log.size(), 2u);
  const double t1 = log[log.size() - 2].t_proc.to_milliseconds();
  const double t2 = log[log.size() - 1].t_proc.to_milliseconds();
  EXPECT_NEAR(t1, 50.0, 1.0);   // 30 + 1*20
  EXPECT_NEAR(t2, 130.0, 1.0);  // 30 + 5*20
}

TEST(Backend, HotKeywordsHitResultCache) {
  ProcessingModel pm;
  pm.base_ms = 100;
  pm.per_word_ms = 0;
  pm.load.sigma = 0.0;
  pm.result_cache_top_rank = 5;
  pm.cached_factor = 0.3;
  CdnFixture::Options opt;
  opt.processing = pm;
  CdnFixture f(opt);

  f.query(search::Keyword{"hot", search::KeywordClass::kPopular, 2});
  f.query(search::Keyword{"cold", search::KeywordClass::kPopular, 5000});
  const auto& log = f.backend->query_log();
  ASSERT_GE(log.size(), 2u);
  EXPECT_NEAR(log[log.size() - 2].t_proc.to_milliseconds(), 30.0, 1.0);
  EXPECT_NEAR(log[log.size() - 1].t_proc.to_milliseconds(), 100.0, 1.0);
}

TEST(Backend, GroundTruthLogMatchesResponse) {
  CdnFixture f;
  const QueryResult r = f.query(kKeyword);
  ASSERT_FALSE(r.failed);
  const auto& log = f.backend->query_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].keyword, kKeyword.text);
  EXPECT_EQ(log[0].processing_done - log[0].request_received, log[0].t_proc);
  EXPECT_EQ(r.body_bytes,
            f.content.static_prefix().size() + log[0].dynamic_bytes);
}

// Every FE's warm-up transfer carries the bytes of the reply the BE used to
// serialize per request, and all of them ride one shared BE buffer.
TEST(Backend, WarmupRepliesShareOneSerializedBuffer) {
  sim::Simulator simulator(11);
  net::Network network(simulator);
  const search::ContentModel content(search::ContentProfile{}, "TestSearch");
  net::Node& be_node = network.add_node("be");
  BackendDataCenter backend(be_node, content, BackendDataCenter::Config{});

  struct Received {
    std::map<std::uint64_t, std::string> by_seq;  // retransmits overwrite
    std::set<const net::ByteBuf*> buffers;
  };
  std::vector<std::unique_ptr<FrontEndServer>> fes;
  std::vector<Received> received(2);
  for (std::size_t i = 0; i < received.size(); ++i) {
    net::Node& node = network.add_node("fe-" + std::to_string(i));
    net::LinkConfig internal;
    internal.propagation_delay = 5_ms;
    network.connect(node, be_node, internal);
    Received* r = &received[i];
    node.add_receive_tap([r](const net::PacketPtr& p) {
      if (p->payload.empty()) return;
      r->by_seq[p->tcp.seq] = p->payload.to_text();
      r->buffers.insert(p->payload.buffer.get());
      for (const net::PayloadSlice& s : p->payload.chain) {
        r->buffers.insert(s.buffer.get());
      }
    });
    FrontEndServer::Config cfg;
    cfg.name = node.name();
    cfg.backend = backend.fetch_endpoint();
    fes.push_back(std::make_unique<FrontEndServer>(node, content, cfg));
  }
  simulator.run_until(3_s);

  http::HttpResponse expected;
  expected.set_header("X-Query-Id", "0");
  expected.set_header("X-Warmup", "1");
  expected.body.assign(128 * 1024, 'w');
  const std::string wire = expected.serialize();
  for (const Received& r : received) {
    std::string got;
    for (const auto& [seq, bytes] : r.by_seq) got += bytes;
    EXPECT_EQ(got, wire);
    EXPECT_EQ(r.buffers.size(), 1u);
  }
  EXPECT_EQ(received[0].buffers, received[1].buffers);
  for (const auto& fe : fes) EXPECT_TRUE(fe->backend_connected());
}

TEST(Frontend, ResponseContainsStaticPrefixThenDynamic) {
  CdnFixture f;
  const QueryResult r = f.query(kKeyword);
  EXPECT_FALSE(r.failed) << r.failure_reason;
  EXPECT_EQ(r.status, 200);
  EXPECT_GT(r.body_bytes, f.content.static_prefix().size());
  EXPECT_EQ(f.frontend->queries_handled(), 1u);
}

TEST(Frontend, FetchLogBoundsTrueFetchTime) {
  CdnFixture f;
  const QueryResult r = f.query(kKeyword);
  ASSERT_FALSE(r.failed);
  const auto& log = f.frontend->fetch_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_GE(log[0].first_byte, log[0].fetch_start);
  EXPECT_GE(log[0].last_byte, log[0].first_byte);
  // True fetch >= BE processing time, plus at least one FE<->BE RTT.
  const double t_fetch = log[0].true_fetch_time().to_milliseconds();
  const double t_proc =
      f.backend->query_log().front().t_proc.to_milliseconds();
  EXPECT_GE(t_fetch, t_proc + 10.0 - 0.5);  // 2 * 5ms fe<->be one-way
}

TEST(Frontend, StaticArrivesBeforeFetchCompletes) {
  // First response byte must reach the client before the FE has even
  // received the dynamic content (the FE's role-1 head start).
  CdnFixture f;
  const QueryResult r = f.query(kKeyword);
  ASSERT_FALSE(r.failed);
  const auto& fetch = f.frontend->fetch_log().front();
  EXPECT_LT(r.first_byte, fetch.last_byte);
}

TEST(Frontend, DeferredStaticAblationDelaysFirstByte) {
  auto first_byte_delay = [](bool immediate) {
    CdnFixture::Options opt;
    FrontEndServer::Config cfg;
    cfg.serve_static_immediately = immediate;
    cfg.service.median_ms = 2.0;
    cfg.service.sigma = 0.0;
    opt.fe_overrides = cfg;
    CdnFixture f(opt);
    const QueryResult r = f.query(kKeyword);
    EXPECT_FALSE(r.failed);
    return (r.first_byte - r.request_sent).to_milliseconds();
  };
  const double immediate = first_byte_delay(true);
  const double deferred = first_byte_delay(false);
  // Deferred static waits for the whole fetch (>= T_proc ~ 40ms more).
  EXPECT_GT(deferred, immediate + 30.0);
}

TEST(Frontend, StoreAndForwardDelaysCompletionNotCorrectness) {
  auto run = [](FrontEndServer::RelayMode mode) {
    CdnFixture::Options opt;
    FrontEndServer::Config cfg;
    cfg.relay_mode = mode;
    cfg.service.median_ms = 2.0;
    cfg.service.sigma = 0.0;
    opt.fe_overrides = cfg;
    CdnFixture f(opt);
    return f.query(kKeyword);
  };
  const QueryResult streaming = run(FrontEndServer::RelayMode::kStreaming);
  const QueryResult buffered =
      run(FrontEndServer::RelayMode::kStoreAndForward);
  EXPECT_FALSE(streaming.failed);
  EXPECT_FALSE(buffered.failed);
  EXPECT_EQ(streaming.body_bytes, buffered.body_bytes);
}

// Both relays under both static policies deliver one response: the head
// and static prefix once, then the dynamic body.
TEST(Frontend, StreamingDeferredStaticSendsHeadOnce) {
  using Mode = FrontEndServer::RelayMode;
  std::size_t dynamic_bytes = 0;
  auto body_bytes = [&dynamic_bytes](Mode mode, bool immediate) {
    CdnFixture::Options opt;
    FrontEndServer::Config cfg;
    cfg.relay_mode = mode;
    cfg.serve_static_immediately = immediate;
    cfg.service.median_ms = 2.0;
    cfg.service.sigma = 0.0;
    opt.fe_overrides = cfg;
    CdnFixture f(opt);
    const QueryResult r = f.query(kKeyword);
    EXPECT_FALSE(r.failed) << r.failure_reason;
    EXPECT_EQ(f.frontend->static_cache_hits(), 0u);  // one serve, a miss
    dynamic_bytes = f.backend->query_log().front().dynamic_bytes;
    EXPECT_EQ(r.body_bytes, f.content.static_prefix().size() + dynamic_bytes);
    return r.body_bytes;
  };
  const std::size_t reference = body_bytes(Mode::kStoreAndForward, true);
  EXPECT_EQ(body_bytes(Mode::kStreaming, true), reference);
  EXPECT_EQ(body_bytes(Mode::kStoreAndForward, false), reference);
  EXPECT_EQ(body_bytes(Mode::kStreaming, false), reference);
}

TEST(Frontend, ResultCacheServesRepeatsLocally) {
  CdnFixture::Options opt;
  FrontEndServer::Config cfg;
  cfg.cache_results = true;
  cfg.service.median_ms = 2.0;
  cfg.service.sigma = 0.0;
  opt.fe_overrides = cfg;
  // Low client RTT: delivery is quick, so the fetch time dominates the
  // overall delay and the cache saving is clearly visible. (At high RTT
  // the fetch hides behind the static delivery — the paper's own point.)
  opt.client_fe_delay = 2_ms;
  CdnFixture f(opt);

  const QueryResult first = f.query(kKeyword);
  const QueryResult second = f.query(kKeyword);
  EXPECT_FALSE(first.failed);
  EXPECT_FALSE(second.failed);
  EXPECT_EQ(f.frontend->cache_hits(), 1u);
  EXPECT_EQ(f.backend->queries_served(), 1u);  // only the miss reached BE
  EXPECT_EQ(first.body_bytes, second.body_bytes);
  // The cached response skips the FE-BE fetch entirely; the saving is the
  // fetch time (~T_proc + RTT_be), while page delivery time is unchanged.
  EXPECT_LT(second.overall_delay().to_milliseconds(),
            first.overall_delay().to_milliseconds() - 25.0);
}

TEST(Frontend, CacheDisabledAlwaysFetches) {
  CdnFixture f;
  f.query(kKeyword);
  f.query(kKeyword);
  EXPECT_EQ(f.frontend->cache_hits(), 0u);
  EXPECT_EQ(f.backend->queries_served(), 2u);
}

// Regression: fe_cache_hits read 0 in every default experiment because only
// the off-by-default result cache was counted. The static-portion cache —
// the paper's core FE mechanism — serves every query; a repeated query from
// the same vantage point must record a hit even with result caching off.
TEST(Frontend, StaticCacheHitsOnRepeatedQuery) {
  CdnFixture f;
  const QueryResult first = f.query(kKeyword);
  EXPECT_FALSE(first.failed);
  EXPECT_EQ(f.frontend->static_cache_hits(), 0u);  // first serve primes
  const QueryResult second = f.query(kKeyword);
  EXPECT_FALSE(second.failed);
  EXPECT_EQ(f.frontend->static_cache_hits(), 1u);
  EXPECT_EQ(f.frontend->cache_hits(), 0u);  // result cache untouched
  EXPECT_EQ(f.backend->queries_served(), 2u);  // both queries still fetched
}

TEST(Frontend, WarmConnectionSpeedsFirstQuery) {
  auto first_query_fetch = [](bool warm) {
    CdnFixture::Options opt;
    FrontEndServer::Config cfg;
    cfg.warm_backend_connection = warm;
    cfg.service.median_ms = 2.0;
    cfg.service.sigma = 0.0;
    // Cold path pays slow-start on the dynamic transfer: shrink the
    // initial window to make the ramp visible.
    cfg.backend_tcp.initial_cwnd_segments = 2;
    cfg.backend_tcp.receive_buffer = 1 << 20;
    opt.fe_overrides = cfg;
    opt.fe_be_delay = 25_ms;  // meaningful internal RTT
    CdnFixture f(opt);
    const QueryResult r = f.query(kKeyword);
    EXPECT_FALSE(r.failed);
    return f.frontend->fetch_log().front().true_fetch_time();
  };
  const SimTime warm = first_query_fetch(true);
  const SimTime cold = first_query_fetch(false);
  // The warmed connection saves at least one slow-start round trip.
  EXPECT_LT(warm + 40_ms, cold);
}

TEST(Frontend, ManyConcurrentClientsAllServed) {
  CdnFixture f;
  int completed = 0;
  for (int i = 0; i < 20; ++i) {
    f.client->submit(f.frontend->client_endpoint(), kKeyword,
                     [&](const QueryResult& r) {
                       EXPECT_FALSE(r.failed) << r.failure_reason;
                       ++completed;
                     });
  }
  f.simulator.run();
  EXPECT_EQ(completed, 20);
  EXPECT_EQ(f.backend->queries_served(), 20u);
  EXPECT_EQ(f.frontend->queries_handled(), 20u);
}

TEST(Frontend, SplitTcpBeatsDirectAtHighClientRtt) {
  CdnFixture::Options opt;
  opt.client_fe_delay = 60_ms;  // distant client
  opt.fe_be_delay = 5_ms;
  CdnFixture f(opt);
  const QueryResult via_fe = f.query(kKeyword);
  const QueryResult direct = f.query_direct(kKeyword);
  ASSERT_FALSE(via_fe.failed);
  ASSERT_FALSE(direct.failed);
  // The direct path pays cold slow start over the full 65ms one-way RTT
  // for the whole page; split TCP confines ramping to the short hops.
  EXPECT_LT(via_fe.overall_delay(), direct.overall_delay());
}

TEST(Deployment, ProfilesEncodeThePaperContrast) {
  const ServiceProfile google = google_like_profile();
  const ServiceProfile bing = bing_like_profile();
  // Bing: closer FEs (full metro coverage) but slower, more variable BE.
  EXPECT_GT(bing.fe_metro_coverage, google.fe_metro_coverage);
  EXPECT_GT(bing.processing.base_ms, 5.0 * google.processing.base_ms);
  EXPECT_GT(bing.fe_service.median_ms, 2.0 * google.fe_service.median_ms);
  EXPECT_GT(bing.fe_service.sigma, google.fe_service.sigma);
  EXPECT_GT(bing.processing.load.sigma, google.processing.load.sigma);
  // Both use the same internal receive window (same Fig. 9 slope).
  EXPECT_EQ(bing.internal_tcp.receive_buffer,
            google.internal_tcp.receive_buffer);
}

TEST(LoadModelTest, BackgroundSwingIsPeriodic) {
  LoadModel m;
  m.load_mean = 1.0;
  m.load_amplitude = 0.4;
  m.load_period_s = 100.0;
  EXPECT_NEAR(m.background_multiplier(SimTime::seconds(0)), 1.0, 1e-9);
  EXPECT_NEAR(m.background_multiplier(SimTime::seconds(25)), 1.4, 1e-9);
  EXPECT_NEAR(m.background_multiplier(SimTime::seconds(75)), 0.6, 1e-9);
  EXPECT_NEAR(m.background_multiplier(SimTime::seconds(100)), 1.0, 1e-6);
}

TEST(LoadModelTest, CongestionPenaltyGrowsWithActive) {
  LoadModel m;
  m.median_ms = 10.0;
  m.sigma = 0.0;
  m.congestion_per_active = 0.1;
  sim::RngStream rng(1);
  const SimTime t0 = m.draw(rng, SimTime::zero(), 0);
  const SimTime t5 = m.draw(rng, SimTime::zero(), 5);
  EXPECT_NEAR(t0.to_milliseconds(), 10.0, 0.01);
  EXPECT_NEAR(t5.to_milliseconds(), 15.0, 0.01);
}

}  // namespace
}  // namespace dyncdn::cdn

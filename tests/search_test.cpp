// Search workload and content-model tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "cdn/deployment.hpp"
#include "search/content_model.hpp"
#include "search/keywords.hpp"

namespace dyncdn::search {
namespace {

TEST(Keywords, WordCount) {
  EXPECT_EQ((Keyword{"computer", KeywordClass::kPopular, 1}).word_count(), 1u);
  EXPECT_EQ((Keyword{"a b c", KeywordClass::kComplex, 1}).word_count(), 3u);
  EXPECT_EQ((Keyword{"", KeywordClass::kPopular, 1}).word_count(), 0u);
}

TEST(Keywords, CatalogIsDeterministic) {
  KeywordCatalog a(42), b(42);
  const auto ka = a.generate(KeywordClass::kComplex, 10);
  const auto kb = b.generate(KeywordClass::kComplex, 10);
  ASSERT_EQ(ka.size(), kb.size());
  for (std::size_t i = 0; i < ka.size(); ++i) {
    EXPECT_EQ(ka[i].text, kb[i].text);
  }
}

TEST(Keywords, DifferentSeedsDifferentCatalogs) {
  KeywordCatalog a(1), b(2);
  const auto ka = a.generate(KeywordClass::kPopular, 20);
  const auto kb = b.generate(KeywordClass::kPopular, 20);
  int same = 0;
  for (std::size_t i = 0; i < ka.size(); ++i) {
    if (ka[i].text == kb[i].text) ++same;
  }
  EXPECT_LT(same, 10);
}

TEST(Keywords, ComplexityClassesHaveExpectedLengths) {
  KeywordCatalog cat(7);
  for (const auto& k : cat.generate(KeywordClass::kPopular, 8)) {
    EXPECT_LE(k.word_count(), 2u);
  }
  for (const auto& k : cat.generate(KeywordClass::kComplex, 8)) {
    EXPECT_GE(k.word_count(), 6u);
  }
}

TEST(Keywords, MixedClassContainsAnd) {
  KeywordCatalog cat(7);
  for (const auto& k : cat.generate(KeywordClass::kMixed, 5)) {
    EXPECT_NE(k.text.find(" and "), std::string::npos) << k.text;
  }
}

TEST(Keywords, Figure3SetHasFourDistinctClasses) {
  KeywordCatalog cat(42);
  const auto kws = cat.figure3_keywords();
  ASSERT_EQ(kws.size(), 4u);
  std::set<KeywordClass> classes;
  for (const auto& k : kws) classes.insert(k.cls);
  EXPECT_EQ(classes.size(), 4u);
}

TEST(Keywords, DistinctCorpusIsDistinct) {
  KeywordCatalog cat(9);
  const auto corpus = cat.distinct_corpus(500);
  std::set<std::string> texts;
  for (const auto& k : corpus) texts.insert(k.text);
  EXPECT_EQ(texts.size(), corpus.size());
}

TEST(Keywords, ZipfSamplingFavorsLowRanks) {
  KeywordCatalog cat(3);
  const auto catalog = cat.generate(KeywordClass::kPopular, 100);
  sim::RngStream rng(11);
  const auto draws = KeywordCatalog::zipf_sample(catalog, 20000, 1.0, rng);
  std::size_t rank1 = 0, rank50 = 0;
  for (const auto& k : draws) {
    if (k.rank == 1) ++rank1;
    if (k.rank == 50) ++rank50;
  }
  EXPECT_GT(rank1, 10 * std::max<std::size_t>(rank50, 1));
}

TEST(Keywords, HigherAlphaSkewsHarder) {
  KeywordCatalog cat(3);
  const auto catalog = cat.generate(KeywordClass::kPopular, 100);
  auto top1_share = [&](double alpha) {
    sim::RngStream rng(11);
    const auto draws = KeywordCatalog::zipf_sample(catalog, 20000, alpha, rng);
    std::size_t rank1 = 0;
    for (const auto& k : draws) {
      if (k.rank == 1) ++rank1;
    }
    return static_cast<double>(rank1) / 20000.0;
  };
  EXPECT_GT(top1_share(1.5), 1.5 * top1_share(0.8));
}

TEST(Keywords, ZipfSampleEmptyCatalogSafe) {
  sim::RngStream rng(1);
  EXPECT_TRUE(KeywordCatalog::zipf_sample({}, 10, 1.0, rng).empty());
}

TEST(ContentModel, StaticPrefixIsStableAndSized) {
  ContentProfile profile;
  profile.static_html_bytes = 9000;
  ContentModel m1(profile, "TestService");
  ContentModel m2(profile, "TestService");
  EXPECT_EQ(m1.static_prefix(), m2.static_prefix());
  EXPECT_NEAR(static_cast<double>(m1.static_prefix().size()), 9000.0, 400.0);
}

TEST(ContentModel, StaticPrefixDiffersAcrossServices) {
  ContentProfile profile;
  ContentModel a(profile, "ServiceA");
  ContentModel b(profile, "ServiceB");
  EXPECT_NE(a.static_prefix(), b.static_prefix());
}

TEST(ContentModel, StaticPrefixContainsMenuBar) {
  ContentModel m(ContentProfile{}, "S");
  EXPECT_NE(m.static_prefix().find("Videos"), std::string::npos);
  EXPECT_NE(m.static_prefix().find("Shopping"), std::string::npos);
  EXPECT_NE(m.static_prefix().find("<!DOCTYPE html>"), std::string::npos);
}

TEST(ContentModel, DynamicBodyEmbedsKeyword) {
  ContentModel m(ContentProfile{}, "S");
  sim::RngStream rng(5);
  const Keyword kw{"galaxy history", KeywordClass::kGranular, 2};
  const std::string body = m.dynamic_body(kw, rng);
  EXPECT_NE(body.find("galaxy history"), std::string::npos);
}

TEST(ContentModel, DynamicBodiesDifferAcrossKeywords) {
  ContentModel m(ContentProfile{}, "S");
  sim::RngStream rng(5);
  const std::string a =
      m.dynamic_body(Keyword{"alpha", KeywordClass::kPopular, 1}, rng);
  const std::string b =
      m.dynamic_body(Keyword{"beta", KeywordClass::kPopular, 1}, rng);
  EXPECT_NE(a, b);
}

TEST(ContentModel, DynamicSizeGrowsWithWordCount) {
  ContentProfile profile;
  profile.dynamic_size_sigma = 0.0;  // deterministic sizes
  ContentModel m(profile, "S");
  sim::RngStream rng(5);
  const std::string small =
      m.dynamic_body(Keyword{"one", KeywordClass::kPopular, 1}, rng);
  const std::string large = m.dynamic_body(
      Keyword{"one two three four five six seven", KeywordClass::kComplex, 1},
      rng);
  EXPECT_GT(large.size(), small.size());
  EXPECT_NEAR(static_cast<double>(large.size()) -
                  static_cast<double>(small.size()),
              6.0 * profile.dynamic_per_word_bytes,
              0.3 * 6.0 * profile.dynamic_per_word_bytes);
}

TEST(ContentModel, ExpectedDynamicBytesFormula) {
  ContentProfile profile;
  profile.dynamic_base_bytes = 1000;
  profile.dynamic_per_word_bytes = 100;
  ContentModel m(profile, "S");
  EXPECT_EQ(m.expected_dynamic_bytes(Keyword{"a b c", {}, 1}), 1300u);
}

TEST(ContentModel, SizeNoiseIsBounded) {
  ContentProfile profile;
  profile.dynamic_size_sigma = 0.05;
  ContentModel m(profile, "S");
  sim::RngStream rng(5);
  const Keyword kw{"noise test", KeywordClass::kPopular, 1};
  const double expected =
      static_cast<double>(m.expected_dynamic_bytes(kw));
  for (int i = 0; i < 50; ++i) {
    const double size = static_cast<double>(m.dynamic_body(kw, rng).size());
    EXPECT_GT(size, expected * 0.75);
    EXPECT_LT(size, expected * 1.35);
  }
}

TEST(ContentModel, DynamicBodiesShareNoLongPrefixAcrossKeywords) {
  // The boundary-discovery invariant: responses to different keywords must
  // diverge almost immediately inside the dynamic portion.
  ContentModel m(ContentProfile{}, "S");
  sim::RngStream rng(5);
  const std::string a =
      m.dynamic_body(Keyword{"alpha", KeywordClass::kPopular, 1}, rng);
  const std::string b =
      m.dynamic_body(Keyword{"beta", KeywordClass::kPopular, 1}, rng);
  std::size_t p = 0;
  while (p < std::min(a.size(), b.size()) && a[p] == b[p]) ++p;
  EXPECT_LT(p, 64u);
}

/// Reference filler: one LCG step and one push_back per letter, a newline
/// after every 73rd produced byte, and the overshooting newline trimmed.
void byte_at_a_time_filler(std::string& out, std::string_view tag,
                           std::size_t bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : tag) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
  }
  std::size_t produced = 0;
  while (produced < bytes) {
    h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    out.push_back(static_cast<char>('a' + ((h >> 33) % 26)));
    ++produced;
    if (produced % 73 == 0) {
      out.push_back('\n');
      ++produced;
    }
  }
  out.resize(out.size() - (produced - bytes));
}

TEST(ContentModel, FillerMatchesByteAtATimeReference) {
  // Every length up to 1200 covers each newline position and every lane
  // remainder several times over.
  const std::string long_tag(200, 'k');
  for (const std::string_view tag :
       {std::string_view(""), std::string_view("a"),
        std::string_view("galaxy — history/3/GoogleLike"),
        std::string_view(long_tag)}) {
    for (const std::string_view start : {"", "<p>already here"}) {
      for (std::size_t bytes = 0; bytes <= 1200; ++bytes) {
        std::string expected(start), got(start);
        byte_at_a_time_filler(expected, tag, bytes);
        append_filler(got, tag, bytes);
        ASSERT_EQ(got, expected) << "tag '" << tag << "', start '" << start
                                 << "', bytes " << bytes;
      }
    }
  }
}

/// FNV-1a over `bytes`, continuing from `h`.
std::uint64_t fnv1a(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
  }
  return h;
}

TEST(ContentModel, DynamicBodyDigestPinned) {
  // Digests of every dynamic body for the figure-3 keywords and a distinct
  // corpus, taken before the filler moved off its byte-at-a-time loop: the
  // synthesized responses, and so every TSV, stay byte-identical.
  const KeywordCatalog catalog(42);
  std::vector<Keyword> keywords = catalog.figure3_keywords();
  for (Keyword& k : catalog.distinct_corpus(32)) keywords.push_back(k);
  const struct {
    cdn::ServiceProfile profile;
    std::uint64_t digest;
  } cases[] = {{cdn::google_like_profile(), 0x1da16aacf52bb915ULL},
               {cdn::bing_like_profile(), 0x14de96e86017a6caULL}};
  for (const auto& c : cases) {
    const ContentModel model(c.profile.content, c.profile.name);
    sim::RngStream rng(2011);
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (const Keyword& k : keywords) h = fnv1a(h, model.dynamic_body(k, rng));
    EXPECT_EQ(h, c.digest) << c.profile.name << " digest 0x" << std::hex << h;
  }
}

/// The body a layout writes through each of its three walks, checked to
/// agree with one another and with the counted size.
std::string written(const BodyLayout& layout) {
  std::string appended = "prefix:";  // append_to must not care what precedes
  layout.append_to(appended);
  std::vector<std::uint8_t> out(layout.size());
  layout.write(out);
  const std::string direct(out.begin(), out.end());
  EXPECT_EQ(appended.substr(7), direct);
  return direct;
}

TEST(BodyLayout, SizeEqualsWrittenLengthOnEveryBranch) {
  // A target below the menu: per_result falls back to 64, below any entry.
  const BodyLayout below{"below the menu", "S", 10, 40};
  const std::string a = written(below);
  EXPECT_EQ(a.size(), below.size());
  EXPECT_GT(a.size(), below.target);
  // entry_size + 10 >= per_result: no result carries filler, and the
  // results overshoot the target, so the ads filler is the 16-byte fallback.
  const BodyLayout no_filler{"cloud computing", "S", 10, 844};
  const std::string b = written(no_filler);
  EXPECT_EQ(b.size(), no_filler.size());
  EXPECT_NE(b.find("<p></p>"), std::string::npos);
  const std::size_t ads = b.find("<div id=\"ads\">") + 14;
  EXPECT_EQ(b.find("</div>", ads), ads + 16);
  // Multi-byte keyword text in a full-sized body with every filler.
  const BodyLayout utf8{
      "caf\xc3\xa9 \xe6\x97\xa5\xe6\x9c\xac\xe8\xaa\x9e", "Svc", 10, 21000};
  const std::string c = written(utf8);
  EXPECT_EQ(c.size(), utf8.size());
  EXPECT_NE(c.find(utf8.keyword), std::string::npos);
  EXPECT_EQ(c.find("<p></p>"), std::string::npos);  // every result filled
  // No result entries at all.
  const BodyLayout empty_page{"x", "S", 0, 500};
  EXPECT_EQ(written(empty_page).size(), empty_page.size());
}

TEST(BodyLayout, LazyBufferHoldsTheDynamicBody) {
  const cdn::ServiceProfile profile = cdn::google_like_profile();
  const ContentModel model(profile.content, profile.name);
  const Keyword kw{"cloud computing", KeywordClass::kPopular, 50};
  sim::RngStream lazy_rng(7), text_rng(7);
  const std::size_t fills = net::bytebuf_fill_count();
  const net::Buffer lazy = model.dynamic_buffer(kw, lazy_rng);
  const std::string text = model.dynamic_body(kw, text_rng);
  EXPECT_EQ(lazy->size(), text.size());
  EXPECT_EQ(net::bytebuf_fill_count(), fills);  // sized, not yet written
  EXPECT_EQ(net::PayloadRef(lazy, 0, lazy->size()).to_text(), text);
  EXPECT_EQ(net::bytebuf_fill_count(), fills + 1);
  // Both took the one size draw: the content streams stay in step.
  EXPECT_EQ(lazy_rng.engine()(), text_rng.engine()());
}

}  // namespace
}  // namespace dyncdn::search

#include "search/content_model.hpp"

#include <algorithm>
#include <array>
#include <cstdint>

namespace dyncdn::search {

namespace {
// The filler stream: an FNV-1a hash of the tag seeds the 64-bit LCG
// h' = kMul * h + kInc; every letter is 'a' + (h >> 33) % 26 of the next
// state, and a newline follows every 73rd produced byte (positions 73,
// 146, ...), which draws no state.
constexpr std::uint64_t kMul = 6364136223846793005ULL;
constexpr std::uint64_t kInc = 1442695040888963407ULL;

/// The LCG advanced k steps at once: h_{n+k} = mul * h_n + add (mod 2^64).
struct LcgJump {
  std::uint64_t mul;
  std::uint64_t add;
};

constexpr LcgJump lcg_jump(unsigned k) {
  LcgJump j{1, 0};
  for (unsigned i = 0; i < k; ++i) {
    j = LcgJump{j.mul * kMul, j.add * kMul + kInc};
  }
  return j;
}

// 'a' + x % 26 for x = h >> 33 < 2^31 with one multiply and a lookup
// instead of a divide: with c = ceil(2^64 / 26), so 26c = 2^64 + 10, and
// x = 26q + r, the product x * c mod 2^64 is r * c + 10q, which lies less
// than 2^30 above r * c. The r * c sit ~2^59 apart, so the product's top
// byte is enough to tell r; kLetters maps each top byte to its letter.
constexpr std::uint64_t kRecip26 = UINT64_C(0xFFFFFFFFFFFFFFFF) / 26 + 1;

constexpr std::array<char, 256> letter_table() {
  std::array<char, 256> t{};
  for (unsigned b = 0; b < 256; ++b) {
    unsigned r = 0;
    while (r + 1 < 26 && ((r + 1) * kRecip26 >> 56) <= b) ++r;
    t[b] = static_cast<char>('a' + r);
  }
  return t;
}

constexpr std::array<char, 256> kLetters = letter_table();

char letter(std::uint64_t h) {
  return kLetters[((h >> 33) * kRecip26) >> 56];
}

/// Writes the letters of the next `n` states after `h` to `p` and returns
/// the last state. Four lanes hold states h_{i+1}..h_{i+4} and each jumps
/// four steps per round, so the four multiply chains run independently
/// instead of one serial chain per byte.
std::uint64_t write_letters(char* p, std::size_t n, std::uint64_t h) {
  constexpr LcgJump j1 = lcg_jump(1), j2 = lcg_jump(2), j3 = lcg_jump(3),
                    j4 = lcg_jump(4);
  std::uint64_t l0 = j1.mul * h + j1.add, l1 = j2.mul * h + j2.add,
                l2 = j3.mul * h + j3.add, l3 = j4.mul * h + j4.add;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    p[i] = letter(l0);
    p[i + 1] = letter(l1);
    p[i + 2] = letter(l2);
    p[i + 3] = letter(l3);
    h = l3;
    l0 = j4.mul * l0 + j4.add;
    l1 = j4.mul * l1 + j4.add;
    l2 = j4.mul * l2 + j4.add;
    l3 = j4.mul * l3 + j4.add;
  }
  for (; i < n; ++i) {
    h = kMul * h + kInc;
    p[i] = letter(h);
  }
  return h;
}
}  // namespace

void append_filler(std::string& out, std::string_view tag, std::size_t bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : tag) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
  }
  const std::size_t start = out.size();
  out.resize(start + bytes);
  char* p = out.data() + start;
  char* const end = p + bytes;
  // Letter runs end at every 73rd produced byte: 73 letters, then a
  // newline and 72 letters per run. Stopping at `end` is the trim.
  std::size_t run = 73;
  while (p != end) {
    const auto n = std::min(run, static_cast<std::size_t>(end - p));
    h = write_letters(p, n, h);
    p += n;
    if (p == end) break;
    *p++ = '\n';
    run = 72;
  }
}

ContentModel::ContentModel(ContentProfile profile, std::string service_name)
    : profile_(profile), service_name_(std::move(service_name)) {
  // Build the static prefix once: doctype, head, CSS, menu bar. This is the
  // portion the FE caches; it must be byte-identical across queries.
  std::string s;
  s += "<!DOCTYPE html>\n<html>\n<head>\n<title>";
  s += service_name_;
  s += " Search</title>\n<meta charset=\"utf-8\">\n<style>\n";
  const std::string css_tag = service_name_ + "/css";
  // Reserve space for the closing boilerplate below.
  const std::size_t boilerplate = 220;
  const std::size_t css_bytes =
      profile_.static_html_bytes > s.size() + boilerplate
          ? profile_.static_html_bytes - s.size() - boilerplate
          : 0;
  s += "/*";
  append_filler(s, css_tag, css_bytes);
  s += "*/\n</style>\n</head>\n<body>\n";
  s += "<div id=\"menubar\">"
       "<a>Web</a><a>Videos</a><a>News</a><a>Shopping</a>"
       "<a>Images</a><a>Maps</a><a>More</a></div>\n";
  s += "<div id=\"results-begin\"></div>\n";
  static_prefix_ = std::move(s);
}

std::size_t ContentModel::expected_dynamic_bytes(const Keyword& keyword) const {
  return profile_.dynamic_base_bytes +
         profile_.dynamic_per_word_bytes * keyword.word_count();
}

std::string ContentModel::dynamic_body(const Keyword& keyword,
                                       sim::RngStream& rng) const {
  const double noise =
      profile_.dynamic_size_sigma > 0.0
          ? rng.lognormal_median(1.0, profile_.dynamic_size_sigma)
          : 1.0;
  const std::size_t target = std::max<std::size_t>(
      256, static_cast<std::size_t>(
               static_cast<double>(expected_dynamic_bytes(keyword)) * noise));

  // Everything is appended straight into `b` (no per-result temporaries):
  // this runs once per query on the backend hot path, and the chained
  // operator+ form cost half a dozen allocations per result entry.
  std::string b;
  b.reserve(target + 256);
  // Keyword-dependent dynamic menu (the paper: "keyword-dependent dynamic
  // menu bar, search results and ads").
  b += "<div id=\"dynmenu\" data-q=\"";
  b += keyword.text;
  b += "\"><a>related:";
  b += keyword.text;
  b += "</a></div>\n";

  const std::size_t per_result =
      (target > b.size())
          ? std::max<std::size_t>(64, (target - b.size() - 64) /
                                          std::max<std::size_t>(
                                              1, profile_.results_per_page))
          : 64;
  std::string tag;  // reused filler seed: "<keyword>/<i>/<service>"
  tag.reserve(keyword.text.size() + service_name_.size() + 8);
  for (std::size_t i = 0; i < profile_.results_per_page; ++i) {
    const std::size_t entry_start = b.size();
    b += "<div class=\"result\" rank=\"";
    b += std::to_string(i + 1);
    b += "\"><h3>";
    b += keyword.text;
    b += " — result ";
    b += std::to_string(i + 1);
    b += "</h3><p>";
    const std::size_t entry_size = b.size() - entry_start;
    if (entry_size + 10 < per_result) {
      tag.clear();
      tag += keyword.text;
      tag += '/';
      tag += std::to_string(i);
      tag += '/';
      tag += service_name_;
      append_filler(b, tag, per_result - entry_size - 10);
    }
    b += "</p></div>\n";
  }
  // The ads filler is sized off the body length *before* the ads div opens
  // (operand evaluation order of the old chained-+ expression).
  const std::size_t before_ads = b.size();
  b += "<div id=\"ads\">";
  tag.clear();
  tag += keyword.text;
  tag += "/ads";
  append_filler(b, tag,
                target > before_ads + 32 ? target - before_ads - 32 : 16);
  b += "</div>\n</body>\n</html>\n";
  return b;
}

}  // namespace dyncdn::search

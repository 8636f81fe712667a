#include "search/content_model.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>

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

/// Writes the first `bytes` bytes of the tag's filler stream to `p`.
void write_filler(char* p, std::string_view tag, std::size_t bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : tag) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
  }
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

/// Counts the body: the walk that sizes a lazy buffer.
class CountSink {
 public:
  static constexpr bool kWrites = false;
  std::size_t size() const { return n_; }
  void text(std::string_view s) { n_ += s.size(); }
  void filler(std::string_view, std::size_t bytes) { n_ += bytes; }

 private:
  std::size_t n_ = 0;
};

/// Writes the body through a pointer into storage of the counted size:
/// the lazy buffer's fill.
class SpanSink {
 public:
  static constexpr bool kWrites = true;
  explicit SpanSink(char* p) : begin_(p), p_(p) {}
  std::size_t size() const { return static_cast<std::size_t>(p_ - begin_); }
  void text(std::string_view s) {
    std::memcpy(p_, s.data(), s.size());
    p_ += s.size();
  }
  void filler(std::string_view tag, std::size_t bytes) {
    write_filler(p_, tag, bytes);
    p_ += bytes;
  }

 private:
  char* begin_;
  char* p_;
};

/// Appends the body to a string: dynamic_body's one walk.
class StringSink {
 public:
  static constexpr bool kWrites = true;
  explicit StringSink(std::string& out) : out_(out) {}
  std::size_t size() const { return out_.size(); }
  void text(std::string_view s) { out_ += s; }
  void filler(std::string_view tag, std::size_t bytes) {
    append_filler(out_, tag, bytes);
  }

 private:
  std::string& out_;
};

/// The dynamic body's layout, the one description every sink walks.
/// Positions are relative to the body's start, as the sizing rules read
/// them; filler tags are built only by sinks that write.
template <class Sink>
void walk_body(const BodyLayout& body, Sink& out) {
  const std::string_view kw = body.keyword;
  const std::size_t start = out.size();
  const auto pos = [&out, start] { return out.size() - start; };
  // Keyword-dependent dynamic menu (the paper: "keyword-dependent dynamic
  // menu bar, search results and ads").
  out.text("<div id=\"dynmenu\" data-q=\"");
  out.text(kw);
  out.text("\"><a>related:");
  out.text(kw);
  out.text("</a></div>\n");

  const std::size_t target = body.target;
  const std::size_t per_result =
      (target > pos())
          ? std::max<std::size_t>(
                64, (target - pos() - 64) /
                        std::max<std::size_t>(1, body.results_per_page))
          : 64;
  std::string tag;  // reused filler seed: "<keyword>/<i>/<service>"
  if constexpr (Sink::kWrites) tag.reserve(kw.size() + body.service.size() + 8);
  for (std::size_t i = 0; i < body.results_per_page; ++i) {
    const std::size_t entry_start = pos();
    const std::string rank = std::to_string(i + 1);
    out.text("<div class=\"result\" rank=\"");
    out.text(rank);
    out.text("\"><h3>");
    out.text(kw);
    out.text(" — result ");
    out.text(rank);
    out.text("</h3><p>");
    const std::size_t entry_size = pos() - entry_start;
    if (entry_size + 10 < per_result) {
      if constexpr (Sink::kWrites) {
        tag.assign(kw);
        tag += '/';
        tag += std::to_string(i);
        tag += '/';
        tag += body.service;
      }
      out.filler(tag, per_result - entry_size - 10);
    }
    out.text("</p></div>\n");
  }
  // The ads filler is sized off the body length *before* the ads div opens
  // (operand evaluation order of the old chained-+ expression).
  const std::size_t before_ads = pos();
  out.text("<div id=\"ads\">");
  if constexpr (Sink::kWrites) {
    tag.assign(kw);
    tag += "/ads";
  }
  out.filler(tag, target > before_ads + 32 ? target - before_ads - 32 : 16);
  out.text("</div>\n</body>\n</html>\n");
}

/// A lazy buffer's recipe: the layout, written on first read.
class LazyBody final : public net::ByteFill {
 public:
  explicit LazyBody(BodyLayout layout) : layout_(std::move(layout)) {}
  void write(std::span<std::uint8_t> out) const override {
    layout_.write(out);
  }

 private:
  BodyLayout layout_;
};
}  // namespace

void append_filler(std::string& out, std::string_view tag, std::size_t bytes) {
  const std::size_t start = out.size();
  out.resize(start + bytes);
  write_filler(out.data() + start, tag, bytes);
}

std::size_t BodyLayout::size() const {
  CountSink sink;
  walk_body(*this, sink);
  return sink.size();
}

void BodyLayout::write(std::span<std::uint8_t> out) const {
  SpanSink sink(reinterpret_cast<char*>(out.data()));
  walk_body(*this, sink);
}

void BodyLayout::append_to(std::string& out) const {
  StringSink sink(out);
  walk_body(*this, sink);
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

BodyLayout ContentModel::dynamic_layout(const Keyword& keyword,
                                        sim::RngStream& rng) const {
  const double noise =
      profile_.dynamic_size_sigma > 0.0
          ? rng.lognormal_median(1.0, profile_.dynamic_size_sigma)
          : 1.0;
  const std::size_t target = std::max<std::size_t>(
      256, static_cast<std::size_t>(
               static_cast<double>(expected_dynamic_bytes(keyword)) * noise));
  return BodyLayout{keyword.text, service_name_, profile_.results_per_page,
                    target};
}

net::Buffer ContentModel::dynamic_buffer(const Keyword& keyword,
                                         sim::RngStream& rng) const {
  BodyLayout layout = dynamic_layout(keyword, rng);
  const std::size_t size = layout.size();
  return net::make_lazy_buffer(size,
                               std::make_unique<LazyBody>(std::move(layout)));
}

std::string ContentModel::dynamic_body(const Keyword& keyword,
                                       sim::RngStream& rng) const {
  const BodyLayout layout = dynamic_layout(keyword, rng);
  // One appending walk into a string reserved past the target, so it never
  // regrows and is never zero-filled ahead of the walk.
  std::string b;
  b.reserve(layout.target + 256);
  layout.append_to(b);
  return b;
}

}  // namespace dyncdn::search

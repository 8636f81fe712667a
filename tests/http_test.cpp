// HTTP message serialization and incremental parsing tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "http/message.hpp"
#include "http/parser.hpp"
#include "net/packet.hpp"

namespace dyncdn::http {
namespace {

/// A real (non-lazy) payload holding `text`.
net::PayloadRef text(std::string_view s) {
  const net::Buffer b = net::make_buffer(s);
  return net::PayloadRef{b, 0, s.size()};
}

TEST(HttpMessage, RequestSerializeRoundTrip) {
  HttpRequest req;
  req.method = "GET";
  req.target = "/search?q=hello";
  req.set_header("Host", "example.com");
  const std::string wire = req.serialize();
  EXPECT_EQ(wire,
            "GET /search?q=hello HTTP/1.1\r\nHost: example.com\r\n\r\n");
}

TEST(HttpMessage, HeaderLookupIsCaseInsensitive) {
  HttpRequest req;
  req.set_header("Content-Length", "42");
  EXPECT_EQ(req.header("content-length").value(), "42");
  EXPECT_EQ(req.header("CONTENT-LENGTH").value(), "42");
  EXPECT_FALSE(req.header("missing").has_value());
}

TEST(HttpMessage, SetHeaderReplacesExisting) {
  HttpResponse resp;
  resp.set_header("X-A", "1");
  resp.set_header("x-a", "2");
  EXPECT_EQ(resp.headers.size(), 1u);
  EXPECT_EQ(resp.header("X-A").value(), "2");
}

TEST(HttpMessage, ResponseSerializeAddsContentLength) {
  HttpResponse resp;
  resp.body = "hello";
  const std::string wire = resp.serialize();
  EXPECT_NE(wire.find("Content-Length: 5\r\n"), std::string::npos);
  EXPECT_NE(wire.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_EQ(wire.substr(wire.size() - 5), "hello");
}

TEST(HttpMessage, SerializeHeadOmitsBody) {
  HttpResponse resp;
  resp.set_header("Connection", "close");
  resp.body = "ignored";
  const std::string head = resp.serialize_head();
  EXPECT_EQ(head.find("ignored"), std::string::npos);
  EXPECT_EQ(head.substr(head.size() - 4), "\r\n\r\n");
}

TEST(HttpMessage, QueryParamExtraction) {
  HttpRequest req;
  req.target = "/search?q=computer+science&rank=3&cls=popular";
  EXPECT_EQ(req.query_param("q").value(), "computer science");
  EXPECT_EQ(req.query_param("rank").value(), "3");
  EXPECT_EQ(req.query_param("cls").value(), "popular");
  EXPECT_FALSE(req.query_param("missing").has_value());
}

TEST(HttpMessage, QueryParamOnTargetWithoutQuery) {
  HttpRequest req;
  req.target = "/plain";
  EXPECT_FALSE(req.query_param("q").has_value());
}

TEST(HttpMessage, UrlEncodeDecodeRoundTrip) {
  const std::string original = "computer & potato 100%";
  const std::string encoded = url_encode(original);
  EXPECT_EQ(encoded.find(' '), std::string::npos);
  EXPECT_EQ(url_decode(encoded), original);
}

TEST(HttpMessage, UrlDecodeHandlesPercent) {
  EXPECT_EQ(url_decode("a%20b"), "a b");
  EXPECT_EQ(url_decode("a+b"), "a b");
  EXPECT_EQ(url_decode("100%25"), "100%");
  EXPECT_EQ(url_decode("%ZZ"), "%ZZ");  // malformed escapes pass through
}

TEST(RequestParser, SingleCompleteRequest) {
  std::vector<HttpRequest> got;
  RequestParser parser([&](HttpRequest r) { got.push_back(std::move(r)); });
  parser.feed("GET /a HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].target, "/a");
  EXPECT_EQ(got[0].header("Host").value(), "x");
  EXPECT_FALSE(parser.mid_message());
}

TEST(RequestParser, ByteAtATimeDelivery) {
  std::vector<HttpRequest> got;
  RequestParser parser([&](HttpRequest r) { got.push_back(std::move(r)); });
  const std::string wire = "GET /slow HTTP/1.1\r\nA: b\r\n\r\n";
  for (const char c : wire) parser.feed(std::string_view(&c, 1));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].target, "/slow");
}

TEST(RequestParser, PipelinedRequests) {
  std::vector<HttpRequest> got;
  RequestParser parser([&](HttpRequest r) { got.push_back(std::move(r)); });
  parser.feed(
      "GET /one HTTP/1.1\r\n\r\nGET /two HTTP/1.1\r\n\r\nGET /three "
      "HTTP/1.1\r\n\r\n");
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[2].target, "/three");
}

TEST(RequestParser, RequestWithBody) {
  std::vector<HttpRequest> got;
  RequestParser parser([&](HttpRequest r) { got.push_back(std::move(r)); });
  parser.feed("POST /q HTTP/1.1\r\nContent-Length: 5\r\n\r\nhel");
  EXPECT_TRUE(got.empty());  // body incomplete
  parser.feed("lo");
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].body, "hello");

  // A Content-Length whose sum with this 58-byte head wraps size_t to 0:
  // the body has not arrived, so nothing is delivered (and nothing is
  // delivered again and again).
  int delivered = 0;
  RequestParser huge([&](HttpRequest) {
    if (++delivered > 1) throw std::logic_error("request delivered again");
  });
  const std::string head =
      "POST /q HTTP/1.1\r\nContent-Length: 18446744073709551558\r\n\r\n";
  ASSERT_EQ(head.size(), 58u);
  EXPECT_NO_THROW(huge.feed(head));
  EXPECT_EQ(delivered, 0);
  EXPECT_TRUE(huge.mid_message());
}

TEST(RequestParser, MalformedRequestLineThrows) {
  RequestParser parser([](HttpRequest) {});
  EXPECT_THROW(parser.feed("NONSENSE\r\n\r\n"), std::runtime_error);
}

TEST(RequestParser, MalformedHeaderThrows) {
  RequestParser parser([](HttpRequest) {});
  EXPECT_THROW(parser.feed("GET / HTTP/1.1\r\nbadheader\r\n\r\n"),
               std::runtime_error);
}

/// Body bytes reach a caller only through on_body_data: `bodies[i]` is
/// what response i streamed, and the completed message carries no body.
struct ResponseEvents {
  std::vector<std::optional<std::size_t>> header_lengths;
  std::string body;  // every response's body bytes, in stream order
  std::vector<std::string> bodies;
  std::vector<HttpResponse> completed;

  ResponseParser::Callbacks callbacks() {
    ResponseParser::Callbacks cb;
    cb.on_headers = [this](const HttpResponse&,
                           std::optional<std::size_t> len) {
      header_lengths.push_back(len);
      bodies.emplace_back();
    };
    cb.on_body_data = [this](const net::PayloadRef& chunk) {
      chunk.append_to(body);
      chunk.append_to(bodies.back());
    };
    cb.on_complete = [this](const HttpResponse& r) {
      EXPECT_TRUE(r.body.empty()) << "parsed responses carry no body";
      completed.push_back(r);
    };
    return cb;
  }
};

TEST(ResponseParser, LengthFramedResponse) {
  ResponseEvents ev;
  ResponseParser parser(ev.callbacks());
  parser.feed(text("HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nbody"));
  ASSERT_EQ(ev.completed.size(), 1u);
  EXPECT_EQ(ev.completed[0].status, 200);
  EXPECT_EQ(ev.bodies[0], "body");
  EXPECT_EQ(ev.header_lengths[0].value(), 4u);
  EXPECT_EQ(ev.body, "body");
}

TEST(ResponseParser, StreamingBodyChunks) {
  ResponseEvents ev;
  ResponseParser parser(ev.callbacks());
  parser.feed(text("HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n"));
  EXPECT_TRUE(ev.completed.empty());
  parser.feed(text("01234"));
  EXPECT_EQ(ev.body, "01234");
  EXPECT_TRUE(ev.completed.empty());
  parser.feed(text("56789"));
  ASSERT_EQ(ev.completed.size(), 1u);
  EXPECT_EQ(ev.bodies[0], "0123456789");
}

TEST(ResponseParser, BackToBackResponsesOnPersistentConnection) {
  ResponseEvents ev;
  ResponseParser parser(ev.callbacks());
  parser.feed(text(
      "HTTP/1.1 200 OK\r\nX-Query-Id: 1\r\nContent-Length: 2\r\n\r\naa"
      "HTTP/1.1 200 OK\r\nX-Query-Id: 2\r\nContent-Length: 3\r\n\r\nbbb"));
  ASSERT_EQ(ev.completed.size(), 2u);
  EXPECT_EQ(ev.completed[0].header("X-Query-Id").value(), "1");
  EXPECT_EQ(ev.bodies[0], "aa");
  EXPECT_EQ(ev.bodies[1], "bbb");
}

TEST(ResponseParser, CloseFramedResponse) {
  ResponseEvents ev;
  ResponseParser parser(ev.callbacks());
  parser.feed(text("HTTP/1.1 200 OK\r\nConnection: close\r\n\r\npartial"));
  EXPECT_FALSE(ev.header_lengths[0].has_value());
  EXPECT_TRUE(ev.completed.empty());
  parser.feed(text(" and more"));
  parser.finish_stream();
  ASSERT_EQ(ev.completed.size(), 1u);
  EXPECT_EQ(ev.bodies[0], "partial and more");
}

TEST(ResponseParser, FinishStreamMidLengthBodyThrows) {
  ResponseEvents ev;
  ResponseParser parser(ev.callbacks());
  parser.feed(text("HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nshort"));
  EXPECT_THROW(parser.finish_stream(), std::runtime_error);
}

TEST(ResponseParser, FinishStreamMidHeadersThrows) {
  ResponseEvents ev;
  ResponseParser parser(ev.callbacks());
  parser.feed(text("HTTP/1.1 200 OK\r\nConn"));
  EXPECT_THROW(parser.finish_stream(), std::runtime_error);
}

TEST(ResponseParser, CleanCloseBetweenResponsesIsFine) {
  ResponseEvents ev;
  ResponseParser parser(ev.callbacks());
  parser.feed(text("HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nx"));
  EXPECT_NO_THROW(parser.finish_stream());
  EXPECT_EQ(ev.completed.size(), 1u);
}

TEST(ResponseParser, BadStatusLineThrows) {
  ResponseEvents ev;
  ResponseParser parser(ev.callbacks());
  EXPECT_THROW(parser.feed(text("GARBAGE\r\n\r\n")), std::runtime_error);
}

TEST(ResponseParser, BadContentLengthThrows) {
  ResponseEvents ev;
  ResponseParser parser(ev.callbacks());
  EXPECT_THROW(
      parser.feed(text("HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\n")),
      std::runtime_error);
}

TEST(ResponseParser, StatusWithoutReasonPhrase) {
  ResponseEvents ev;
  ResponseParser parser(ev.callbacks());
  parser.feed(text("HTTP/1.1 204\r\nContent-Length: 0\r\n\r\n"));
  ASSERT_EQ(ev.completed.size(), 1u);
  EXPECT_EQ(ev.completed[0].status, 204);
}


// ---------------------------------------------------------------------------
// Round-trip property: any serialized message parses back identically, and
// arbitrary segmentation of the byte stream never changes the result.
// ---------------------------------------------------------------------------

class RequestRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(RequestRoundTrip, SerializeParseIdenticalUnderAnySegmentation) {
  const int seed = GetParam();
  std::mt19937 gen(static_cast<unsigned>(seed));
  auto rand_token = [&](int min_len, int max_len) {
    std::uniform_int_distribution<int> len(min_len, max_len);
    std::uniform_int_distribution<int> ch(0, 25);
    std::string s;
    for (int i = 0, n = len(gen); i < n; ++i) {
      s.push_back(static_cast<char>('a' + ch(gen)));
    }
    return s;
  };

  HttpRequest original;
  original.method = gen() % 2 ? "GET" : "POST";
  original.target = "/" + rand_token(1, 12) + "?q=" + rand_token(1, 20);
  std::uniform_int_distribution<int> nheaders(0, 5);
  for (int i = 0, n = nheaders(gen); i < n; ++i) {
    original.set_header("X-" + rand_token(1, 8), rand_token(0, 30));
  }
  if (original.method == "POST") {
    original.body = rand_token(0, 200);
    original.set_header("Content-Length",
                        std::to_string(original.body.size()));
  }

  const std::string wire = original.serialize();
  std::vector<HttpRequest> parsed;
  RequestParser parser([&](HttpRequest r) { parsed.push_back(std::move(r)); });

  // Feed in random-sized chunks.
  std::uniform_int_distribution<std::size_t> chunk(1, 17);
  std::size_t pos = 0;
  while (pos < wire.size()) {
    const std::size_t n = std::min(chunk(gen), wire.size() - pos);
    parser.feed(std::string_view(wire).substr(pos, n));
    pos += n;
  }

  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].method, original.method);
  EXPECT_EQ(parsed[0].target, original.target);
  EXPECT_EQ(parsed[0].body, original.body);
  ASSERT_EQ(parsed[0].headers.size(), original.headers.size());
  for (std::size_t i = 0; i < original.headers.size(); ++i) {
    EXPECT_EQ(parsed[0].headers[i], original.headers[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RequestRoundTrip, ::testing::Range(0, 12));

/// A lazy body of one repeated letter that counts the fills it runs.
class CountingFill final : public net::ByteFill {
 public:
  CountingFill(char letter, int* runs) : letter_(letter), runs_(runs) {}
  void write(std::span<std::uint8_t> out) const override {
    ++*runs_;
    std::fill(out.begin(), out.end(), static_cast<std::uint8_t>(letter_));
  }

 private:
  char letter_;
  int* runs_;
};

class ResponseRoundTrip : public ::testing::TestWithParam<int> {};

// Back-to-back responses, each a real head buffer with a lazy body chained
// after it (as the BE sends them), the last one length- or close-framed.
// Under any chunking the parser hands every body on as slices that add up
// to its length, and reads none of their bytes: no fill runs.
TEST_P(ResponseRoundTrip, SerializeParseIdenticalUnderAnySegmentation) {
  const int seed = GetParam();
  std::mt19937 gen(static_cast<unsigned>(seed + 1000));
  std::uniform_int_distribution<int> body_len(0, 5000);
  const int count = 1 + static_cast<int>(gen() % 3);
  const bool close_framed = gen() % 2 == 0;
  int runs = 0;
  std::vector<HttpResponse> originals;
  net::PayloadRef stream;
  for (int i = 0; i < count; ++i) {
    HttpResponse r;
    r.status = 200;
    r.set_header("Server", "round-trip");
    r.set_header("X-Query-Id", std::to_string(i));
    const char letter = static_cast<char>('a' + i);
    r.body.assign(static_cast<std::size_t>(body_len(gen)), letter);
    std::string head;
    if (close_framed && i == count - 1) {
      head = r.serialize_head();
    } else {
      const std::string wire = r.serialize();
      head = wire.substr(0, wire.size() - r.body.size());
    }
    stream.append(text(head));
    const net::Buffer body = net::make_lazy_buffer(
        r.body.size(), std::make_unique<CountingFill>(letter, &runs));
    stream.append(net::PayloadRef{body, 0, body->size()});
    originals.push_back(std::move(r));
  }

  const std::size_t fills_before = net::bytebuf_fill_count();
  std::vector<HttpResponse> parsed;
  std::vector<net::PayloadRef> bodies;
  std::vector<std::size_t> delivered;
  ResponseParser::Callbacks cb;
  cb.on_headers = [&](const HttpResponse&, std::optional<std::size_t>) {
    bodies.emplace_back();
    delivered.push_back(0);
  };
  cb.on_body_data = [&](const net::PayloadRef& chunk) {
    delivered.back() += chunk.length;
    bodies.back().append(chunk);
  };
  cb.on_complete = [&](const HttpResponse& r) { parsed.push_back(r); };
  ResponseParser parser(std::move(cb));

  std::uniform_int_distribution<std::size_t> chunk(1, 997);
  std::size_t pos = 0;
  while (pos < stream.length) {
    const std::size_t n = std::min(chunk(gen), stream.length - pos);
    parser.feed(stream.slice(pos, n));
    pos += n;
  }
  if (close_framed) parser.finish_stream();
  EXPECT_EQ(runs, 0);
  EXPECT_EQ(net::bytebuf_fill_count(), fills_before);

  ASSERT_EQ(parsed.size(), originals.size());
  int nonempty = 0;
  for (std::size_t i = 0; i < originals.size(); ++i) {
    EXPECT_EQ(parsed[i].status, 200);
    EXPECT_TRUE(parsed[i].body.empty());
    EXPECT_EQ(parsed[i].header("Server").value(), "round-trip");
    EXPECT_EQ(parsed[i].header("X-Query-Id").value(), std::to_string(i));
    EXPECT_EQ(delivered[i], originals[i].body.size());
    // Reading the slices fills each body once, with its own bytes.
    EXPECT_EQ(bodies[i].to_text(), originals[i].body);
    if (!originals[i].body.empty()) ++nonempty;
  }
  EXPECT_EQ(runs, nonempty);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResponseRoundTrip, ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// Mutation: valid request and response streams damaged by bit flips,
// truncations and splices, fed in random chunkings. Every input either
// throws std::runtime_error or parses cleanly; a response stream's body
// slices then tile the bytes after each head exactly. Fixed seeds.
// ---------------------------------------------------------------------------

using dyncdn::testing::mutate;

std::string random_letters(std::mt19937& gen, int min_len, int max_len) {
  std::uniform_int_distribution<int> len(min_len, max_len);
  std::uniform_int_distribution<int> ch(0, 25);
  std::string s;
  for (int i = 0, n = len(gen); i < n; ++i) {
    s.push_back(static_cast<char>('a' + ch(gen)));
  }
  return s;
}

std::string valid_response_stream(std::mt19937& gen) {
  std::string out;
  const int count = 1 + static_cast<int>(gen() % 3);
  for (int i = 0; i < count; ++i) {
    HttpResponse r;
    r.status = gen() % 4 == 0 ? 404 : 200;
    r.set_header("X-Query-Id", std::to_string(gen() % 1000));
    r.body = random_letters(gen, 0, 300);
    if (i == count - 1 && gen() % 2 == 0) {
      r.set_header("Connection", "close");
      out += r.serialize_head();  // read-until-close framing
      out += r.body;
    } else {
      out += r.serialize();
    }
  }
  return out;
}

std::string valid_request_stream(std::mt19937& gen) {
  std::string out;
  const int count = 1 + static_cast<int>(gen() % 3);
  for (int i = 0; i < count; ++i) {
    HttpRequest r;
    r.target = "/search?q=" + random_letters(gen, 1, 12);
    r.set_header("X-Query-Id", std::to_string(gen() % 1000));
    if (gen() % 2 == 0) {
      r.method = "POST";
      r.body = random_letters(gen, 0, 100);
      r.set_header("Content-Length", std::to_string(r.body.size()));
    }
    out += r.serialize();
  }
  return out;
}

TEST(HttpMutation, ResponseStreamsThrowOrTileBodiesExactly) {
  std::mt19937 gen(20111102);
  int rejected = 0;
  int parsed = 0;  // clean inputs that completed at least one response
  for (int iter = 0; iter < 20000; ++iter) {
    const std::string wire = mutate(valid_response_stream(gen), gen);
    // Two buffers, so chunks crossing the cut arrive as chained payloads.
    const std::size_t cut = wire.empty() ? 0 : gen() % (wire.size() + 1);
    const std::string_view view = wire;
    const net::Buffer a = net::make_buffer(view.substr(0, cut));
    const net::Buffer b = net::make_buffer(view.substr(cut));
    net::PayloadRef stream{a, 0, cut};
    stream.append(net::PayloadRef{b, 0, wire.size() - cut});

    std::size_t cursor = 0;    // where the next message starts
    std::size_t head_end = 0;  // end of the current message's head
    std::size_t expect = 0;    // where the next body byte must start
    bool in_body = false;
    std::optional<std::size_t> declared;
    ResponseParser::Callbacks cb;
    cb.on_headers = [&](const HttpResponse&, std::optional<std::size_t> len) {
      const std::size_t blank = wire.find("\r\n\r\n", cursor);
      ASSERT_NE(blank, std::string::npos);
      head_end = expect = blank + 4;
      declared = len;
      in_body = true;
    };
    cb.on_body_data = [&](const net::PayloadRef& chunk) {
      ASSERT_TRUE(in_body);
      const auto piece = [&](const net::Buffer& buf, std::size_t off,
                             std::size_t len) {
        ASSERT_TRUE(buf == a || buf == b);
        EXPECT_EQ((buf == a ? 0 : cut) + off, expect) << "gap or overlap";
        expect += len;
      };
      piece(chunk.buffer, chunk.offset, chunk.first_length());
      for (const net::PayloadSlice& s : chunk.chain) {
        piece(s.buffer, s.offset, s.length);
      }
    };
    bool completed = false;
    cb.on_complete = [&](const HttpResponse&) {
      if (declared) {
        EXPECT_EQ(expect - head_end, *declared);
      }
      cursor = expect;
      in_body = false;
      completed = true;
    };
    ResponseParser parser(std::move(cb));

    std::uniform_int_distribution<std::size_t> chunk(1, 64);
    std::size_t pos = 0;
    bool threw = false;
    try {
      while (pos < stream.length) {
        const std::size_t n = std::min(chunk(gen), stream.length - pos);
        parser.feed(stream.slice(pos, n));
        pos += n;
      }
    } catch (const std::runtime_error&) {
      threw = true;
    }
    if (threw) {
      ++rejected;
      continue;
    }
    if (completed) ++parsed;
    if (in_body) {
      EXPECT_EQ(expect, wire.size()) << "body bytes left undelivered";
    } else {
      EXPECT_EQ(wire.find("\r\n\r\n", cursor), std::string::npos)
          << "a complete head was left unparsed";
    }
    try {
      parser.finish_stream();
    } catch (const std::runtime_error&) {
    }
    if (HasFailure()) {
      ADD_FAILURE() << "iteration " << iter;
      return;
    }
  }
  // Both outcomes occur, so neither check above is vacuous.
  EXPECT_GT(rejected, 1000);
  EXPECT_GT(parsed, 1000);
}

TEST(HttpMutation, RequestStreamsThrowOrParse) {
  std::mt19937 gen(20111103);
  int rejected = 0;
  int clean = 0;  // clean inputs that yielded at least one request
  for (int iter = 0; iter < 20000; ++iter) {
    const std::string wire = mutate(valid_request_stream(gen), gen);
    std::vector<HttpRequest> parsed;
    RequestParser parser(
        [&](HttpRequest r) { parsed.push_back(std::move(r)); });
    std::uniform_int_distribution<std::size_t> chunk(1, 64);
    std::size_t pos = 0;
    try {
      while (pos < wire.size()) {
        const std::size_t n = std::min(chunk(gen), wire.size() - pos);
        parser.feed(std::string_view(wire).substr(pos, n));
        pos += n;
      }
    } catch (const std::runtime_error&) {
      ++rejected;
      continue;
    }
    if (!parsed.empty()) ++clean;
    for (const HttpRequest& r : parsed) {
      std::size_t declared = 0;
      if (const auto cl = r.header("Content-Length")) {
        declared = std::stoull(std::string(*cl));
      }
      EXPECT_EQ(r.body.size(), declared) << "iteration " << iter;
    }
  }
  EXPECT_GT(rejected, 1000);
  EXPECT_GT(clean, 1000);
}

}  // namespace
}  // namespace dyncdn::http

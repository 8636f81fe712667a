// HTTP message serialization and incremental parsing tests.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "http/message.hpp"
#include "http/parser.hpp"

namespace dyncdn::http {
namespace {

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
    cb.on_body_data = [this](std::string_view chunk) {
      body.append(chunk);
      bodies.back().append(chunk);
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
  parser.feed("HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nbody");
  ASSERT_EQ(ev.completed.size(), 1u);
  EXPECT_EQ(ev.completed[0].status, 200);
  EXPECT_EQ(ev.bodies[0], "body");
  EXPECT_EQ(ev.header_lengths[0].value(), 4u);
  EXPECT_EQ(ev.body, "body");
}

TEST(ResponseParser, StreamingBodyChunks) {
  ResponseEvents ev;
  ResponseParser parser(ev.callbacks());
  parser.feed("HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n");
  EXPECT_TRUE(ev.completed.empty());
  parser.feed("01234");
  EXPECT_EQ(ev.body, "01234");
  EXPECT_TRUE(ev.completed.empty());
  parser.feed("56789");
  ASSERT_EQ(ev.completed.size(), 1u);
  EXPECT_EQ(ev.bodies[0], "0123456789");
}

TEST(ResponseParser, BackToBackResponsesOnPersistentConnection) {
  ResponseEvents ev;
  ResponseParser parser(ev.callbacks());
  parser.feed(
      "HTTP/1.1 200 OK\r\nX-Query-Id: 1\r\nContent-Length: 2\r\n\r\naa"
      "HTTP/1.1 200 OK\r\nX-Query-Id: 2\r\nContent-Length: 3\r\n\r\nbbb");
  ASSERT_EQ(ev.completed.size(), 2u);
  EXPECT_EQ(ev.completed[0].header("X-Query-Id").value(), "1");
  EXPECT_EQ(ev.bodies[0], "aa");
  EXPECT_EQ(ev.bodies[1], "bbb");
}

TEST(ResponseParser, CloseFramedResponse) {
  ResponseEvents ev;
  ResponseParser parser(ev.callbacks());
  parser.feed("HTTP/1.1 200 OK\r\nConnection: close\r\n\r\npartial");
  EXPECT_FALSE(ev.header_lengths[0].has_value());
  EXPECT_TRUE(ev.completed.empty());
  parser.feed(" and more");
  parser.finish_stream();
  ASSERT_EQ(ev.completed.size(), 1u);
  EXPECT_EQ(ev.bodies[0], "partial and more");
}

TEST(ResponseParser, FinishStreamMidLengthBodyThrows) {
  ResponseEvents ev;
  ResponseParser parser(ev.callbacks());
  parser.feed("HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nshort");
  EXPECT_THROW(parser.finish_stream(), std::runtime_error);
}

TEST(ResponseParser, FinishStreamMidHeadersThrows) {
  ResponseEvents ev;
  ResponseParser parser(ev.callbacks());
  parser.feed("HTTP/1.1 200 OK\r\nConn");
  EXPECT_THROW(parser.finish_stream(), std::runtime_error);
}

TEST(ResponseParser, CleanCloseBetweenResponsesIsFine) {
  ResponseEvents ev;
  ResponseParser parser(ev.callbacks());
  parser.feed("HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nx");
  EXPECT_NO_THROW(parser.finish_stream());
  EXPECT_EQ(ev.completed.size(), 1u);
}

TEST(ResponseParser, BadStatusLineThrows) {
  ResponseEvents ev;
  ResponseParser parser(ev.callbacks());
  EXPECT_THROW(parser.feed("GARBAGE\r\n\r\n"), std::runtime_error);
}

TEST(ResponseParser, BadContentLengthThrows) {
  ResponseEvents ev;
  ResponseParser parser(ev.callbacks());
  EXPECT_THROW(
      parser.feed("HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\n"),
      std::runtime_error);
}

TEST(ResponseParser, StatusWithoutReasonPhrase) {
  ResponseEvents ev;
  ResponseParser parser(ev.callbacks());
  parser.feed("HTTP/1.1 204\r\nContent-Length: 0\r\n\r\n");
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

class ResponseRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(ResponseRoundTrip, SerializeParseIdenticalUnderAnySegmentation) {
  const int seed = GetParam();
  std::mt19937 gen(static_cast<unsigned>(seed + 1000));
  std::uniform_int_distribution<int> body_len(0, 5000);
  HttpResponse original;
  original.status = 200;
  original.set_header("Server", "round-trip");
  original.body.assign(static_cast<std::size_t>(body_len(gen)), 'b');

  const std::string wire = original.serialize();
  std::vector<HttpResponse> parsed;
  std::string body;
  ResponseParser::Callbacks cb;
  cb.on_body_data = [&](std::string_view chunk) { body.append(chunk); };
  cb.on_complete = [&](const HttpResponse& r) { parsed.push_back(r); };
  ResponseParser parser(std::move(cb));

  std::uniform_int_distribution<std::size_t> chunk(1, 997);
  std::size_t pos = 0;
  while (pos < wire.size()) {
    const std::size_t n = std::min(chunk(gen), wire.size() - pos);
    parser.feed(std::string_view(wire).substr(pos, n));
    pos += n;
  }
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].status, 200);
  EXPECT_EQ(body, original.body);
  EXPECT_TRUE(parsed[0].body.empty());
  EXPECT_EQ(parsed[0].header("Server").value(), "round-trip");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResponseRoundTrip, ::testing::Range(0, 12));

}  // namespace
}  // namespace dyncdn::http

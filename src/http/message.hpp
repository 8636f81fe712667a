// Minimal HTTP/1.1 message model: enough to carry search queries and
// responses with the same framing the paper's tcpdump analysis observed
// (request line + headers, status line + headers + Content-Length body).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dyncdn::http {

using HeaderList = std::vector<std::pair<std::string, std::string>>;

/// Case-insensitive header lookup (HTTP header names are case-insensitive).
std::optional<std::string_view> find_header(const HeaderList& headers,
                                            std::string_view name);

struct HttpRequest {
  std::string method = "GET";
  std::string target = "/";
  std::string version = "HTTP/1.1";
  HeaderList headers;
  std::string body;

  void set_header(std::string name, std::string value);
  std::optional<std::string_view> header(std::string_view name) const {
    return find_header(headers, name);
  }

  /// Wire form: request line, headers, CRLF, body.
  std::string serialize() const;

  /// Extract a query parameter from the target, e.g. q from
  /// "/search?q=hello+world" (with '+' decoded to space, %xx decoded).
  std::optional<std::string> query_param(std::string_view key) const;
};

struct HttpResponse {
  int status = 200;
  std::string reason = "OK";
  std::string version = "HTTP/1.1";
  HeaderList headers;
  /// The body serialize() writes (the BE's shared warm-up reply). Dynamic
  /// bodies never pass through here: the BE sends serialize_head() with a
  /// lazy body buffer chained after it, and a ResponseParser never fills
  /// this field; parsed bodies reach callers only as payload slices
  /// through its on_body_data callback.
  std::string body;

  void set_header(std::string name, std::string value);
  std::optional<std::string_view> header(std::string_view name) const {
    return find_header(headers, name);
  }

  /// Wire form; sets Content-Length from body size if not already present.
  std::string serialize() const;

  /// Header block only (status line + headers + blank line). Used by the FE
  /// server, which sends headers + static prefix before the dynamic body
  /// exists, and by the BE, which chains the body buffer after it;
  /// Content-Length must then be supplied by the caller.
  std::string serialize_head() const;
};

/// Percent+plus decoding for query strings.
std::string url_decode(std::string_view s);
/// Percent+plus encoding for query values.
std::string url_encode(std::string_view s);

}  // namespace dyncdn::http

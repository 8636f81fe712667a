// Incremental HTTP/1.1 parsers.
//
// TCP delivers a byte stream in arbitrary segment-sized pieces; these
// parsers consume those pieces and surface complete messages (requests) or
// streaming events (responses). The response parser reports body progress
// as it arrives — the client emulator needs per-packet body progress to
// build the paper's t3/t4/t5 timeline, not just the completed message —
// as slices of the payload it was fed. It reads only the slices that hold
// status lines and headers: a body slice is handed on by reference and its
// bytes are never touched, so a lazy body buffer (net/packet.hpp) stays
// unwritten unless the caller itself reads it. A parsed HttpResponse
// carries status and headers only; its `body` stays empty.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "http/message.hpp"
#include "net/packet.hpp"

namespace dyncdn::http {

/// Parses a stream of HTTP requests (persistent connections carry several
/// back to back). Feed bytes; completed requests surface via callback.
/// Requests are small and made of real bytes, so this parser buffers them.
class RequestParser {
 public:
  using RequestHandler = std::function<void(HttpRequest)>;

  explicit RequestParser(RequestHandler on_request)
      : on_request_(std::move(on_request)) {}

  /// Consume a chunk of stream bytes. Throws std::runtime_error on
  /// malformed input.
  void feed(std::string_view bytes);

  /// True while a partially received message is pending.
  bool mid_message() const { return !buffer_.empty(); }

 private:
  void try_parse();

  RequestHandler on_request_;
  std::string buffer_;
};

/// Streaming parser for HTTP responses on a connection.
///
/// Two framing modes, chosen per response from its headers:
///  - Content-Length present: the body ends after that many bytes; the
///    parser then resets for the next response (persistent connections).
///  - No Content-Length: read-until-close ("Connection: close" framing, as
///    search front-ends used in the measurement era) — the caller signals
///    the peer's FIN via finish_stream(), which completes the response.
class ResponseParser {
 public:
  struct Callbacks {
    /// Status line + headers complete. `body_length` is the declared
    /// Content-Length, or nullopt for read-until-close framing.
    std::function<void(const HttpResponse&,
                       std::optional<std::size_t> body_length)>
        on_headers;
    /// A piece of the body arrived (already de-framed): a sub-slice of the
    /// fed payload, in stream order. The only way body bytes reach the
    /// caller; the parser has not read them.
    std::function<void(const net::PayloadRef&)> on_body_data;
    /// Full response received: status line and headers, no body.
    std::function<void(const HttpResponse&)> on_complete;
  };

  explicit ResponseParser(Callbacks callbacks)
      : callbacks_(std::move(callbacks)) {}

  /// Consume a piece of the stream. Throws std::runtime_error on malformed
  /// input (bad status line / Content-Length).
  void feed(const net::PayloadRef& data);

  /// The peer closed its half of the connection: completes an in-progress
  /// read-until-close response. Throws if a length-framed body is cut short.
  void finish_stream();

  bool mid_message() const {
    return state_ != State::kHeaders || !buffer_.empty();
  }

  /// Total body bytes received for the in-progress (or last) response.
  std::size_t body_received() const { return body_received_; }

 private:
  enum class State { kHeaders, kBody };

  /// Appends the head bytes of `data` from stream offset `pos` on to
  /// buffer_, parsing the head once its blank line arrives; returns how
  /// many bytes it took.
  std::size_t read_head(const net::PayloadRef& data, std::size_t pos);
  void parse_headers();
  void complete_current();

  Callbacks callbacks_;
  State state_ = State::kHeaders;
  std::string buffer_;  // the current head's bytes so far (never body bytes)
  HttpResponse current_;
  std::optional<std::size_t> body_expected_;  // nullopt = until close
  std::size_t body_received_ = 0;
};

/// Parse the header block of a request (first line + headers). Returns
/// nullopt if the block is incomplete (no CRLFCRLF yet); throws on garbage.
std::optional<HttpRequest> parse_request_head(std::string_view block,
                                              std::size_t* consumed);

}  // namespace dyncdn::http

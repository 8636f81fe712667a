#include "http/parser.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>

namespace dyncdn::http {

namespace {

/// Split "Name: value" lines of a header block into `out`.
void parse_header_lines(std::string_view block, HeaderList& out) {
  while (!block.empty()) {
    const std::size_t eol = block.find("\r\n");
    const std::string_view line =
        (eol == std::string_view::npos) ? block : block.substr(0, eol);
    if (!line.empty()) {
      const std::size_t colon = line.find(':');
      if (colon == std::string_view::npos) {
        throw std::runtime_error("http: malformed header line: " +
                                 std::string(line));
      }
      std::string_view name = line.substr(0, colon);
      std::string_view value = line.substr(colon + 1);
      while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
      out.emplace_back(std::string(name), std::string(value));
    }
    if (eol == std::string_view::npos) break;
    block.remove_prefix(eol + 2);
  }
}

std::optional<std::size_t> parse_content_length(const HeaderList& headers) {
  const auto cl = find_header(headers, "Content-Length");
  if (!cl) return std::nullopt;
  std::size_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(cl->data(), cl->data() + cl->size(), value);
  if (ec != std::errc{} || ptr != cl->data() + cl->size()) {
    throw std::runtime_error("http: bad Content-Length: " + std::string(*cl));
  }
  return value;
}

}  // namespace

std::optional<HttpRequest> parse_request_head(std::string_view block,
                                              std::size_t* consumed) {
  const std::size_t end = block.find("\r\n\r\n");
  if (end == std::string_view::npos) return std::nullopt;
  if (consumed != nullptr) *consumed = end + 4;

  const std::string_view head = block.substr(0, end);
  const std::size_t line_end = head.find("\r\n");
  const std::string_view request_line =
      (line_end == std::string_view::npos) ? head : head.substr(0, line_end);

  HttpRequest req;
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 =
      (sp1 == std::string_view::npos) ? std::string_view::npos
                                      : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    throw std::runtime_error("http: malformed request line: " +
                             std::string(request_line));
  }
  req.method = std::string(request_line.substr(0, sp1));
  req.target = std::string(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
  req.version = std::string(request_line.substr(sp2 + 1));
  if (!req.version.starts_with("HTTP/") || req.target.empty() ||
      req.target.front() != '/') {
    throw std::runtime_error("http: malformed request line: " +
                             std::string(request_line));
  }

  if (line_end != std::string_view::npos) {
    parse_header_lines(head.substr(line_end + 2), req.headers);
  }
  return req;
}

void RequestParser::feed(std::string_view bytes) {
  buffer_.append(bytes);
  try_parse();
}

void RequestParser::try_parse() {
  while (true) {
    std::size_t head_len = 0;
    auto req = parse_request_head(buffer_, &head_len);
    if (!req) return;

    const std::size_t body_len = parse_content_length(req->headers).value_or(0);
    // Body incomplete. Compared without head_len + body_len, which a huge
    // Content-Length wraps to a small number.
    if (body_len > buffer_.size() - head_len) return;

    req->body = buffer_.substr(head_len, body_len);
    buffer_.erase(0, head_len + body_len);
    on_request_(std::move(*req));
  }
}

void ResponseParser::feed(const net::PayloadRef& data) {
  std::size_t pos = 0;
  while (true) {
    if (state_ == State::kHeaders) {
      if (pos == data.length) return;
      pos += read_head(data, pos);
      if (state_ == State::kHeaders) return;  // the head goes on next feed
    }

    // Body: hand the bytes on as a slice. Read-until-close framing takes
    // everything.
    const std::size_t left = data.length - pos;
    const std::size_t want =
        body_expected_ ? *body_expected_ - body_received_ : left;
    const std::size_t take = std::min(want, left);
    if (take > 0) {
      if (callbacks_.on_body_data) {
        if (take == data.length) {
          callbacks_.on_body_data(data);
        } else {
          callbacks_.on_body_data(data.slice(pos, take));
        }
      }
      pos += take;
      body_received_ += take;
    }
    if (!body_expected_ || body_received_ < *body_expected_) {
      return;  // need more bytes (or the peer's FIN)
    }
    complete_current();
  }
}

std::size_t ResponseParser::read_head(const net::PayloadRef& data,
                                      std::size_t pos) {
  std::size_t taken = 0;
  std::size_t start = 0;  // stream offset of the slice being visited
  // Visit the slices from `pos` on until the head's blank line: only
  // slices holding head bytes are read, the body slices after stay unread.
  const auto visit = [&](const net::Buffer& buf, std::size_t off,
                         std::size_t len) {
    const std::size_t first = start;
    start += len;
    const std::size_t from = std::max(first, pos + taken);
    if (from >= start) return true;  // before `pos`
    const std::size_t before = buffer_.size();
    buffer_.append(reinterpret_cast<const char*>(buf->data()) + off +
                       (from - first),
                   start - from);
    // The blank line may straddle the previous piece.
    const std::size_t end =
        buffer_.find("\r\n\r\n", before < 3 ? 0 : before - 3);
    if (end == std::string::npos) {
      taken += start - from;
      return true;
    }
    buffer_.resize(end + 4);  // drop the body bytes that shared the slice
    taken += end + 4 - before;
    parse_headers();
    return false;
  };
  if (visit(data.buffer, data.offset, data.first_length())) {
    for (const net::PayloadSlice& s : data.chain) {
      if (!visit(s.buffer, s.offset, s.length)) break;
    }
  }
  return taken;
}

void ResponseParser::complete_current() {
  if (callbacks_.on_complete) callbacks_.on_complete(current_);
  state_ = State::kHeaders;
  current_ = HttpResponse{};
  body_expected_ = std::nullopt;
  // body_received_ stays readable until the next response's headers parse.
}

void ResponseParser::finish_stream() {
  if (state_ == State::kHeaders) {
    if (!buffer_.empty()) {
      throw std::runtime_error("http: connection closed mid-headers");
    }
    return;  // idle between responses: clean close
  }
  if (body_expected_ && body_received_ < *body_expected_) {
    throw std::runtime_error("http: connection closed mid-body (got " +
                             std::to_string(body_received_) + " of " +
                             std::to_string(*body_expected_) + ")");
  }
  complete_current();
}

void ResponseParser::parse_headers() {
  // buffer_ holds exactly the head, blank line included.
  const std::string_view head =
      std::string_view(buffer_).substr(0, buffer_.size() - 4);

  const std::size_t line_end = head.find("\r\n");
  const std::string_view status_line =
      (line_end == std::string_view::npos) ? head : head.substr(0, line_end);

  const std::size_t sp1 = status_line.find(' ');
  if (sp1 == std::string_view::npos) {
    throw std::runtime_error("http: malformed status line: " +
                             std::string(status_line));
  }
  HttpResponse resp;
  resp.version = std::string(status_line.substr(0, sp1));
  const std::size_t sp2 = status_line.find(' ', sp1 + 1);
  const std::string_view code =
      status_line.substr(sp1 + 1, (sp2 == std::string_view::npos)
                                      ? std::string_view::npos
                                      : sp2 - sp1 - 1);
  resp.status = 0;
  const auto [ptr, ec] =
      std::from_chars(code.data(), code.data() + code.size(), resp.status);
  if (ec != std::errc{} || ptr != code.data() + code.size()) {
    throw std::runtime_error("http: bad status code: " + std::string(code));
  }
  if (sp2 != std::string_view::npos) {
    resp.reason = std::string(status_line.substr(sp2 + 1));
  }
  if (line_end != std::string_view::npos) {
    parse_header_lines(head.substr(line_end + 2), resp.headers);
  }

  current_ = std::move(resp);
  body_expected_ = parse_content_length(current_.headers);
  body_received_ = 0;
  state_ = State::kBody;
  buffer_.clear();

  if (callbacks_.on_headers) callbacks_.on_headers(current_, body_expected_);
}

}  // namespace dyncdn::http

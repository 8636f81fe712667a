#include "capture/serialize.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace dyncdn::capture {

namespace {

constexpr std::string_view kHeaderPrefix = "# dyncdn-trace v1 node=";

std::string flags_to_text(const net::TcpFlags& f) {
  std::string s;
  if (f.syn) s += 'S';
  if (f.ack) s += 'A';
  if (f.fin) s += 'F';
  if (f.rst) s += 'R';
  return s.empty() ? "." : s;
}

void append_hex(std::string& out, std::span<const std::uint8_t> bytes) {
  static const char* digits = "0123456789abcdef";
  for (const std::uint8_t b : bytes) {
    out += digits[b >> 4];
    out += digits[b & 0xF];
  }
}

}  // namespace

std::string serialize_trace(const PacketTrace& trace, bool with_payloads) {
  std::string out;
  out.reserve(trace.size() * 80);
  out += kHeaderPrefix;
  out += std::to_string(trace.node().value());
  out += '\n';

  char buf[192];
  for (const auto& r : trace.records()) {
    std::snprintf(buf, sizeof(buf),
                  "%lld %s %u %u %u %u %llu %llu %u %s %zu",
                  static_cast<long long>(r.timestamp.ns()),
                  r.direction == Direction::kSent ? "snd" : "rcv",
                  r.src.value(), static_cast<unsigned>(r.tcp.src_port),
                  r.dst.value(), static_cast<unsigned>(r.tcp.dst_port),
                  static_cast<unsigned long long>(r.tcp.seq),
                  static_cast<unsigned long long>(r.tcp.ack), r.tcp.window,
                  flags_to_text(r.tcp.flags).c_str(), r.payload_size);
    out += buf;
    if (with_payloads && !r.payload.empty()) {
      out += ' ';
      r.payload.for_each_slice([&out](std::span<const std::uint8_t> span) {
        append_hex(out, span);
      });
    }
    out += '\n';
  }
  return out;
}

void save_trace(const PacketTrace& trace, const std::string& path,
                bool with_payloads) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("save_trace: cannot open " + path);
  const std::string text = serialize_trace(trace, with_payloads);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out) throw std::runtime_error("save_trace: write failed: " + path);
}

}  // namespace dyncdn::capture

// Text dump of a capture (serialize_trace): the exact format, and that a
// capture dumps the same after a .dtrc round trip, which is what
// `trace_inspect convert in.dtrc out.txt` prints. The dump is never read
// back: load_trace refuses it by name.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "capture/recorder.hpp"
#include "capture/serialize.hpp"
#include "capture/spill.hpp"
#include "harness.hpp"
#include "tcp/stack.hpp"

namespace dyncdn::capture {
namespace {

using dyncdn::testing::pattern_text;
using dyncdn::testing::TwoNodeHarness;

/// Produces a real captured trace with handshake, data and teardown.
PacketTrace make_real_trace(bool payloads) {
  static std::unique_ptr<TwoNodeHarness> harness;
  harness = std::make_unique<TwoNodeHarness>();
  RecorderOptions ro;
  ro.capture_payloads = payloads;
  auto recorder = std::make_unique<TraceRecorder>(*harness->client_node,
                                                  harness->simulator, ro);
  harness->server->listen(80, [](tcp::TcpSocket& s) {
    tcp::TcpSocket::Callbacks cb;
    cb.on_data = [&s](net::PayloadRef) {
      s.send_text("response:" + pattern_text(4000));
      s.close();
    };
    s.set_callbacks(std::move(cb));
  });
  tcp::TcpSocket& c =
      harness->client->connect({harness->server_node->id(), 80}, {});
  c.send_text("GET /x HTTP/1.1\r\n\r\n");
  harness->simulator.run();
  return recorder->trace();
}

/// The dump of `trace` after writing it as .dtrc and loading it back.
std::string dump_after_dtrc(const PacketTrace& trace, bool with_payloads) {
  // One file per test: ctest runs the callers in parallel processes.
  const std::string path =
      ::testing::TempDir() + "dyncdn_dump_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".dtrc";
  save_trace_dtrc(trace, path);
  const std::string text = serialize_trace(load_trace(path), with_payloads);
  std::remove(path.c_str());
  return text;
}

TEST(TraceSerialize, GoldenTextDump) {
  // perf_smoke's spill_compression_x divides by this format's size, so
  // its bytes are pinned.
  PacketTrace trace(net::NodeId{3});
  PacketRecord syn;
  syn.timestamp = sim::SimTime::nanoseconds(1000);
  syn.src = net::NodeId{3};
  syn.dst = net::NodeId{2};
  syn.tcp.src_port = 40000;
  syn.tcp.dst_port = 80;
  syn.tcp.seq = 7;
  syn.tcp.window = 65535;
  syn.tcp.flags.syn = true;
  trace.add(syn);
  PacketRecord data;
  data.timestamp = sim::SimTime::nanoseconds(2500);
  data.direction = Direction::kReceived;
  data.src = net::NodeId{2};
  data.dst = net::NodeId{3};
  data.tcp.src_port = 80;
  data.tcp.dst_port = 40000;
  data.tcp.seq = 501;
  data.tcp.ack = 8;
  data.tcp.window = 1024;
  data.tcp.flags.ack = true;
  data.tcp.flags.fin = true;
  data.payload_size = 3;
  data.payload = net::PayloadRef{net::make_buffer("OK\n"), 0, 3};
  trace.add(data);

  EXPECT_EQ(serialize_trace(trace, true),
            "# dyncdn-trace v1 node=3\n"
            "1000 snd 3 40000 2 80 7 0 65535 S 0\n"
            "2500 rcv 2 80 3 40000 501 8 1024 AF 3 4f4b0a\n");
  EXPECT_EQ(serialize_trace(trace, false),
            "# dyncdn-trace v1 node=3\n"
            "1000 snd 3 40000 2 80 7 0 65535 S 0\n"
            "2500 rcv 2 80 3 40000 501 8 1024 AF 3\n");
}

TEST(TraceSerialize, RoundTripWithPayloads) {
  const PacketTrace original = make_real_trace(true);
  ASSERT_GT(original.size(), 5u);
  const std::string text = serialize_trace(original, true);
  EXPECT_TRUE(dump_after_dtrc(original, true) == text);
}

TEST(TraceSerialize, RoundTripHeadersOnly) {
  const PacketTrace original = make_real_trace(false);
  const std::string text = serialize_trace(original, true);
  // Nothing retained, so no record line carries payload hex.
  EXPECT_EQ(text, serialize_trace(original, false));
  EXPECT_TRUE(dump_after_dtrc(original, true) == text);
}

TEST(TraceSerialize, EmptyTraceRoundTrips) {
  const PacketTrace empty(net::NodeId{7});
  EXPECT_EQ(serialize_trace(empty), "# dyncdn-trace v1 node=7\n");
  EXPECT_EQ(dump_after_dtrc(empty, true), "# dyncdn-trace v1 node=7\n");
}

TEST(TraceSerialize, LoadRefusesTextDumpNamingTheFile) {
  const PacketTrace original = make_real_trace(true);
  const std::string path = ::testing::TempDir() + "dyncdn_trace_test.txt";
  save_trace(original, path);
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(std::string(std::istreambuf_iterator<char>(in), {}) ==
              serialize_trace(original, true));
  try {
    load_trace(path);
    FAIL() << "a text dump was read back";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("(not a .dtrc file): " + path),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(TraceSerialize, LoadMissingFileThrows) {
  EXPECT_THROW(load_trace("/nonexistent/path/trace.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace dyncdn::capture

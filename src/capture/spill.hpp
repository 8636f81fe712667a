// Durable traces: spill-to-disk columnar trace format (.dtrc).
//
// The paper's methodology is capture-then-analyze: every vantage point
// keeps a full tcpdump and all decomposition happens offline, reading
// each capture from start to end. This module is the one capture format
// that is stored and read back. A text dump (serialize.hpp) costs ~50
// bytes per headers-only record and 2x the payload bytes in hex; at the
// 10^5..10^6-client campaign scale neither the trace buffer nor such a
// file fits.
//
//   SpillWriter  a capture::PacketSink that streams PacketRecords into a
//                compact block-columnar binary file, written once.
//                Memory is O(one block); a TraceRecorder with a spill
//                budget dumps its buffer here whenever retained_bytes
//                crosses the budget.
//   SpillReader  mmap-based consumer that decodes the blocks front to
//                back, into one trace or record by record.
//
// On-disk layout, version 2 (all integers little-endian; "varint" =
// LEB128, "zigzag" = signed-to-unsigned fold before varint):
//
//   [file header]  magic "DTRC0002" | node u32
//   [block]*       each block is sized by its own header and decodes
//                  independently:
//                    record_count u32
//                    section_size u32 x 9   (column sections, in order)
//                    payload_size u32       (separate payload region)
//                    sections:
//                      0 timestamps     zigzag delta vs previous record
//                      1 directions     1 bit per record, packed
//                      2 flow ids       varint (pair_id << 1) | orient:
//                                       pair_id indexes the footer's
//                                       endpoint-pair table, the low bit
//                                       restores (src,dst) order
//                      3 seq            zigzag delta vs the *predicted*
//                                       next seq of the same directed
//                                       flow (prev seq + prev wire
//                                       payload size) — contiguous data
//                                       runs encode as zeros
//                      4 ack            zigzag delta vs the directed
//                                       flow's previous record
//                      5 window         same per-directed-flow deltas
//                      6 flags          4 bits (S|A|F|R), 2 records/byte
//                      7 payload_size   zigzag delta per directed flow
//                                       (wire bytes)
//                      8 payload_len    varint (retained bytes); section
//                                       omitted (size 0) when the block
//                                       retains no payload bytes at all
//                    payload region: retained payload bytes, record order
//   [footer]       endpoint table (varint node/port pairs) and
//                  endpoint-pair table: what the decoder needs to name
//                  each record's endpoints.
//   [tail]         footer offset u64 | total records u64 | "DTRCEND1"
//
// Pair interning and per-directed-flow deltas are what make the format
// small: a headers-only record costs ~9 bytes (vs ~50 text), and payload
// bytes are stored raw (vs 2x hex). The tail-anchored footer lets the
// writer hold the intern tables until the end, and restart a file
// cheaply (truncate to header) when the recorder clears. A reader opens a
// file by checking the header, the tail and the footer, then walking the
// block headers, which must land exactly on the footer and count the
// tail's record total.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "capture/recorder.hpp"
#include "capture/trace.hpp"
#include "net/address.hpp"

namespace dyncdn::capture {

/// Cumulative writer-side accounting, surfaced through the metrics
/// registry (spill_* counters) and the spill-progress time-series
/// channels. All byte counts are deterministic functions of the captured
/// records; flush_ns is wall clock and stays out of deterministic exports.
struct SpillStats {
  std::uint64_t bytes_written = 0;  ///< encoded bytes flushed to disk
  std::uint64_t blocks = 0;         ///< blocks flushed
  std::uint64_t records = 0;        ///< records appended
  std::uint64_t raw_bytes = 0;      ///< PacketTrace::record_bytes accounting
  std::uint64_t flush_ns = 0;       ///< wall time inside disk flushes
};

/// Streams PacketRecords to a .dtrc file: the overflow target of a
/// budgeted TraceRecorder (capture_budget: the buffered prefix spills
/// here, the in-memory tail stays analyzable), and the sink a recorder's
/// whole capture is replayed into when a campaign saves its traces
/// (ExperimentOptions::save_traces).
class SpillWriter final : public PacketSink {
 public:
  /// Records per block: large enough to amortize section framing.
  static constexpr std::uint32_t kBlockRecords = 4096;

  /// Opens (truncates) `path` and writes the file header. Throws
  /// std::runtime_error when the file cannot be created.
  SpillWriter(std::string path, net::NodeId node);
  ~SpillWriter() override;

  SpillWriter(const SpillWriter&) = delete;
  SpillWriter& operator=(const SpillWriter&) = delete;

  /// PacketSink: append one record. Flushes a block once kBlockRecords
  /// accumulate. Throws std::logic_error after finish() (call on_clear()
  /// to restart the file).
  void on_packet(const PacketRecord& record) override;
  /// PacketSink: the recorder discarded its buffer (warm-up, phase
  /// boundary) — restart the file so spilled state resets in lockstep.
  void on_clear() override;

  /// Append one record / a whole trace (same encoding path as on_packet).
  void append(const PacketRecordView& view);
  void append_trace(const PacketTrace& trace);

  /// Flush the partial block and write footer + tail; the file is now a
  /// complete .dtrc that SpillReader can open. Idempotent. The writer
  /// stays reusable via on_clear().
  void finish();
  bool finished() const { return finished_; }

  const std::string& path() const { return path_; }
  net::NodeId node() const { return node_; }
  const SpillStats& stats() const { return stats_; }

 private:
  /// Delta state per *directed* flow (pair id + orientation bit), so the
  /// two sequence-number spaces of a connection never mix.
  struct PairState {
    std::int64_t prev_seq = 0;
    std::int64_t prev_ack = 0;
    std::int64_t prev_window = 0;
    std::int64_t prev_psize = 0;
  };

  void open_file();
  void encode(sim::SimTime timestamp, Direction direction, net::NodeId src,
              net::NodeId dst, const net::TcpHeader& tcp,
              std::size_t payload_size, const net::PayloadRef& payload);
  std::uint32_t intern_endpoint(net::NodeId node, net::Port port);
  std::uint32_t intern_pair(std::uint32_t a, std::uint32_t b);
  void flush_block();
  void write_footer_and_tail();

  std::string path_;
  net::NodeId node_;
  std::FILE* file_ = nullptr;
  bool finished_ = false;
  SpillStats stats_;

  // Global (whole-file) intern tables; written in the footer.
  std::vector<std::pair<std::uint32_t, std::uint16_t>> endpoints_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs_;
  std::unordered_map<std::uint64_t, std::uint32_t> endpoint_lookup_;
  std::unordered_map<std::uint64_t, std::uint32_t> pair_lookup_;

  // Current block under construction: one byte stream per column section,
  // plus block-local delta state (reset per block so blocks decode
  // independently).
  std::vector<std::uint8_t> sections_[9];
  std::vector<std::uint8_t> payload_region_;
  std::vector<PairState> pair_state_;  // indexed by directed flow id
  std::uint32_t block_records_ = 0;
  std::int64_t prev_timestamp_ = 0;

  // Since the file was (re)started: the footer offset and the tail's
  // record total.
  std::uint64_t write_offset_ = 0;
  std::uint64_t file_records_ = 0;
};

/// mmap-backed .dtrc consumer. The constructor maps the file and checks
/// its structure (header, tail, footer, and a walk over the block
/// headers); the blocks decode front to back on demand. Throws
/// std::runtime_error with a specific message, naming the file, on
/// truncated or corrupt input, on another format version, and on a file
/// that cannot be mapped.
class SpillReader {
 public:
  explicit SpillReader(const std::string& path);
  ~SpillReader();

  SpillReader(const SpillReader&) = delete;
  SpillReader& operator=(const SpillReader&) = delete;

  net::NodeId node() const { return node_; }
  std::uint64_t record_count() const { return record_count_; }

  /// Decode every block, in order, into one trace.
  PacketTrace read_all() const;

  /// Visit every record without materializing a trace.
  void for_each_record(
      const std::function<void(const PacketRecord&)>& fn) const;

 private:
  void check_structure();
  /// Decode the block at `block` and return its end.
  const std::uint8_t* decode_block(
      const std::uint8_t* block,
      const std::function<void(PacketRecord&&)>& emit) const;
  void decode(const std::function<void(PacketRecord&&)>& emit) const;

  std::string path_;
  const std::uint8_t* data_ = nullptr;  // the mapping
  std::size_t size_ = 0;
  const std::uint8_t* blocks_end_ = nullptr;  // where the footer starts
  net::NodeId node_;
  std::uint64_t record_count_ = 0;
  std::vector<std::pair<std::uint32_t, std::uint16_t>> endpoints_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs_;
};

/// Write `trace` as a complete .dtrc file (convenience over SpillWriter).
void save_trace_dtrc(const PacketTrace& trace, const std::string& path);

/// Load a complete .dtrc file into memory (convenience over SpillReader).
/// The one capture loader: any other file, a text dump included, is
/// refused with a std::runtime_error that names it.
PacketTrace load_trace(const std::string& path);

}  // namespace dyncdn::capture

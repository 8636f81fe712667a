// tcpdump-like packet traces.
//
// The paper collects "detailed TCPdump with full application-layer
// payloads" at each measurement node and performs all analysis offline on
// those traces. We mirror that: a TraceRecorder taps a node, producing a
// PacketTrace of timestamped records (optionally retaining payload bytes);
// the analysis module consumes *only* these traces — never simulator
// internals — so the inference pipeline has no oracle access.
//
// Storage is struct-of-arrays: the trace keeps one column per record field
// (timestamp / direction / src / dst / TCP header / payload size / payload
// ref) instead of a vector of fat records. Retained captures of long
// campaigns dominate experiment memory, and the analysis passes each touch
// only a few fields per record, so columns keep the scanned bytes dense.
// Consumers iterate views: records() yields lightweight PacketRecordViews
// assembled from the columns on the fly.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "net/address.hpp"
#include "net/packet.hpp"
#include "sim/time.hpp"

namespace dyncdn::capture {

enum class Direction : std::uint8_t { kSent, kReceived };

inline const char* to_string(Direction d) {
  return d == Direction::kSent ? "snd" : "rcv";
}

/// The flow as seen by the capturing node (local endpoint first).
net::FlowId flow_at_capture(Direction direction, net::NodeId src,
                            net::NodeId dst, const net::TcpHeader& tcp);

/// tcpdump-ish one-liner: "12.345ms rcv 5:80 -> 2:40001 seq=.. ...".
std::string record_to_string(sim::SimTime timestamp, Direction direction,
                             net::NodeId src, net::NodeId dst,
                             const net::TcpHeader& tcp,
                             std::size_t payload_size);

/// One captured packet event at a node, as a standalone value. This is the
/// transport type between recorder and sinks (and what a .dtrc block
/// decodes to); retained storage decomposes it into columns.
struct PacketRecord {
  sim::SimTime timestamp;
  Direction direction = Direction::kSent;
  net::NodeId src;
  net::NodeId dst;
  net::TcpHeader tcp;
  std::size_t payload_size = 0;
  /// Retained payload bytes (empty when the recorder captures headers only).
  net::PayloadRef payload;

  net::FlowId flow_at_capture_node() const {
    return flow_at_capture(direction, src, dst, tcp);
  }
  std::string to_string() const {
    return record_to_string(timestamp, direction, src, dst, tcp,
                            payload_size);
  }
};

/// A non-owning view of one record, assembled from a trace's columns.
/// Field-compatible with PacketRecord so analysis code reads either.
struct PacketRecordView {
  sim::SimTime timestamp;
  Direction direction;
  net::NodeId src;
  net::NodeId dst;
  const net::TcpHeader& tcp;
  std::size_t payload_size;
  const net::PayloadRef& payload;

  net::FlowId flow_at_capture_node() const {
    return flow_at_capture(direction, src, dst, tcp);
  }
  std::string to_string() const {
    return record_to_string(timestamp, direction, src, dst, tcp,
                            payload_size);
  }
};

/// An ordered sequence of packet records captured at one node (SoA).
class PacketTrace {
 public:
  explicit PacketTrace(net::NodeId node = {}) : node_(node) {}

  void add(PacketRecord record) {
    add(record.timestamp, record.direction, record.src, record.dst,
        record.tcp, record.payload_size, std::move(record.payload));
  }
  void add(const PacketRecordView& v) {
    add(v.timestamp, v.direction, v.src, v.dst, v.tcp, v.payload_size,
        v.payload);
  }
  void add(sim::SimTime timestamp, Direction direction, net::NodeId src,
           net::NodeId dst, const net::TcpHeader& tcp,
           std::size_t payload_size, net::PayloadRef payload) {
    retained_bytes_ += kRecordColumnBytes + payload.length;
    timestamps_.push_back(timestamp);
    directions_.push_back(direction);
    srcs_.push_back(src);
    dsts_.push_back(dst);
    tcps_.push_back(tcp);
    payload_sizes_.push_back(payload_size);
    payloads_.push_back(std::move(payload));
  }

  net::NodeId node() const { return node_; }
  std::size_t size() const { return timestamps_.size(); }
  bool empty() const { return timestamps_.empty(); }
  void clear() {
    timestamps_.clear();
    directions_.clear();
    srcs_.clear();
    dsts_.clear();
    tcps_.clear();
    payload_sizes_.clear();
    payloads_.clear();
    retained_bytes_ = 0;
  }

  PacketRecordView view(std::size_t i) const {
    return PacketRecordView{timestamps_[i], directions_[i],  srcs_[i],
                            dsts_[i],       tcps_[i],        payload_sizes_[i],
                            payloads_[i]};
  }

  class ConstIterator {
   public:
    using value_type = PacketRecordView;
    using difference_type = std::ptrdiff_t;

    ConstIterator(const PacketTrace* trace, std::size_t i)
        : trace_(trace), i_(i) {}
    PacketRecordView operator*() const { return trace_->view(i_); }
    ConstIterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const ConstIterator& o) const { return i_ == o.i_; }
    bool operator!=(const ConstIterator& o) const { return i_ != o.i_; }

   private:
    const PacketTrace* trace_;
    std::size_t i_;
  };

  /// Indexable range of record views over the columns.
  class Records {
   public:
    explicit Records(const PacketTrace* trace) : trace_(trace) {}
    ConstIterator begin() const { return ConstIterator(trace_, 0); }
    ConstIterator end() const { return ConstIterator(trace_, trace_->size()); }
    PacketRecordView operator[](std::size_t i) const { return trace_->view(i); }
    std::size_t size() const { return trace_->size(); }
    bool empty() const { return trace_->empty(); }

   private:
    const PacketTrace* trace_;
  };

  Records records() const { return Records(this); }

  /// Direct column access for analysis passes that scan one field.
  const std::vector<sim::SimTime>& timestamps() const { return timestamps_; }
  const std::vector<Direction>& directions() const { return directions_; }
  const std::vector<net::TcpHeader>& tcp_headers() const { return tcps_; }
  const std::vector<std::size_t>& payload_sizes() const {
    return payload_sizes_;
  }

  /// Deterministic accounting of what this trace holds: per-record column
  /// bookkeeping plus retained payload bytes. Independent of allocator or
  /// thread count, unlike the obs/memory.hpp tracker, so it is safe to
  /// surface through merged experiment metrics.
  std::size_t retained_bytes() const { return retained_bytes_; }

  /// Bytes one record occupies across the columns (excluding payload data).
  static constexpr std::size_t kRecordColumnBytes =
      sizeof(sim::SimTime) + sizeof(Direction) + 2 * sizeof(net::NodeId) +
      sizeof(net::TcpHeader) + sizeof(std::size_t) + sizeof(net::PayloadRef);

  static std::size_t record_bytes(const PacketRecord& r) {
    return kRecordColumnBytes + r.payload.length;
  }

  /// Records matching a predicate, preserving order.
  PacketTrace filter(
      const std::function<bool(const PacketRecordView&)>& pred) const;

  /// Records belonging to one TCP connection (either direction).
  PacketTrace filter_flow(const net::FlowId& flow) const;

  /// Records whose remote endpoint uses the given port (e.g. 80 selects
  /// all web traffic regardless of ephemeral client port).
  PacketTrace filter_remote_port(net::Port port) const;

  /// Distinct flows present, keyed from the capture node's perspective,
  /// in order of first appearance.
  std::vector<net::FlowId> flows() const;

  /// One flow's records, both directions: indices into this trace, in
  /// capture order.
  struct FlowRecords {
    net::FlowId flow;
    std::vector<std::size_t> records;
  };
  /// Every record grouped by its flow, flows ordered as flows() lists
  /// them: one pass over the trace, one hash lookup per record.
  std::vector<FlowRecords> flow_records() const;

  /// Multi-line human-readable dump.
  std::string to_text() const;

 private:
  net::NodeId node_;
  // One column per record field, index-aligned.
  std::vector<sim::SimTime> timestamps_;
  std::vector<Direction> directions_;
  std::vector<net::NodeId> srcs_;
  std::vector<net::NodeId> dsts_;
  std::vector<net::TcpHeader> tcps_;
  std::vector<std::size_t> payload_sizes_;
  std::vector<net::PayloadRef> payloads_;
  std::size_t retained_bytes_ = 0;
};

}  // namespace dyncdn::capture

// TraceRecorder: attaches tcpdump-style taps to a node.
#pragma once

#include <algorithm>
#include <cstddef>

#include "capture/trace.hpp"
#include "net/node.hpp"
#include "sim/simulator.hpp"

namespace dyncdn::capture {

class SpillWriter;  // capture/spill.hpp

/// Observer of packets as a recorder sees them. The streaming analysis
/// pipeline implements this to reduce traffic to timelines online without
/// the capture layer depending on analysis.
class PacketSink {
 public:
  virtual ~PacketSink() = default;

  /// Called once per captured packet, in capture order. The record (and any
  /// retained payload reference) is only guaranteed valid for the duration
  /// of the call; sinks must copy what they keep.
  virtual void on_packet(const PacketRecord& record) = 0;

  /// Called when the recorder's buffer is discarded (warm-up, phase
  /// boundaries). Sinks should drop in-flight per-flow state so the next
  /// phase starts clean, mirroring what a post-hoc analyzer of the cleared
  /// trace would see.
  virtual void on_clear() = 0;
};

/// Feed every record of `trace` to `sink` in capture order: an offline
/// replay of a retained capture.
void replay(const PacketTrace& trace, PacketSink& sink);

struct RecorderOptions {
  /// Retain full payload bytes (needed for content analysis). Headers-only
  /// captures are cheaper for long load experiments.
  bool capture_payloads = true;
  /// Keep every PacketRecord in the trace buffer. Streaming campaigns turn
  /// this off: packets still flow to the sink, but nothing accumulates.
  bool retain_packets = true;
};

/// Records every packet sent or received by one node.
///
/// Lifetime: the recorder registers taps on construction; the taps hold a
/// pointer to it, so it must outlive the node's traffic (recorders are
/// created once per experiment and kept until analysis completes).
/// Recording can be paused/resumed between experiment phases.
class TraceRecorder {
 public:
  TraceRecorder(net::Node& node, sim::Simulator& simulator,
                RecorderOptions options = {});

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  const PacketTrace& trace() const { return trace_; }
  PacketTrace& trace() { return trace_; }

  void pause() { recording_ = false; }
  void resume() { recording_ = true; }
  bool recording() const { return recording_; }

  /// Toggle trace-buffer retention. The sink keeps observing either way.
  void set_retain_packets(bool v) { options_.retain_packets = v; }

  /// Attach/detach a streaming observer (not owned; must outlive traffic).
  void set_sink(PacketSink* sink) { sink_ = sink; }
  PacketSink* sink() const { return sink_; }

  /// Discard everything captured so far (e.g. between repetitions).
  /// Notifies the sink so online per-flow state resets in lockstep, and
  /// restarts the spill file (spilled records belong to the discarded
  /// capture).
  void clear();

  /// Attach a durable overflow target (not owned; must outlive traffic).
  /// Once trace().retained_bytes() reaches `budget_bytes` after an append,
  /// the buffered records are streamed to the writer and the in-memory
  /// buffer resets — memory stays bounded by the budget while the full
  /// capture survives on disk. A budget of 0 disables spilling.
  void set_spill(SpillWriter* spill, std::size_t budget_bytes);
  SpillWriter* spill() const { return spill_; }
  std::size_t spill_budget() const { return spill_budget_; }
  /// True once at least one budget-triggered spill has happened since the
  /// last clear() (i.e. trace() alone is an incomplete view).
  bool has_spilled() const { return has_spilled_; }

  /// Feed the complete capture to `sink` in capture order: the spilled
  /// prefix read back from disk, then the in-memory tail. Finalizes the
  /// spill file (further capture requires clear(), which restarts it).
  /// When nothing has spilled this replays trace() alone.
  void replay(PacketSink& sink);

  /// High-water mark of trace_.retained_bytes() across the recorder's
  /// lifetime (clear() does not rewind it) — the deterministic measure of
  /// what full-capture retention would cost this node. Under a spill
  /// budget the buffer saw-tooths; the peak is noted immediately before
  /// each post-spill reset so it reflects the true high-water.
  std::size_t peak_retained_bytes() const { return peak_retained_bytes_; }

 private:
  void record(Direction direction, const net::PacketPtr& packet);
  void spill_buffer();

  sim::Simulator& simulator_;
  RecorderOptions options_;
  PacketTrace trace_;
  PacketSink* sink_ = nullptr;
  SpillWriter* spill_ = nullptr;
  std::size_t spill_budget_ = 0;
  bool has_spilled_ = false;
  std::size_t peak_retained_bytes_ = 0;
  bool recording_ = true;
};

}  // namespace dyncdn::capture

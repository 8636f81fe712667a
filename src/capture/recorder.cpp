#include "capture/recorder.hpp"

#include "capture/spill.hpp"

namespace dyncdn::capture {

void replay(const PacketTrace& trace, PacketSink& sink) {
  for (const PacketRecordView v : trace.records()) {
    sink.on_packet(PacketRecord{v.timestamp, v.direction, v.src, v.dst, v.tcp,
                                v.payload_size, v.payload});
  }
}

TraceRecorder::TraceRecorder(net::Node& node, sim::Simulator& simulator,
                             RecorderOptions options)
    : simulator_(simulator), options_(options), trace_(node.id()) {
  node.add_send_tap([this](const net::PacketPtr& p) {
    record(Direction::kSent, p);
  });
  node.add_receive_tap([this](const net::PacketPtr& p) {
    record(Direction::kReceived, p);
  });
}

void TraceRecorder::clear() {
  trace_.clear();
  if (sink_ != nullptr) sink_->on_clear();
  if (spill_ != nullptr && (has_spilled_ || spill_->finished())) {
    spill_->on_clear();
    has_spilled_ = false;
  }
}

void TraceRecorder::set_spill(SpillWriter* spill, std::size_t budget_bytes) {
  spill_ = spill;
  spill_budget_ = spill != nullptr ? budget_bytes : 0;
}

void TraceRecorder::replay(PacketSink& sink) {
  if (spill_ != nullptr && has_spilled_) {
    spill_->finish();
    SpillReader(spill_->path()).for_each_record(
        [&sink](const PacketRecord& r) { sink.on_packet(r); });
  }
  capture::replay(trace_, sink);
}

void TraceRecorder::record(Direction direction, const net::PacketPtr& packet) {
  if (!recording_) return;
  PacketRecord r;
  r.timestamp = simulator_.now();
  r.direction = direction;
  r.src = packet->src;
  r.dst = packet->dst;
  r.tcp = packet->tcp;
  r.payload_size = packet->payload.length;
  if (options_.capture_payloads) r.payload = packet->payload;
  if (sink_ != nullptr) sink_->on_packet(r);
  if (options_.retain_packets) {
    trace_.add(std::move(r));
    peak_retained_bytes_ =
        std::max(peak_retained_bytes_, trace_.retained_bytes());
    if (spill_ != nullptr && spill_budget_ > 0 &&
        trace_.retained_bytes() >= spill_budget_) {
      spill_buffer();
    }
  }
}

void TraceRecorder::spill_buffer() {
  // Note the peak before the reset: under a budget the buffer saw-tooths
  // and the true high-water is the moment just before each spill.
  peak_retained_bytes_ =
      std::max(peak_retained_bytes_, trace_.retained_bytes());
  spill_->append_trace(trace_);
  trace_.clear();
  has_spilled_ = true;
}

}  // namespace dyncdn::capture

// A full simulated TCP connection endpoint.
//
// Implements: three-way handshake, MSS segmentation, cumulative ACKs,
// receiver flow control, slow start, congestion avoidance, fast
// retransmit + fast recovery (NewReno-lite), Jacobson/Karn RTO estimation
// with exponential backoff, optional delayed ACKs, FIN teardown and
// TIME_WAIT. Sequence numbers are 64-bit byte offsets (no wraparound).
//
// Applications interact through queued writes (`send`) and callbacks
// (`Callbacks`); the socket never blocks — everything advances through the
// simulator's event queue.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>

#include "net/address.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"
#include "tcp/config.hpp"

namespace dyncdn::tcp {

class TcpStack;

enum class TcpState {
  kClosed,
  kSynSent,
  kSynReceived,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kCloseWait,
  kLastAck,
  kClosing,
  kTimeWait,
};

std::string to_string(TcpState s);

/// Counters for tests/benches.
struct SocketStats {
  std::uint64_t bytes_sent = 0;       // application payload, first transmission
  std::uint64_t bytes_received = 0;   // in-order payload delivered to app
  std::uint64_t segments_sent = 0;    // data segments, incl. retransmits
  std::uint64_t retransmits_rto = 0;
  std::uint64_t retransmits_fast = 0;
  std::uint64_t dupacks_received = 0;
};

class TcpSocket {
 public:
  struct Callbacks {
    /// Connection reached ESTABLISHED (fires on both ends).
    std::function<void()> on_connected;
    /// In-order application data arrived.
    std::function<void(net::PayloadRef)> on_data;
    /// Peer sent FIN and all its data has been delivered.
    std::function<void()> on_remote_close;
    /// Connection fully terminated (either cleanly or by reset).
    std::function<void()> on_closed;
  };

  /// Sockets are created by TcpStack (connect/accept); not user-constructed.
  TcpSocket(TcpStack& stack, net::FlowId flow, TcpConfig config,
            Callbacks callbacks, bool passive);

  TcpSocket(const TcpSocket&) = delete;
  TcpSocket& operator=(const TcpSocket&) = delete;

  /// Queue application data for transmission. Accepts any size; the socket
  /// segments to MSS. Data queued before ESTABLISHED is sent afterwards.
  void send(net::PayloadRef data);
  void send_text(std::string_view text);

  /// Graceful close: FIN after all queued data. Further send() calls throw.
  void close();

  /// Abortive close: RST to peer, immediate teardown.
  void abort();

  TcpState state() const { return state_; }
  const net::FlowId& flow() const { return flow_; }
  const SocketStats& stats() const { return stats_; }
  const TcpConfig& config() const { return config_; }

  /// Sender's current smoothed RTT estimate (zero until first sample).
  sim::SimTime srtt() const { return srtt_; }
  std::size_t cwnd_bytes() const { return cwnd_; }
  std::size_t ssthresh_bytes() const { return ssthresh_; }

  /// Bytes queued but not yet acked (send buffer occupancy).
  std::size_t unacked_bytes() const;

  /// Retransmission timeout the next arm would use: the Jacobson/Karn
  /// estimate doubled per backoff step, clamped to [min_rto, max_rto].
  sim::SimTime rto() const { return rto_; }

  /// Replace the callback set (used by accept handlers).
  void set_callbacks(Callbacks cb) { callbacks_ = std::move(cb); }

  /// Observability: record wire-level events onto `span` in `session`
  /// (handshake "syn"/"synack", first data "tx_data" = t1, first
  /// data-covering ACK "ack_data" = t2, per-payload "rx" segments, span
  /// closed at teardown). Call immediately after TcpStack::connect — the
  /// SYN emission is synchronous with connect, so the "syn" stamp taken
  /// here equals the wire time.
  void attach_trace(obs::TraceSession* session, obs::SpanId span);

  // ---- TcpStack interface -------------------------------------------------

  /// Begin active open (send SYN).
  void start_connect();
  /// Handle incoming SYN for a passive socket (sends SYN-ACK).
  void on_syn(const net::PacketPtr& syn);
  /// Demuxed packet arrival.
  void on_packet(const net::PacketPtr& packet);

 private:
  // --- segment emission ---
  void emit(net::TcpFlags flags, std::uint64_t seq, net::PayloadRef payload);
  void send_ack_now();
  void schedule_ack();
  void try_send_data();
  void send_fin_if_ready();
  std::size_t flight_size() const;
  std::size_t effective_window() const;

  // --- receive path ---
  void handle_established_packet(const net::PacketPtr& p);
  void process_ack(const net::PacketPtr& p);
  void process_payload(const net::PacketPtr& p);
  void deliver_in_order();
  void process_fin(const net::PacketPtr& p);
  std::uint32_t advertised_window() const;

  // --- congestion control ---
  void on_new_ack(std::uint64_t acked_bytes);
  void enter_fast_retransmit();
  void on_rto();
  /// Retransmit the single segment (or FIN) starting at `seq`.
  void retransmit_one(std::uint64_t seq);
  /// RFC 2861 congestion-window validation: decay cwnd after idle.
  void maybe_decay_idle_cwnd();
  /// Assemble up to `len` payload bytes starting at sequence `seq` from the
  /// send buffer. Zero-copy when the range lies inside one application
  /// write; gathers (copies) when it spans writes, so segments fill to MSS
  /// like a real byte-stream sender.
  net::PayloadRef gather_payload(std::uint64_t seq, std::size_t len) const;

  // --- RTT estimation ---
  /// Restart the retransmission timer: deadline now + rto(),
  /// ordered as if scheduled now. Keeps the queued entry when it is due
  /// no later than the new deadline (it files itself again when it wakes).
  void arm_rto();
  void disarm_rto();
  /// File the timer's one queued entry at (rto_deadline_, rto_ticket_).
  void file_rto();
  /// The queued entry fired: one filed under an older ticket woke ahead
  /// of (rto_deadline_, rto_ticket_) and re-files; the current one runs
  /// on_rto().
  void on_rto_timer();
  void take_rtt_sample(sim::SimTime sample);
  /// Recompute rto_ after srtt_, rttvar_, have_rtt_sample_ or
  /// rto_backoff_ changed; every other reader takes the cached value.
  void update_rto();

  // --- lifecycle ---
  void enter_time_wait();
  void finish_close();

  TcpStack& stack_;
  net::FlowId flow_;
  TcpConfig config_;
  Callbacks callbacks_;
  TcpState state_ = TcpState::kClosed;
  bool passive_;

  // Sender sequence state (byte offsets; SYN and FIN each consume one).
  std::uint64_t iss_ = 0;        // initial send sequence
  std::uint64_t snd_una_ = 0;    // oldest unacked
  std::uint64_t snd_nxt_ = 0;    // next to send
  std::uint64_t peer_window_ = 0;

  // Send buffer: contiguous queue of app payload starting at buf_seq_base_.
  std::deque<net::PayloadRef> send_buf_;
  std::uint64_t buf_seq_base_ = 0;  // sequence number of send_buf_ front byte
  // gather_payload scan hint: index of the entry the last gather ended in
  // and the stream seq of that entry's first byte (invalidated by ACK
  // trimming past it; see gather_payload).
  mutable std::size_t gather_hint_index_ = 0;
  mutable std::uint64_t gather_hint_base_ = 0;
  std::uint64_t buf_bytes_ = 0;
  bool fin_queued_ = false;
  bool fin_sent_ = false;
  std::uint64_t fin_seq_ = 0;

  // Receiver state.
  std::uint64_t irs_ = 0;      // initial receive sequence
  std::uint64_t rcv_nxt_ = 0;  // next expected
  std::map<std::uint64_t, net::PayloadRef> out_of_order_;
  std::uint64_t ooo_bytes_ = 0;
  bool fin_received_ = false;
  std::uint64_t peer_fin_seq_ = 0;

  // Congestion control.
  std::size_t cwnd_ = 0;
  std::size_t ssthresh_ = 0;
  int dupack_count_ = 0;
  bool in_fast_recovery_ = false;
  std::uint64_t recovery_point_ = 0;
  /// RFC 2861: time of the last data transmission, for idle detection.
  sim::SimTime last_data_sent_ = sim::SimTime::zero();

  // RTT estimation (Jacobson/Karn).
  sim::SimTime srtt_ = sim::SimTime::zero();
  sim::SimTime rttvar_ = sim::SimTime::zero();
  sim::SimTime rto_ = sim::SimTime::zero();  // see update_rto()
  bool have_rtt_sample_ = false;
  /// Timing of one in-flight segment (Karn's algorithm: at most one timed
  /// segment, never a retransmitted one). Declared beside the other flag
  /// so the two share one padded word with rto_backoff_.
  bool timing_segment_ = false;
  int rto_backoff_ = 0;
  std::uint64_t timed_seq_ = 0;
  sim::SimTime timed_sent_at_ = sim::SimTime::zero();

  // Timers. Each arm_rto() moves the RTO deadline and takes a fresh
  // ordering ticket instead of a cancel + schedule; the one queued entry
  // (rto_timer_) sits at or before the deadline.
  sim::EventId rto_timer_;
  sim::SimTime rto_timer_at_ = sim::SimTime::zero();  // entry's time
  std::uint64_t rto_timer_ticket_ = 0;                // entry's ticket
  sim::SimTime rto_deadline_ = sim::SimTime::zero();
  std::uint64_t rto_ticket_ = 0;
  sim::EventId delayed_ack_timer_;
  sim::EventId time_wait_timer_;
  bool ack_pending_ = false;

  // Observability (see attach_trace). The session outlives the socket:
  // it is owned by the Scenario that owns the whole node graph.
  obs::TraceSession* trace_ = nullptr;
  obs::SpanId trace_span_ = obs::kNoSpan;
  bool trace_tx_data_ = false;   // "tx_data" (t1) recorded
  bool trace_ack_data_ = false;  // "ack_data" (t2) recorded

  SocketStats stats_;
};

}  // namespace dyncdn::tcp

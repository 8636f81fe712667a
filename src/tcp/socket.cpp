#include "tcp/socket.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "tcp/stack.hpp"

namespace dyncdn::tcp {

std::string to_string(TcpState s) {
  switch (s) {
    case TcpState::kClosed: return "CLOSED";
    case TcpState::kSynSent: return "SYN_SENT";
    case TcpState::kSynReceived: return "SYN_RCVD";
    case TcpState::kEstablished: return "ESTABLISHED";
    case TcpState::kFinWait1: return "FIN_WAIT_1";
    case TcpState::kFinWait2: return "FIN_WAIT_2";
    case TcpState::kCloseWait: return "CLOSE_WAIT";
    case TcpState::kLastAck: return "LAST_ACK";
    case TcpState::kClosing: return "CLOSING";
    case TcpState::kTimeWait: return "TIME_WAIT";
  }
  return "?";
}

TcpSocket::TcpSocket(TcpStack& stack, net::FlowId flow, TcpConfig config,
                     Callbacks callbacks, bool passive)
    : stack_(stack),
      flow_(flow),
      config_(config),
      callbacks_(std::move(callbacks)),
      passive_(passive) {
  // Relative sequence numbers, like tcpdump's default rendering: the SYN
  // occupies sequence 0, application data starts at 1.
  iss_ = 0;
  snd_una_ = iss_;
  snd_nxt_ = iss_;
  buf_seq_base_ = iss_ + 1;
  cwnd_ = config_.initial_cwnd_segments * config_.mss;
  ssthresh_ = config_.initial_ssthresh;
  update_rto();
}

// ---------------------------------------------------------------------------
// Application interface
// ---------------------------------------------------------------------------

void TcpSocket::send(net::PayloadRef data) {
  if (fin_queued_) {
    throw std::logic_error("TcpSocket::send after close()");
  }
  if (data.empty()) return;
  buf_bytes_ += data.length;
  send_buf_.push_back(std::move(data));
  if (state_ == TcpState::kEstablished || state_ == TcpState::kCloseWait) {
    try_send_data();
  }
}

void TcpSocket::send_text(std::string_view text) {
  net::Buffer buf = net::make_buffer(text);
  send(net::PayloadRef{buf, 0, buf->size()});
}

void TcpSocket::close() {
  if (fin_queued_) return;
  fin_queued_ = true;
  if (state_ == TcpState::kEstablished || state_ == TcpState::kCloseWait) {
    send_fin_if_ready();
  }
}

void TcpSocket::abort() {
  net::TcpFlags rst;
  rst.rst = true;
  rst.ack = true;
  emit(rst, snd_nxt_, {});
  finish_close();
}

std::size_t TcpSocket::unacked_bytes() const {
  return static_cast<std::size_t>(snd_nxt_ - snd_una_);
}

void TcpSocket::attach_trace(obs::TraceSession* session, obs::SpanId span) {
  trace_ = session;
  trace_span_ = span;
  if (trace_ != nullptr && state_ == TcpState::kSynSent) {
    // connect() emitted the SYN synchronously in this same event, so
    // now() is exactly the SYN's wire timestamp (= the paper's tb).
    trace_->add_event(trace_span_, "syn", stack_.simulator().now());
  }
}

// ---------------------------------------------------------------------------
// Connection establishment
// ---------------------------------------------------------------------------

void TcpSocket::start_connect() {
  assert(state_ == TcpState::kClosed && !passive_);
  state_ = TcpState::kSynSent;
  net::TcpFlags syn;
  syn.syn = true;
  emit(syn, iss_, {});
  snd_nxt_ = iss_ + 1;
  // Time the handshake for the first RTT sample.
  timing_segment_ = true;
  timed_seq_ = snd_nxt_;
  timed_sent_at_ = stack_.simulator().now();
  arm_rto();
}

void TcpSocket::on_syn(const net::PacketPtr& syn) {
  assert(passive_);
  state_ = TcpState::kSynReceived;
  irs_ = syn->tcp.seq;
  rcv_nxt_ = irs_ + 1;
  peer_window_ = syn->tcp.window;

  net::TcpFlags synack;
  synack.syn = true;
  synack.ack = true;
  emit(synack, iss_, {});
  snd_nxt_ = iss_ + 1;
  timing_segment_ = true;
  timed_seq_ = snd_nxt_;
  timed_sent_at_ = stack_.simulator().now();
  arm_rto();
}

// ---------------------------------------------------------------------------
// Packet arrival
// ---------------------------------------------------------------------------

void TcpSocket::on_packet(const net::PacketPtr& p) {
  if (p->tcp.flags.rst) {
    finish_close();
    return;
  }

  switch (state_) {
    case TcpState::kClosed:
      return;  // stray packet after teardown

    case TcpState::kSynSent: {
      if (p->tcp.flags.syn && p->tcp.flags.ack && p->tcp.ack == snd_nxt_) {
        if (trace_ != nullptr) {
          trace_->add_event(trace_span_, "synack",
                            stack_.simulator().now());
        }
        irs_ = p->tcp.seq;
        rcv_nxt_ = irs_ + 1;
        peer_window_ = p->tcp.window;
        snd_una_ = p->tcp.ack;
        if (timing_segment_ && p->tcp.ack >= timed_seq_) {
          take_rtt_sample(stack_.simulator().now() - timed_sent_at_);
          timing_segment_ = false;
        }
        disarm_rto();
        state_ = TcpState::kEstablished;
        send_ack_now();
        if (callbacks_.on_connected) callbacks_.on_connected();
        try_send_data();
        send_fin_if_ready();
      }
      return;
    }

    case TcpState::kSynReceived: {
      if (p->tcp.flags.syn && !p->tcp.flags.ack) {
        // Retransmitted SYN (our SYN-ACK was lost): answer again.
        net::TcpFlags synack;
        synack.syn = true;
        synack.ack = true;
        emit(synack, iss_, {});
        return;
      }
      if (p->tcp.flags.ack && p->tcp.ack >= snd_nxt_) {
        snd_una_ = p->tcp.ack;
        if (timing_segment_ && p->tcp.ack >= timed_seq_) {
          take_rtt_sample(stack_.simulator().now() - timed_sent_at_);
          timing_segment_ = false;
        }
        disarm_rto();
        state_ = TcpState::kEstablished;
        if (callbacks_.on_connected) callbacks_.on_connected();
        // The handshake ACK may carry data (or a FIN) — fall through.
        handle_established_packet(p);
        try_send_data();
        send_fin_if_ready();
      }
      return;
    }

    default:
      handle_established_packet(p);
  }
}

void TcpSocket::handle_established_packet(const net::PacketPtr& p) {
  if (trace_ != nullptr) {
    // Mirror what a packet capture at this node records, so the span's
    // timeline reconstruction matches analysis/timeline bit-for-bit:
    // the first ACK covering data is t2, and every payload-bearing
    // arrival (duplicates included — capture sees those too) is an "rx"
    // segment keyed by its server-relative stream offset.
    if (!trace_ack_data_ && p->tcp.flags.ack && p->tcp.ack > iss_ + 1) {
      trace_ack_data_ = true;
      trace_->add_event(trace_span_, "ack_data", stack_.simulator().now());
    }
    if (!p->payload.empty() && p->tcp.seq >= irs_ + 1) {
      trace_->add_event(
          trace_span_, "rx", stack_.simulator().now(),
          {obs::Arg{"off", obs::ArgValue::of(static_cast<std::int64_t>(
                               p->tcp.seq - (irs_ + 1)))},
           obs::Arg{"len", obs::ArgValue::of(static_cast<std::int64_t>(
                               p->payload.length))}});
    }
  }
  if (p->tcp.flags.ack) process_ack(p);
  if (state_ == TcpState::kClosed) return;  // teardown completed in ACK path
  if (!p->payload.empty()) process_payload(p);
  if (p->tcp.flags.fin) process_fin(p);
}

// ---------------------------------------------------------------------------
// ACK processing & congestion control
// ---------------------------------------------------------------------------

void TcpSocket::process_ack(const net::PacketPtr& p) {
  const std::uint64_t ack = p->tcp.ack;
  peer_window_ = p->tcp.window;

  if (ack > snd_nxt_) return;  // acks data we never sent; ignore

  if (ack > snd_una_) {
    const std::uint64_t acked = ack - snd_una_;
    snd_una_ = ack;
    dupack_count_ = 0;
    if (rto_backoff_ != 0) {
      rto_backoff_ = 0;
      update_rto();
    }

    if (timing_segment_ && ack >= timed_seq_) {
      take_rtt_sample(stack_.simulator().now() - timed_sent_at_);
      timing_segment_ = false;
    }

    // Release acked bytes from the send buffer. The buffer holds only data
    // bytes; a FIN consumes sequence space past the buffered range.
    std::uint64_t data_acked_upto = ack;
    if (fin_sent_ && ack > fin_seq_) data_acked_upto = fin_seq_;
    std::size_t popped = 0;
    while (!send_buf_.empty() &&
           buf_seq_base_ + send_buf_.front().length <= data_acked_upto) {
      buf_bytes_ -= send_buf_.front().length;
      buf_seq_base_ += send_buf_.front().length;
      send_buf_.pop_front();
      ++popped;
    }
    if (!send_buf_.empty() && data_acked_upto > buf_seq_base_) {
      const std::size_t cut =
          static_cast<std::size_t>(data_acked_upto - buf_seq_base_);
      net::PayloadRef& front = send_buf_.front();
      front = front.slice(cut, front.length - cut);
      buf_bytes_ -= cut;
      buf_seq_base_ += cut;
    }
    // Shift the gather hint past the trimmed entries; if the hinted entry
    // itself was trimmed (or its front byte moved), re-anchor at the new
    // buffer front.
    if (gather_hint_index_ <= popped) {
      gather_hint_index_ = 0;
      gather_hint_base_ = buf_seq_base_;
    } else {
      gather_hint_index_ -= popped;
    }

    if (in_fast_recovery_) {
      if (ack >= recovery_point_) {
        // Full recovery: deflate to ssthresh.
        cwnd_ = std::max(ssthresh_, 2 * config_.mss);
        in_fast_recovery_ = false;
      } else {
        // NewReno partial ACK: retransmit the next hole immediately.
        cwnd_ = (cwnd_ > static_cast<std::size_t>(acked)
                     ? cwnd_ - static_cast<std::size_t>(acked)
                     : config_.mss) +
                config_.mss;
        retransmit_one(snd_una_);
      }
    } else {
      on_new_ack(acked);
    }

    if (flight_size() == 0) {
      disarm_rto();
    } else {
      arm_rto();  // restart on forward progress
    }

    // Our FIN acked?
    if (fin_sent_ && ack >= fin_seq_ + 1) {
      switch (state_) {
        case TcpState::kFinWait1:
          state_ = TcpState::kFinWait2;
          break;
        case TcpState::kClosing:
          enter_time_wait();
          break;
        case TcpState::kLastAck:
          finish_close();
          return;
        default:
          break;
      }
    }

    try_send_data();
    send_fin_if_ready();
    return;
  }

  // Duplicate ACK: same ack number, no payload, no SYN/FIN, data in flight.
  if (ack == snd_una_ && p->payload.empty() && !p->tcp.flags.syn &&
      !p->tcp.flags.fin && flight_size() > 0) {
    ++dupack_count_;
    ++stats_.dupacks_received;
    if (!in_fast_recovery_ && dupack_count_ == config_.dupack_threshold) {
      enter_fast_retransmit();
    } else if (in_fast_recovery_) {
      cwnd_ += config_.mss;  // window inflation per extra dupack
      try_send_data();
    }
  }
}

void TcpSocket::on_new_ack(std::uint64_t acked_bytes) {
  if (cwnd_ < ssthresh_) {
    // Slow start: grow by one MSS per MSS acked (i.e. exponential per RTT).
    cwnd_ += std::min<std::size_t>(static_cast<std::size_t>(acked_bytes),
                                   config_.mss);
  } else {
    // Congestion avoidance: ~one MSS per RTT.
    cwnd_ += std::max<std::size_t>(1, config_.mss * config_.mss / cwnd_);
  }
}

void TcpSocket::enter_fast_retransmit() {
  ssthresh_ = std::max(flight_size() / 2, 2 * config_.mss);
  cwnd_ = ssthresh_ + 3 * config_.mss;
  in_fast_recovery_ = true;
  recovery_point_ = snd_nxt_;
  timing_segment_ = false;  // Karn: the timed segment may be the lost one
  ++stats_.retransmits_fast;
  retransmit_one(snd_una_);
  arm_rto();
}

void TcpSocket::on_rto() {
  if (flight_size() == 0) return;

  if (rto_backoff_ >= config_.max_retries) {
    // Peer declared dead: give up, as a real stack's tcp_retries2 does.
    finish_close();
    return;
  }

  ssthresh_ = std::max(flight_size() / 2, 2 * config_.mss);
  cwnd_ = config_.mss;
  in_fast_recovery_ = false;
  dupack_count_ = 0;
  timing_segment_ = false;
  ++rto_backoff_;
  update_rto();
  ++stats_.retransmits_rto;

  switch (state_) {
    case TcpState::kSynSent: {
      net::TcpFlags syn;
      syn.syn = true;
      emit(syn, iss_, {});
      break;
    }
    case TcpState::kSynReceived: {
      net::TcpFlags synack;
      synack.syn = true;
      synack.ack = true;
      emit(synack, iss_, {});
      break;
    }
    default:
      retransmit_one(snd_una_);
  }
  arm_rto();
}

void TcpSocket::retransmit_one(std::uint64_t seq) {
  // FIN-only retransmission when every data byte is acked.
  if (fin_sent_ && seq >= fin_seq_) {
    net::TcpFlags fin;
    fin.fin = true;
    fin.ack = true;
    emit(fin, fin_seq_, {});
    return;
  }

  const std::uint64_t data_end = buf_seq_base_ + buf_bytes_;
  if (seq >= data_end) return;  // nothing buffered at this offset

  const std::size_t len = std::min(
      config_.mss, static_cast<std::size_t>(data_end - seq));
  net::PayloadRef payload = gather_payload(seq, len);
  if (payload.empty()) return;
  net::TcpFlags flags;
  flags.ack = true;
  emit(flags, seq, std::move(payload));
  ++stats_.segments_sent;
}

net::PayloadRef TcpSocket::gather_payload(std::uint64_t seq,
                                          std::size_t len) const {
  // Locate the application write containing `seq`. Segmentation walks the
  // stream front to back, so resume from the entry the previous gather
  // ended in (the hint) instead of rescanning from the front — with an
  // application that wrote thousands of small chunks the full scan per
  // segment is quadratic. The hint is invalid after a retransmission
  // rewinds seq or an ACK trims past it; fall back to a front scan then.
  std::uint64_t base = buf_seq_base_;
  std::size_t idx = 0;
  if (gather_hint_index_ <= send_buf_.size() &&
      gather_hint_base_ >= buf_seq_base_ && gather_hint_base_ <= seq) {
    base = gather_hint_base_;
    idx = gather_hint_index_;
  }
  while (idx < send_buf_.size() && seq >= base + send_buf_[idx].length) {
    base += send_buf_[idx].length;
    ++idx;
  }
  if (idx == send_buf_.size()) return {};
  gather_hint_index_ = idx;
  gather_hint_base_ = base;
  const std::size_t off = static_cast<std::size_t>(seq - base);
  const net::PayloadRef& entry = send_buf_[idx];

  if (!entry.chained() && entry.length - off >= len) {
    return entry.slice(off, len);  // common case: one zero-copy slice
  }

  // The segment spans application writes: chain slices, zero-copy.
  net::PayloadRef out = entry.slice(off, len);
  for (std::size_t j = idx + 1;
       j < send_buf_.size() && out.length < len; ++j) {
    out.append(send_buf_[j].slice(0, len - out.length));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

void TcpSocket::process_payload(const net::PacketPtr& p) {
  const std::uint64_t seq = p->tcp.seq;
  const std::uint64_t len = p->payload.length;

  if (seq + len <= rcv_nxt_) {
    // Entire segment is old: pure duplicate, re-ack immediately so the
    // sender's dupack machinery sees it.
    send_ack_now();
    return;
  }

  if (seq > rcv_nxt_) {
    // Out of order: buffer (bounded by the advertised window) and emit an
    // immediate duplicate ACK.
    if (!out_of_order_.contains(seq) &&
        ooo_bytes_ + len <= config_.receive_buffer) {
      out_of_order_.emplace(seq, p->payload);
      ooo_bytes_ += len;
    }
    send_ack_now();
    return;
  }

  // In-order (possibly partially duplicate) segment.
  const std::size_t dup = static_cast<std::size_t>(rcv_nxt_ - seq);
  net::PayloadRef fresh = p->payload.slice(dup, p->payload.length - dup);
  rcv_nxt_ += fresh.length;
  stats_.bytes_received += fresh.length;
  if (callbacks_.on_data && !fresh.empty()) callbacks_.on_data(fresh);
  deliver_in_order();

  // Peer FIN may now be consumable.
  if (fin_received_ && rcv_nxt_ == peer_fin_seq_) {
    process_fin(p);  // re-enter with the recorded FIN
    return;          // process_fin acks
  }
  schedule_ack();
}

void TcpSocket::deliver_in_order() {
  auto it = out_of_order_.begin();
  while (it != out_of_order_.end() && it->first <= rcv_nxt_) {
    const std::uint64_t seq = it->first;
    net::PayloadRef ref = it->second;
    ooo_bytes_ -= ref.length;
    it = out_of_order_.erase(it);
    if (seq + ref.length <= rcv_nxt_) continue;  // fully duplicate
    const std::size_t dup = static_cast<std::size_t>(rcv_nxt_ - seq);
    net::PayloadRef fresh = ref.slice(dup, ref.length - dup);
    rcv_nxt_ += fresh.length;
    stats_.bytes_received += fresh.length;
    if (callbacks_.on_data && !fresh.empty()) callbacks_.on_data(fresh);
    it = out_of_order_.begin();
  }
}

void TcpSocket::process_fin(const net::PacketPtr& p) {
  if (!fin_received_) {
    fin_received_ = true;
    peer_fin_seq_ = p->tcp.flags.fin ? p->tcp.seq + p->payload.length
                                     : peer_fin_seq_;
  }
  if (rcv_nxt_ != peer_fin_seq_) {
    // Data before the FIN is still missing; ack what we have.
    send_ack_now();
    return;
  }

  rcv_nxt_ = peer_fin_seq_ + 1;  // consume the FIN
  send_ack_now();
  if (callbacks_.on_remote_close) callbacks_.on_remote_close();

  switch (state_) {
    case TcpState::kEstablished:
      state_ = TcpState::kCloseWait;
      send_fin_if_ready();  // app may already have called close()
      break;
    case TcpState::kFinWait1:
      // Simultaneous close; our FIN not yet acked.
      state_ = TcpState::kClosing;
      break;
    case TcpState::kFinWait2:
      enter_time_wait();
      break;
    case TcpState::kTimeWait:
      break;  // retransmitted FIN; already re-acked above
    default:
      break;
  }
}

std::uint32_t TcpSocket::advertised_window() const {
  // The application consumes in-order data synchronously, so only
  // out-of-order bytes occupy the receive buffer.
  const std::size_t used = ooo_bytes_;
  const std::size_t free_bytes =
      config_.receive_buffer > used ? config_.receive_buffer - used : 0;
  return static_cast<std::uint32_t>(
      std::min<std::size_t>(free_bytes, 0xFFFFFFFFu));
}

// ---------------------------------------------------------------------------
// Data transmission
// ---------------------------------------------------------------------------

std::size_t TcpSocket::flight_size() const {
  return static_cast<std::size_t>(snd_nxt_ - snd_una_);
}

std::size_t TcpSocket::effective_window() const {
  const std::size_t wnd =
      std::min(cwnd_, static_cast<std::size_t>(peer_window_));
  const std::size_t flight = flight_size();
  return wnd > flight ? wnd - flight : 0;
}

void TcpSocket::maybe_decay_idle_cwnd() {
  if (!config_.cwnd_validation) return;
  if (flight_size() > 0) return;  // not idle: data in flight
  const sim::SimTime now = stack_.simulator().now();
  if (last_data_sent_ == sim::SimTime::zero()) {
    last_data_sent_ = now;
    return;
  }
  sim::SimTime idle = now - last_data_sent_;
  const std::size_t restart_window =
      config_.initial_cwnd_segments * config_.mss;
  // Halve cwnd once per elapsed RTO of idleness, down to the restart window.
  while (idle >= rto_ && cwnd_ > restart_window) {
    cwnd_ = std::max(cwnd_ / 2, restart_window);
    idle -= rto_;
  }
}

void TcpSocket::try_send_data() {
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait &&
      state_ != TcpState::kFinWait1 && state_ != TcpState::kClosing) {
    return;
  }
  maybe_decay_idle_cwnd();
  const std::uint64_t data_end = buf_seq_base_ + buf_bytes_;

  while (snd_nxt_ < data_end) {
    std::size_t usable = effective_window();
    if (usable == 0) {
      // Zero-window (or cwnd-exhausted) stall: if nothing is in flight and
      // the peer advertises zero, arm a persist-style probe so the
      // connection cannot deadlock.
      if (peer_window_ == 0 && flight_size() == 0) {
        usable = 1;  // window probe: force out a single byte
      } else {
        break;  // ACK clocking will resume transmission
      }
    }

    const std::size_t len =
        std::min({config_.mss, usable,
                  static_cast<std::size_t>(data_end - snd_nxt_)});
    if (len == 0) break;
    net::PayloadRef payload = gather_payload(snd_nxt_, len);
    if (payload.empty()) break;  // should not happen

    net::TcpFlags flags;
    flags.ack = true;
    emit(flags, snd_nxt_, std::move(payload));
    ++stats_.segments_sent;
    stats_.bytes_sent += len;
    last_data_sent_ = stack_.simulator().now();
    if (trace_ != nullptr && !trace_tx_data_) {
      trace_tx_data_ = true;  // first payload transmission = t1
      trace_->add_event(trace_span_, "tx_data", stack_.simulator().now());
    }

    if (!timing_segment_) {
      timing_segment_ = true;
      timed_seq_ = snd_nxt_ + len;
      timed_sent_at_ = stack_.simulator().now();
    }
    snd_nxt_ += len;
    arm_rto();
  }

  send_fin_if_ready();
}

void TcpSocket::send_fin_if_ready() {
  if (!fin_queued_ || fin_sent_) return;
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait) {
    return;
  }
  const std::uint64_t data_end = buf_seq_base_ + buf_bytes_;
  if (snd_nxt_ < data_end) return;  // unsent data remains

  net::TcpFlags fin;
  fin.fin = true;
  fin.ack = true;
  emit(fin, snd_nxt_, {});
  fin_seq_ = snd_nxt_;
  snd_nxt_ += 1;
  fin_sent_ = true;
  state_ = (state_ == TcpState::kEstablished) ? TcpState::kFinWait1
                                              : TcpState::kLastAck;
  arm_rto();
}

// ---------------------------------------------------------------------------
// Segment emission & ACK strategy
// ---------------------------------------------------------------------------

void TcpSocket::emit(net::TcpFlags flags, std::uint64_t seq,
                     net::PayloadRef payload) {
  auto packet = net::acquire_packet();
  packet->dst = flow_.remote.node;
  packet->tcp.src_port = flow_.local.port;
  packet->tcp.dst_port = flow_.remote.port;
  packet->tcp.seq = seq;
  packet->tcp.ack = flags.ack ? rcv_nxt_ : 0;
  packet->tcp.window = advertised_window();
  packet->tcp.flags = flags;
  packet->payload = std::move(payload);
  if (flags.ack) {
    // Any emitted segment carries the latest ack; outstanding delayed ACK
    // obligations are satisfied by piggybacking.
    ack_pending_ = false;
    if (delayed_ack_timer_.valid()) {
      stack_.simulator().cancel(delayed_ack_timer_);
      delayed_ack_timer_ = {};
    }
  }
  stack_.transmit(std::move(packet));
}

void TcpSocket::send_ack_now() {
  net::TcpFlags flags;
  flags.ack = true;
  emit(flags, snd_nxt_, {});
}

void TcpSocket::schedule_ack() {
  if (!config_.delayed_ack) {
    send_ack_now();
    return;
  }
  if (ack_pending_) {
    // Second unacked segment: ack immediately (RFC 1122).
    send_ack_now();
    return;
  }
  ack_pending_ = true;
  delayed_ack_timer_ =
      stack_.simulator().schedule_in(config_.delayed_ack_timeout, [this]() {
        delayed_ack_timer_ = {};
        if (ack_pending_) send_ack_now();
      });
}

// ---------------------------------------------------------------------------
// RTO management
// ---------------------------------------------------------------------------

void TcpSocket::update_rto() {
  sim::SimTime rto = have_rtt_sample_
                         ? srtt_ + std::max(rttvar_.scaled(4.0),
                                            sim::SimTime::milliseconds(10))
                         : config_.initial_rto;
  for (int i = 0; i < rto_backoff_; ++i) rto = rto * 2;
  rto_ = std::clamp(rto, config_.min_rto, config_.max_rto);
}

void TcpSocket::arm_rto() {
  sim::Simulator& simulator = stack_.simulator();
  rto_deadline_ = simulator.now() + rto_;
  rto_ticket_ = simulator.reserve_seq();
  if (rto_timer_.valid()) {
    // The new ticket is the newest sequence number, so an entry due no
    // later than the deadline pops ahead of (deadline, ticket): it wakes,
    // sees an old ticket and files itself again. An entry due after the
    // deadline (it moved earlier, as after a backoff reset) would fire
    // late, so it is re-filed now.
    if (rto_timer_at_ <= rto_deadline_) return;
    simulator.cancel(rto_timer_);
  }
  file_rto();
}

void TcpSocket::file_rto() {
  rto_timer_at_ = rto_deadline_;
  rto_timer_ticket_ = rto_ticket_;
  rto_timer_ = stack_.simulator().schedule_at_seq(
      rto_deadline_, rto_ticket_, [this]() { on_rto_timer(); });
}

void TcpSocket::on_rto_timer() {
  rto_timer_ = {};
  if (rto_timer_ticket_ != rto_ticket_) {
    file_rto();  // woke ahead of the current deadline
    return;
  }
  on_rto();
}

void TcpSocket::disarm_rto() {
  if (rto_timer_.valid()) {
    stack_.simulator().cancel(rto_timer_);
    rto_timer_ = {};
  }
}

void TcpSocket::take_rtt_sample(sim::SimTime sample) {
  if (!have_rtt_sample_) {
    srtt_ = sample;
    rttvar_ = sample / 2;
    have_rtt_sample_ = true;
  } else {
    // Jacobson/Karels EWMA: alpha=1/8, beta=1/4.
    const sim::SimTime err =
        (sample > srtt_) ? sample - srtt_ : srtt_ - sample;
    rttvar_ = rttvar_.scaled(0.75) + err.scaled(0.25);
    srtt_ = srtt_.scaled(0.875) + sample.scaled(0.125);
  }
  update_rto();
}

// ---------------------------------------------------------------------------
// Teardown
// ---------------------------------------------------------------------------

void TcpSocket::enter_time_wait() {
  state_ = TcpState::kTimeWait;
  disarm_rto();
  time_wait_timer_ = stack_.simulator().schedule_in(
      config_.time_wait, [this]() {
        time_wait_timer_ = {};
        finish_close();
      });
}

void TcpSocket::finish_close() {
  if (state_ == TcpState::kClosed) return;
  state_ = TcpState::kClosed;
  if (trace_ != nullptr) {
    trace_->add_arg(trace_span_, "bytes_received",
                    obs::ArgValue::of(static_cast<std::int64_t>(
                        stats_.bytes_received)));
    trace_->add_arg(trace_span_, "retransmits",
                    obs::ArgValue::of(static_cast<std::int64_t>(
                        stats_.retransmits_rto + stats_.retransmits_fast)));
    trace_->end_span(trace_span_, stack_.simulator().now());
    trace_ = nullptr;
  }
  disarm_rto();
  if (delayed_ack_timer_.valid()) {
    stack_.simulator().cancel(delayed_ack_timer_);
    delayed_ack_timer_ = {};
  }
  if (time_wait_timer_.valid()) {
    stack_.simulator().cancel(time_wait_timer_);
    time_wait_timer_ = {};
  }
  if (callbacks_.on_closed) callbacks_.on_closed();
  stack_.destroy(*this);
}

}  // namespace dyncdn::tcp

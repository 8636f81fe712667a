// Sim-time periodic metric series: bounded, merge-deterministic sampling
// of scalar channels at a fixed tick interval.
//
// The sampler itself is passive — it does not know about the simulator.
// The scenario drives it: at each tick boundary it calls begin_tick(),
// record()s every channel through its ChannelRef, then end_tick(). Every
// channel is derived only from simulation state (queue depths, in-flight
// packets, delivered-byte deltas) at exact tick times, so the CSV/JSON
// exports are byte-identical at any thread or replica-shard count — the
// same contract as the metrics registry.
//
// merge() aligns two samplers by absolute tick index and sums values, the
// commutative rule that keeps replica merges order-independent. The series
// is bounded: past max_samples ticks the oldest tick is evicted.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace dyncdn::obs {

class TimeSeriesSampler {
  struct Channel;

 public:
  // interval_ns: sim-time width of one tick; max_samples bounds retained
  // ticks (oldest evicted first).
  explicit TimeSeriesSampler(std::uint64_t interval_ns = 0,
                             std::size_t max_samples = 4096);

  bool enabled() const { return interval_ns_ > 0; }
  std::uint64_t interval_ns() const { return interval_ns_; }
  std::size_t max_samples() const { return max_samples_; }

  // Start the sample for absolute tick index `tick` (sim time =
  // tick * interval). Ticks must be presented in increasing order.
  void begin_tick(std::uint64_t tick);

  // Channel handle: resolves (and creates) the named channel once, so the
  // per-tick record() calls skip a string-keyed map lookup. Refs stay
  // valid across ticks and evictions but are invalidated by merge().
  class ChannelRef {
   public:
    ChannelRef() = default;

   private:
    friend class TimeSeriesSampler;
    Channel* ch = nullptr;
  };
  ChannelRef channel(const std::string& name);
  // Record an instantaneous value for the channel at the current tick.
  void record(ChannelRef ref, double value);
  // Record a monotonically increasing cumulative counter; the stored value
  // is the delta since the previous record_cumulative on this channel.
  void record_cumulative(ChannelRef ref, double cumulative);

  // Close the current tick: channels not recorded this tick are padded
  // with zero so every channel column has one value per retained tick.
  void end_tick();

  // Sum `other` into this series, aligning rows by absolute tick index
  // (a tick missing on either side contributes zero). Deterministic for
  // any merge order.
  void merge(const TimeSeriesSampler& other);

  std::size_t sample_count() const { return ticks_.size(); }
  const std::vector<std::uint64_t>& ticks() const { return ticks_; }
  std::vector<std::string> channel_names() const;

  // CSV with header `tick,time_ms,<channels sorted>`.
  std::string to_csv() const;

  // JSON object {interval_ns, ticks:[...], channels:{name:[...]}}.
  std::string to_json() const;

  // Values of `channel`, one per retained tick (empty when absent).
  const std::vector<double>& values(const std::string& channel) const;

  // Readers of the two exports: a series the writers could have written,
  // or std::runtime_error naming the first fault. Ticks are whole,
  // non-negative and increasing; values finite and non-negative; every
  // channel holds one value per tick and names no other channel's name.
  // A CSV file's interval is the one positive whole number of
  // nanoseconds that gives every row's time_ms (0 when no row is past
  // tick 0); its messages start "line N: ". from_json also takes a
  // --ts-runtime-out document, which wraps the series in
  // {"timeseries": ...}.
  static TimeSeriesSampler from_csv(std::string_view text);
  static TimeSeriesSampler from_json(const json::Value& doc);

 private:
  struct Channel {
    bool has_prev = false;
    double prev_cumulative = 0.0;
    // values[i] belongs to ticks_[i]; padded to ticks_.size() by
    // end_tick(), shorter only mid-tick.
    std::vector<double> values;
  };

  void pad_channel(Channel& ch) {
    if (ch.values.size() < ticks_.size()) {
      ch.values.resize(ticks_.size(), 0.0);
    }
  }
  void evict_to_bound();

  std::uint64_t interval_ns_ = 0;
  std::size_t max_samples_ = 4096;
  bool in_tick_ = false;
  std::vector<std::uint64_t> ticks_;
  std::map<std::string, Channel> channels_;
};

}  // namespace dyncdn::obs

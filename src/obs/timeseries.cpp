#include "obs/timeseries.hpp"

#include <algorithm>

#include "obs/json.hpp"

namespace dyncdn::obs {

namespace {
using json::append_double;
using json::append_u64;
}  // namespace

TimeSeriesSampler::TimeSeriesSampler(std::uint64_t interval_ns,
                                     std::size_t max_samples)
    : interval_ns_(interval_ns),
      max_samples_(max_samples == 0 ? 1 : max_samples) {}

void TimeSeriesSampler::begin_tick(std::uint64_t tick) {
  if (!ticks_.empty() && tick <= ticks_.back()) return;  // monotonic only
  ticks_.push_back(tick);
  in_tick_ = true;
}

void TimeSeriesSampler::record_channel(Channel& ch, double value) {
  // Pad up to the row before this tick, then append this tick's value.
  if (ch.values.size() < ticks_.size() - 1) {
    ch.values.resize(ticks_.size() - 1, 0.0);
  }
  if (ch.values.size() == ticks_.size() - 1) {
    ch.values.push_back(value);
  } else {
    ch.values.back() += value;  // second record in one tick accumulates
  }
}

void TimeSeriesSampler::record(const std::string& channel, double value) {
  if (!in_tick_) return;
  record_channel(channels_[channel], value);
}

void TimeSeriesSampler::record_cumulative(const std::string& channel,
                                          double cumulative) {
  if (!in_tick_) return;
  Channel& ch = channels_[channel];
  const double delta = ch.has_prev ? cumulative - ch.prev_cumulative
                                   : cumulative;
  ch.prev_cumulative = cumulative;
  ch.has_prev = true;
  record_channel(ch, delta);
}

TimeSeriesSampler::ChannelRef TimeSeriesSampler::channel(
    const std::string& name) {
  ChannelRef ref;
  // Map nodes are pointer-stable until merge() rebuilds the map.
  ref.ch = &channels_[name];
  return ref;
}

void TimeSeriesSampler::record(ChannelRef ref, double value) {
  if (!in_tick_ || ref.ch == nullptr) return;
  record_channel(*ref.ch, value);
}

void TimeSeriesSampler::record_cumulative(ChannelRef ref, double cumulative) {
  if (!in_tick_ || ref.ch == nullptr) return;
  Channel& ch = *ref.ch;
  const double delta = ch.has_prev ? cumulative - ch.prev_cumulative
                                   : cumulative;
  ch.prev_cumulative = cumulative;
  ch.has_prev = true;
  record_channel(ch, delta);
}

void TimeSeriesSampler::end_tick() {
  if (!in_tick_) return;
  in_tick_ = false;
  for (auto& [name, ch] : channels_) pad_channel(ch);
  evict_to_bound();
}

void TimeSeriesSampler::evict_to_bound() {
  if (ticks_.size() <= max_samples_) return;
  const std::size_t drop = ticks_.size() - max_samples_;
  ticks_.erase(ticks_.begin(),
               ticks_.begin() + static_cast<std::ptrdiff_t>(drop));
  for (auto& [name, ch] : channels_) {
    const std::size_t d = std::min(drop, ch.values.size());
    ch.values.erase(ch.values.begin(),
                    ch.values.begin() + static_cast<std::ptrdiff_t>(d));
  }
}

void TimeSeriesSampler::merge(const TimeSeriesSampler& other) {
  if (other.ticks_.empty() && other.channels_.empty()) return;
  if (interval_ns_ == 0) interval_ns_ = other.interval_ns_;
  // Union of tick indexes, both sides sorted ascending already.
  std::vector<std::uint64_t> merged_ticks;
  merged_ticks.reserve(ticks_.size() + other.ticks_.size());
  std::set_union(ticks_.begin(), ticks_.end(), other.ticks_.begin(),
                 other.ticks_.end(), std::back_inserter(merged_ticks));

  const auto realign = [&](const std::vector<std::uint64_t>& from_ticks,
                           const std::vector<double>& from_values,
                           std::vector<double>& into) {
    std::size_t j = 0;
    for (std::size_t i = 0; i < merged_ticks.size(); ++i) {
      if (j < from_ticks.size() && from_ticks[j] == merged_ticks[i] &&
          j < from_values.size()) {
        into[i] += from_values[j];
      }
      if (j < from_ticks.size() && from_ticks[j] == merged_ticks[i]) ++j;
    }
  };

  std::map<std::string, Channel> merged;
  const auto fold = [&](const std::map<std::string, Channel>& src,
                        const std::vector<std::uint64_t>& src_ticks) {
    for (const auto& [name, ch] : src) {
      Channel& out = merged[name];
      if (out.values.size() != merged_ticks.size()) {
        out.values.assign(merged_ticks.size(), 0.0);
      }
      realign(src_ticks, ch.values, out.values);
    }
  };
  fold(channels_, ticks_);
  fold(other.channels_, other.ticks_);

  ticks_ = std::move(merged_ticks);
  channels_ = std::move(merged);
  // The merged series is an export artifact: cumulative-delta state does
  // not survive a merge.
  for (auto& [name, ch] : channels_) ch.has_prev = false;
  evict_to_bound();
}

std::vector<std::string> TimeSeriesSampler::channel_names() const {
  std::vector<std::string> names;
  for (const auto& [name, ch] : channels_) names.push_back(name);
  return names;
}

std::string TimeSeriesSampler::to_csv() const {
  std::string out = "tick,time_ms";
  const std::vector<std::string> names = channel_names();
  for (const std::string& n : names) {
    out.push_back(',');
    out += n;
  }
  out.push_back('\n');
  for (std::size_t i = 0; i < ticks_.size(); ++i) {
    append_u64(out, ticks_[i]);
    out.push_back(',');
    append_double(out, static_cast<double>(ticks_[i]) *
                           static_cast<double>(interval_ns_) / 1e6);
    for (const std::string& n : names) {
      out.push_back(',');
      const auto& values = channels_.at(n).values;
      append_double(out, i < values.size() ? values[i] : 0.0);
    }
    out.push_back('\n');
  }
  return out;
}

std::string TimeSeriesSampler::to_json() const {
  std::string out = "{\"interval_ns\":";
  append_u64(out, interval_ns_);
  out += ",\"ticks\":[";
  for (std::size_t i = 0; i < ticks_.size(); ++i) {
    if (i != 0) out.push_back(',');
    append_u64(out, ticks_[i]);
  }
  out += "],\"channels\":{";
  bool first = true;
  for (const std::string& n : channel_names()) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    out += n;  // channel names are code-chosen identifiers, no escaping
    out += "\":[";
    const auto& values = channels_.at(n).values;
    for (std::size_t i = 0; i < ticks_.size(); ++i) {
      if (i != 0) out.push_back(',');
      append_double(out, i < values.size() ? values[i] : 0.0);
    }
    out += "]";
  }
  out += "}}";
  return out;
}

}  // namespace dyncdn::obs

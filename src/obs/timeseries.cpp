#include "obs/timeseries.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/json.hpp"
#include "sim/parse.hpp"

namespace dyncdn::obs {

namespace {
using json::append_double;
using json::append_u64;

using Column = std::pair<std::string, std::vector<double>>;

/// The series the readers decoded, held as the writers hold it.
TimeSeriesSampler assemble(std::uint64_t interval_ns,
                           const std::vector<std::uint64_t>& ticks,
                           const std::vector<Column>& columns) {
  TimeSeriesSampler out(interval_ns, std::max<std::size_t>(ticks.size(), 1));
  std::vector<TimeSeriesSampler::ChannelRef> refs;
  for (const Column& c : columns) refs.push_back(out.channel(c.first));
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    out.begin_tick(ticks[i]);
    for (std::size_t c = 0; c < columns.size(); ++c) {
      out.record(refs[c], columns[c].second[i]);
    }
    out.end_tick();
  }
  return out;
}

bool names_a_column(const std::vector<Column>& columns,
                    const std::string& name) {
  return std::any_of(columns.begin(), columns.end(),
                     [&name](const Column& c) { return c.first == name; });
}

/// The CSV writer's time_ms cell for `tick`.
double csv_time_ms(std::uint64_t tick, std::uint64_t interval_ns) {
  return static_cast<double>(tick) * static_cast<double>(interval_ns) / 1e6;
}

/// The positive whole interval whose time_ms for `tick` (> 0) reads back
/// as `time_ms`, if one does.
std::optional<std::uint64_t> csv_interval(std::uint64_t tick, double time_ms) {
  const double estimate = time_ms * 1e6 / static_cast<double>(tick);
  if (!(estimate < 9e18)) return std::nullopt;
  const auto guess = static_cast<std::uint64_t>(std::llround(estimate));
  for (std::uint64_t c = guess > 1 ? guess - 1 : 1; c <= guess + 1; ++c) {
    if (csv_time_ms(tick, c) == time_ms) return c;
  }
  return std::nullopt;
}
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

TimeSeriesSampler::ChannelRef TimeSeriesSampler::channel(
    const std::string& name) {
  ChannelRef ref;
  // Map nodes are pointer-stable until merge() rebuilds the map.
  ref.ch = &channels_[name];
  return ref;
}

void TimeSeriesSampler::record(ChannelRef ref, double value) {
  if (!in_tick_ || ref.ch == nullptr) return;
  std::vector<double>& values = ref.ch->values;
  // Pad up to the row before this tick, then append this tick's value.
  if (values.size() < ticks_.size() - 1) values.resize(ticks_.size() - 1, 0.0);
  if (values.size() == ticks_.size() - 1) {
    values.push_back(value);
  } else {
    values.back() += value;  // second record in one tick accumulates
  }
}

void TimeSeriesSampler::record_cumulative(ChannelRef ref, double cumulative) {
  if (!in_tick_ || ref.ch == nullptr) return;
  Channel& ch = *ref.ch;
  const double delta = ch.has_prev ? cumulative - ch.prev_cumulative
                                   : cumulative;
  ch.prev_cumulative = cumulative;
  ch.has_prev = true;
  record(ref, delta);
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
    json::append_string(out, n);
    out += ":[";
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


const std::vector<double>& TimeSeriesSampler::values(
    const std::string& channel) const {
  static const std::vector<double> kNone;
  const auto it = channels_.find(channel);
  return it == channels_.end() ? kNone : it->second.values;
}

TimeSeriesSampler TimeSeriesSampler::from_csv(std::string_view text) {
  std::vector<std::uint64_t> ticks;
  std::vector<Column> columns;
  std::size_t line_no = 0;
  const auto refuse = [&line_no](const std::string& what) {
    throw std::runtime_error("line " + std::to_string(line_no) + ": " + what);
  };
  // The first row past tick 0 names the interval; every row's time_ms
  // must agree with it.
  std::optional<std::uint64_t> interval;
  bool header = true;
  while (!text.empty()) {
    const std::size_t eol = text.find('\n');
    const std::string_view line = text.substr(0, eol);
    text.remove_prefix(eol == std::string_view::npos ? text.size() : eol + 1);
    ++line_no;
    if (line.empty()) continue;
    std::size_t col = 0;
    std::size_t start = 0;
    for (bool more = true; more; ++col) {
      const std::size_t comma = line.find(',', start);
      more = comma != std::string_view::npos;
      const std::string cell(line.substr(start, more ? comma - start
                                                     : std::string::npos));
      start = comma + 1;
      if (header) {
        // Columns 0/1 are tick,time_ms; the rest are channels.
        if (col < 2) continue;
        if (names_a_column(columns, cell)) {
          refuse("duplicate channel '" + cell + "'");
        }
        columns.push_back(Column{cell, {}});
      } else if (col == 0) {
        const auto tick = sim::parse_uint(cell);
        if (!tick) refuse("bad tick '" + cell + "'");
        if (!ticks.empty() && *tick <= ticks.back()) {
          refuse("tick " + cell + " does not follow tick " +
                 std::to_string(ticks.back()));
        }
        ticks.push_back(*tick);
      } else {
        // time_ms and the channel values: finite, non-negative numbers.
        const auto value = sim::parse_double(cell);
        if (!value) {
          refuse("bad value '" + cell + "' in column " +
                 std::to_string(col + 1));
        }
        if (col >= columns.size() + 2) refuse("more columns than the header");
        if (col >= 2) {
          columns[col - 2].second.push_back(*value);
          continue;
        }
        const std::uint64_t tick = ticks.back();
        if (tick > 0 && !interval) interval = csv_interval(tick, *value);
        if ((tick > 0 && !interval) ||
            csv_time_ms(tick, interval.value_or(0)) != *value) {
          refuse("time_ms " + cell + " is not tick " + std::to_string(tick) +
                 (interval ? " times the interval of " +
                                 std::to_string(*interval) + " ns"
                           : " times a whole number of nanoseconds"));
        }
      }
    }
    if (!header && col < columns.size() + 2) {
      refuse("fewer columns than the header");
    }
    header = false;
  }
  return assemble(interval.value_or(0), ticks, columns);
}

TimeSeriesSampler TimeSeriesSampler::from_json(const json::Value& doc) {
  const auto refuse = [](const std::string& what) {
    throw std::runtime_error(what);
  };
  const auto whole = [](const json::Value& v) {
    return v.type == json::Value::Type::kNumber && v.is_integer &&
           v.integer >= 0;
  };
  const json::Value* series = doc.get("timeseries");
  if (series == nullptr) series = &doc;
  const json::Value* interval = series->get("interval_ns");
  if (interval == nullptr || !whole(*interval) || interval->integer == 0) {
    refuse("interval_ns must be a positive whole number");
  }
  const json::Value* jticks = series->get("ticks");
  if (jticks == nullptr || !jticks->is_array()) {
    refuse("ticks must be an array");
  }
  std::vector<std::uint64_t> ticks;
  for (std::size_t i = 0; i < jticks->array.size(); ++i) {
    const json::Value& t = jticks->array[i];
    if (!whole(t)) refuse("bad tick at ticks[" + std::to_string(i) + "]");
    const auto tick = static_cast<std::uint64_t>(t.integer);
    if (!ticks.empty() && tick <= ticks.back()) {
      refuse("ticks must increase at ticks[" + std::to_string(i) + "]");
    }
    ticks.push_back(tick);
  }
  const json::Value* chans = series->get("channels");
  if (chans == nullptr || !chans->is_object()) {
    refuse("channels must be an object");
  }
  std::vector<Column> columns;
  for (const auto& [name, vals] : chans->object) {
    if (!vals.is_array() || vals.array.size() != ticks.size()) {
      refuse("channel " + name + " must hold one value per tick");
    }
    if (names_a_column(columns, name)) refuse("duplicate channel " + name);
    Column c{name, {}};
    for (std::size_t i = 0; i < vals.array.size(); ++i) {
      // as_double's fallback -1 marks a non-number as bad.
      const double x = vals.array[i].as_double(-1.0);
      if (!std::isfinite(x) || x < 0) {
        refuse("bad value at " + name + "[" + std::to_string(i) + "]");
      }
      c.second.push_back(x);
    }
    columns.push_back(std::move(c));
  }
  return assemble(static_cast<std::uint64_t>(interval->integer), ticks,
                  columns);
}

}  // namespace dyncdn::obs

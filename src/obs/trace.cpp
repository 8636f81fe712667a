#include "obs/trace.hpp"

#include <cstdio>
#include <unordered_map>
#include <utility>

namespace dyncdn::obs {

const ArgValue* find_arg(const std::vector<Arg>& args, std::string_view key) {
  for (const Arg& a : args) {
    if (a.key == key) return &a.value;
  }
  return nullptr;
}

SpanId TraceSession::begin_span(sim::SimTime at, std::string_view name,
                                std::string_view category, SpanId parent) {
  if (!enabled_) return kNoSpan;
  SpanRecord record;
  record.id = next_id_++;
  record.parent = parent;
  record.name.assign(name);
  record.category.assign(category);
  record.start = at;
  record.end = at;
  spans_.push_back(std::move(record));
  return spans_.back().id;
}

void TraceSession::end_span(SpanId id, sim::SimTime at) {
  SpanRecord* span = find_mutable(id);
  if (span == nullptr || !span->open) return;
  span->end = at;
  span->open = false;
}

void TraceSession::add_arg(SpanId id, std::string_view key,
                           ArgValue value) {
  SpanRecord* span = find_mutable(id);
  if (span == nullptr) return;
  span->args.push_back(Arg{std::string(key), std::move(value)});
}

void TraceSession::add_event(SpanId id, std::string_view name,
                             sim::SimTime at, std::vector<Arg> args) {
  SpanRecord* span = find_mutable(id);
  if (span == nullptr) return;
  span->events.push_back(SpanEvent{std::string(name), at, std::move(args)});
  if (at > span->end && span->open) span->end = at;
}

const SpanRecord* TraceSession::find(SpanId id) const {
  // Ids are handed out sequentially from 1 (merges append fresh ids too)
  // and spans are never removed, so span `id` sits at index id - 1.
  if (id == kNoSpan || id > spans_.size()) return nullptr;
  return &spans_[id - 1];
}

SpanRecord* TraceSession::find_mutable(SpanId id) {
  if (!enabled_) return nullptr;
  return const_cast<SpanRecord*>(find(id));
}

std::size_t TraceSession::open_span_count() const {
  std::size_t open = 0;
  for (const auto& span : spans_) {
    if (span.open) ++open;
  }
  return open;
}

void TraceSession::merge_from(TraceSession&& other,
                              std::uint32_t replica_id) {
  std::unordered_map<SpanId, SpanId> remap;
  remap.reserve(other.spans_.size());
  spans_.reserve(spans_.size() + other.spans_.size());
  for (auto& span : other.spans_) {
    const SpanId new_id = next_id_++;
    remap.emplace(span.id, new_id);
    span.id = new_id;
    span.replica = replica_id;
    spans_.push_back(std::move(span));
  }
  // Second pass: rewire parents (a child can precede its parent only
  // across sessions, never within one, but remap handles both).
  for (std::size_t i = spans_.size() - remap.size(); i < spans_.size();
       ++i) {
    auto& span = spans_[i];
    if (span.parent == kNoSpan) continue;
    const auto it = remap.find(span.parent);
    span.parent = it == remap.end() ? kNoSpan : it->second;
  }
  other.spans_.clear();
  other.next_id_ = 1;
}

std::string span_id_header(SpanId id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%020llu",
                static_cast<unsigned long long>(id));
  return std::string(buf);
}

}  // namespace dyncdn::obs

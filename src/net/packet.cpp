#include "net/packet.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <new>

#include "mem/slab.hpp"

namespace dyncdn::net {

namespace {

/// Per-thread slab of Packet-sized blocks. A scenario is built, run and
/// destroyed on one thread, so its packets come from and return to that
/// thread's slab without locking (see the invariant in packet.hpp).
thread_local mem::SlabPool t_packet_slab(sizeof(Packet), 256);

/// Payload buffers are variable-size, so they are served from a small set
/// of size-class slabs; anything larger than the top class falls back to
/// the heap. Classes cover the common cases: ACK-less small writes and
/// HTTP heads (256), MSS-sized segments (2048 > 1448 + header), and
/// serialized responses (16K/64K).
constexpr std::size_t kClassCapacity[] = {256, 2048, 16384, 65536};
constexpr std::size_t kClassBlocksPerChunk[] = {64, 32, 8, 4};
constexpr std::size_t kClassCount = std::size(kClassCapacity);
constexpr std::uint8_t kHeapClass = 0xFF;

struct BufferPools {
  mem::SlabPool cls[kClassCount] = {
      mem::SlabPool(sizeof(ByteBuf) + kClassCapacity[0],
                    kClassBlocksPerChunk[0]),
      mem::SlabPool(sizeof(ByteBuf) + kClassCapacity[1],
                    kClassBlocksPerChunk[1]),
      mem::SlabPool(sizeof(ByteBuf) + kClassCapacity[2],
                    kClassBlocksPerChunk[2]),
      mem::SlabPool(sizeof(ByteBuf) + kClassCapacity[3],
                    kClassBlocksPerChunk[3]),
  };
};
static_assert(kClassCount == 4, "pool initializers above track the classes");

thread_local BufferPools t_buffer_pools;

/// Lazy-buffer fills run on this thread (bytebuf_fill_count).
thread_local std::size_t t_fill_count = 0;

std::uint8_t class_for(std::size_t size) {
  for (std::size_t c = 0; c < kClassCount; ++c) {
    if (size <= kClassCapacity[c]) return static_cast<std::uint8_t>(c);
  }
  return kHeapClass;
}

}  // namespace

ByteBuf* allocate_bytebuf(std::size_t size) {
  const std::uint8_t cls = class_for(size);
  void* block = cls == kHeapClass
                    ? ::operator new(sizeof(ByteBuf) + size)
                    : t_buffer_pools.cls[cls].allocate();
  auto* b = new (block) ByteBuf();
  b->size_ = static_cast<std::uint32_t>(size);
  b->cls_ = cls;
  return b;
}

void release_bytebuf(ByteBuf* b) noexcept {
  delete b->fill_;  // a lazy buffer nobody read: its recipe never ran
  const std::uint8_t cls = b->cls_;
  b->~ByteBuf();
  if (cls == kHeapClass) {
    ::operator delete(b);
  } else {
    t_buffer_pools.cls[cls].deallocate(b);
  }
}

Buffer make_buffer(std::span<const std::uint8_t> bytes) {
  ByteBuf* b = allocate_bytebuf(bytes.size());
  if (!bytes.empty()) std::memcpy(b->mutable_data(), bytes.data(), bytes.size());
  return Buffer::adopt(b);
}

Buffer make_buffer(std::string_view text) {
  return make_buffer(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

Buffer make_lazy_buffer(std::size_t size, std::unique_ptr<ByteFill> fill) {
  ByteBuf* b = allocate_bytebuf(size);
  b->fill_ = fill.release();
  return Buffer::adopt(b);
}

void ByteBuf::run_fill() const {
  // The recipe stays attached until it has written every byte, so a fill
  // that throws is retried by the next reader or freed with the buffer.
  auto* self = const_cast<ByteBuf*>(this);
  fill_->write(std::span<std::uint8_t>(self->mutable_data(), size_));
  delete fill_;
  fill_ = nullptr;
  ++t_fill_count;
}

PacketPtr acquire_packet() {
  return PacketPtr(new (t_packet_slab.allocate()) Packet());
}

void release_packet(Packet* p) noexcept {
  p->~Packet();
  t_packet_slab.deallocate(p);
}

std::size_t packet_pool_free_count() { return t_packet_slab.free_count(); }

std::size_t buffer_pool_free_count() {
  std::size_t n = 0;
  for (const mem::SlabPool& pool : t_buffer_pools.cls) n += pool.free_count();
  return n;
}

std::size_t bytebuf_fill_count() { return t_fill_count; }

PayloadRef PayloadRef::slice(std::size_t off, std::size_t len) const {
  PayloadRef out;
  if (off >= length) return out;
  len = std::min(len, length - off);
  if (len == 0) return out;

  const std::size_t first = first_length();
  std::size_t remaining = len;
  auto it = chain.begin();
  if (off < first) {
    out.buffer = buffer;
    out.offset = offset + off;
    const std::size_t take = std::min(remaining, first - off);
    out.length = take;
    remaining -= take;
  } else {
    std::size_t skip = off - first;
    while (skip >= it->length) skip -= (it++)->length;
    out.buffer = it->buffer;
    out.offset = it->offset + skip;
    const std::size_t take = std::min(remaining, it->length - skip);
    out.length = take;
    remaining -= take;
    ++it;
  }
  for (; remaining > 0; ++it) {
    const std::size_t take = std::min(remaining, it->length);
    out.chain.push_back(PayloadSlice{it->buffer, it->offset, take});
    out.length += take;
    remaining -= take;
  }
  return out;
}

void PayloadRef::append(PayloadRef tail) {
  if (tail.length == 0) return;
  if (length == 0) {
    *this = std::move(tail);
    return;
  }
  // Merge physically adjacent views of the same buffer, so contiguous
  // data split across many application writes of one buffer collapses
  // back into a single slice.
  const auto push_slice = [this](const Buffer& b, std::size_t off,
                                 std::size_t len) {
    if (len == 0) return;
    const bool primary = chain.empty();
    const Buffer& last_buf = primary ? buffer : chain.back().buffer;
    const std::size_t last_end =
        primary ? offset + first_length()
                : chain.back().offset + chain.back().length;
    if (b == last_buf && off == last_end) {
      if (!primary) chain.back().length += len;
      length += len;  // growing the primary slice is implicit in `length`
    } else {
      chain.push_back(PayloadSlice{b, off, len});
      length += len;
    }
  };
  push_slice(tail.buffer, tail.offset, tail.first_length());
  for (const PayloadSlice& s : tail.chain) {
    push_slice(s.buffer, s.offset, s.length);
  }
}

std::string PayloadRef::to_text() const {
  std::string out;
  append_to(out);
  return out;
}

void PayloadRef::append_to(std::string& out) const {
  out.reserve(out.size() + length);
  for_each_slice([&out](std::span<const std::uint8_t> span) {
    out.append(reinterpret_cast<const char*>(span.data()), span.size());
  });
}

std::string TcpFlags::to_string() const {
  std::string s;
  if (syn) s += "SYN|";
  if (ack) s += "ACK|";
  if (fin) s += "FIN|";
  if (rst) s += "RST|";
  if (s.empty()) return "-";
  s.pop_back();
  return s;
}

std::string Packet::to_string() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%u:%u -> %u:%u seq=%llu ack=%llu win=%u [%s] %zuB",
                src.value(), static_cast<unsigned>(tcp.src_port), dst.value(),
                static_cast<unsigned>(tcp.dst_port),
                static_cast<unsigned long long>(tcp.seq),
                static_cast<unsigned long long>(tcp.ack), tcp.window,
                tcp.flags.to_string().c_str(), payload.length);
  return buf;
}

}  // namespace dyncdn::net

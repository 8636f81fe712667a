// Simulated packets.
//
// Packets carry a TCP/IP-like header and a zero-copy view into an immutable
// payload buffer. TCP segmentation slices one application buffer into many
// segments without copying; capture taps can retain payload bytes for the
// content analysis the paper performs on full tcpdump payloads.
//
// Allocation discipline (see docs/PERF.md): both the Packet and the payload
// ByteBuf are intrusively refcounted objects served from per-thread slab
// free lists — steady-state per-segment cost is a free-list pop, no heap
// allocation and no shared_ptr control block. Refcounts are plain integers
// and the pools take no locks, because of one invariant: a scenario's
// blocks are acquired and released on the thread that builds, runs and
// destroys it. Replica workers (parallel/replica.hpp) each own whole
// scenarios and hand back only plain results (timelines, metrics), never
// a Packet or a Buffer, so no block outlives its scenario or changes
// thread.
//
// A buffer may be lazy: it knows its size and a recipe (ByteFill) for its
// bytes, and writes them on the first data() call. Everything that only
// moves bytes around — size(), Buffer copies, PayloadRef::slice/append,
// TCP gather, links, capture recording — never calls data(), so a dynamic
// body nobody reads is never synthesized. The fill takes no lock: by the
// same-thread invariant above, every handle to a buffer is used on one
// thread, so "first call" is well defined without synchronization.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/address.hpp"
#include "sim/time.hpp"

namespace dyncdn::net {

/// The recipe for a lazy buffer's bytes. It owns every input it needs, so
/// a buffer that outlives its producer (a copied capture, say) still fills.
class ByteFill {
 public:
  ByteFill() = default;
  ByteFill(const ByteFill&) = delete;
  ByteFill& operator=(const ByteFill&) = delete;
  virtual ~ByteFill() = default;
  /// Write exactly `out.size()` bytes, the same ones on every call.
  virtual void write(std::span<std::uint8_t> out) const = 0;
};

class Buffer;
/// A buffer of `size` bytes that `fill` writes on the first data() call.
/// Dropping the last reference before that frees the recipe unrun.
Buffer make_lazy_buffer(std::size_t size, std::unique_ptr<ByteFill> fill);

/// Immutable shared byte buffer: a slab-allocated header + inline bytes.
/// Always reached through Buffer (below); never constructed directly.
class ByteBuf {
 public:
  /// The bytes. A lazy buffer runs its fill here, once, on the first call.
  const std::uint8_t* data() const {
    if (fill_ != nullptr) run_fill();
    return reinterpret_cast<const std::uint8_t*>(this) + sizeof(ByteBuf);
  }
  std::size_t size() const { return size_; }

  /// Writable view for the producer filling a freshly allocated buffer.
  /// Must not be used once the buffer is shared (buffers are immutable to
  /// every reader).
  std::uint8_t* mutable_data() {
    return reinterpret_cast<std::uint8_t*>(this) + sizeof(ByteBuf);
  }

 private:
  friend class Buffer;
  friend ByteBuf* allocate_bytebuf(std::size_t size);
  friend void release_bytebuf(ByteBuf* b) noexcept;
  friend Buffer make_lazy_buffer(std::size_t size,
                                 std::unique_ptr<ByteFill> fill);

  void run_fill() const;

  std::uint32_t refs_ = 1;
  std::uint32_t size_ = 0;
  std::uint8_t cls_ = 0;  // size-class index; kHeapClass = plain heap
  /// Pending recipe of a lazy buffer (owned); null once filled, and for
  /// every buffer built from bytes.
  mutable ByteFill* fill_ = nullptr;
};

/// Uninitialized buffer of `size` bytes with one reference (Buffer::adopt
/// takes it over). Exposed for producers that serialize straight into the
/// buffer; most callers want make_buffer.
ByteBuf* allocate_bytebuf(std::size_t size);
void release_bytebuf(ByteBuf* b) noexcept;

/// Intrusive handle to an immutable shared ByteBuf. API-compatible with the
/// shared_ptr<const vector> it replaced at the sites that mattered:
/// `buf->data()`, `buf->size()`, truthiness and equality all behave the
/// same; the control block and atomic refcount are gone.
class Buffer {
 public:
  Buffer() = default;
  Buffer(std::nullptr_t) {}  // NOLINT: mirror shared_ptr's null literal
  Buffer(const Buffer& o) : b_(o.b_) {
    if (b_ != nullptr) ++b_->refs_;
  }
  Buffer(Buffer&& o) noexcept : b_(o.b_) { o.b_ = nullptr; }
  Buffer& operator=(const Buffer& o) {
    if (o.b_ != nullptr) ++o.b_->refs_;
    reset();
    b_ = o.b_;
    return *this;
  }
  Buffer& operator=(Buffer&& o) noexcept {
    if (this != &o) {
      reset();
      b_ = o.b_;
      o.b_ = nullptr;
    }
    return *this;
  }
  ~Buffer() { reset(); }

  void reset() {
    if (b_ != nullptr && --b_->refs_ == 0) release_bytebuf(b_);
    b_ = nullptr;
  }

  /// Adopt a reference produced by allocate_bytebuf.
  static Buffer adopt(ByteBuf* b) {
    Buffer out;
    out.b_ = b;
    return out;
  }

  const ByteBuf* operator->() const { return b_; }
  const ByteBuf& operator*() const { return *b_; }
  const ByteBuf* get() const { return b_; }
  explicit operator bool() const { return b_ != nullptr; }
  friend bool operator==(const Buffer& a, const Buffer& b) {
    return a.b_ == b.b_;
  }

 private:
  ByteBuf* b_ = nullptr;
};

/// Copy bytes into a fresh slab-backed buffer.
Buffer make_buffer(std::span<const std::uint8_t> bytes);
Buffer make_buffer(std::string_view text);
inline Buffer make_buffer(const std::vector<std::uint8_t>& bytes) {
  return make_buffer(std::span<const std::uint8_t>(bytes.data(), bytes.size()));
}

/// One contiguous (buffer, offset, length) piece of a payload.
struct PayloadSlice {
  Buffer buffer;
  std::size_t offset = 0;
  std::size_t length = 0;

  std::span<const std::uint8_t> bytes() const {
    if (!buffer || length == 0) return {};
    return std::span<const std::uint8_t>(buffer->data() + offset, length);
  }
};

///// A payload view: one primary slice plus an optional chain of
/// continuation slices. A TCP segment gathered across application writes
/// keeps one slice per source buffer instead of copying into a fresh
/// allocation, so cross-chunk segments stay zero-copy through net,
/// capture, and reassembly. `length` is the TOTAL across all slices; the
/// chain is empty in the overwhelmingly common single-buffer case, where
/// this degrades to the plain (buffer, offset, length) view it used to be.
struct PayloadRef {
  Buffer buffer;
  std::size_t offset = 0;
  std::size_t length = 0;
  std::vector<PayloadSlice> chain;  // continuation slices, in stream order

  PayloadRef() = default;
  PayloadRef(Buffer buf, std::size_t off, std::size_t len)
      : buffer(std::move(buf)), offset(off), length(len) {}

  bool chained() const { return !chain.empty(); }
  std::size_t first_length() const {
    std::size_t rest = 0;
    for (const PayloadSlice& s : chain) rest += s.length;
    return length - rest;
  }

  /// Contiguous byte view of the FIRST slice (the whole payload when not
  /// chained). Chained payloads must be walked with for_each_slice.
  std::span<const std::uint8_t> bytes() const {
    if (!buffer || length == 0) return {};
    return std::span<const std::uint8_t>(buffer->data() + offset,
                                         first_length());
  }
  bool empty() const { return length == 0; }

  /// Visit every slice in stream order as a span. This reads bytes, so it
  /// fills any lazy buffer it visits; code that only forwards or counts a
  /// payload passes the PayloadRef on instead.
  template <class F>
  void for_each_slice(F&& f) const {
    if (length == 0) return;
    if (buffer) {
      f(std::span<const std::uint8_t>(buffer->data() + offset,
                                      first_length()));
    }
    for (const PayloadSlice& s : chain) f(s.bytes());
  }

  /// Sub-view; clamps to the parent extent. Chain-aware.
  PayloadRef slice(std::size_t off, std::size_t len) const;
  /// Concatenate `tail` after this payload (builds/extends the chain;
  /// physically adjacent views of the same buffer are merged).
  void append(PayloadRef tail);
  std::string to_text() const;
  /// Append every payload byte to `out` (to_text without the temporary).
  void append_to(std::string& out) const;
};

/// TCP header flags.
struct TcpFlags {
  bool syn = false;
  bool ack = false;
  bool fin = false;
  bool rst = false;

  std::string to_string() const;
};

/// TCP-like segment header. Sequence/ack numbers are 64-bit byte offsets —
/// the simulator does not model 32-bit wraparound, which never occurs at
/// the transfer sizes of a search response.
struct TcpHeader {
  Port src_port = 0;
  Port dst_port = 0;
  std::uint64_t seq = 0;
  std::uint64_t ack = 0;
  std::uint32_t window = 0;  // receiver advertised window, bytes
  TcpFlags flags;
};

/// Number of header overhead bytes charged per segment on the wire
/// (IP 20 + TCP 20, options ignored).
inline constexpr std::size_t kHeaderOverheadBytes = 40;

class PacketPtr;

struct Packet {
  NodeId src;
  NodeId dst;
  TcpHeader tcp;
  PayloadRef payload;
  std::uint64_t id = 0;  // globally unique, assigned by the Network

  std::size_t payload_size() const { return payload.length; }
  std::size_t wire_size() const { return payload.length + kHeaderOverheadBytes; }

  FlowId flow_from_sender() const {
    return FlowId{Endpoint{src, tcp.src_port}, Endpoint{dst, tcp.dst_port}};
  }

  /// "5:80 -> 2:40001 seq=1448 ack=89 [ACK] 1448B"
  std::string to_string() const;

 private:
  friend class PacketPtr;
  friend PacketPtr acquire_packet();
  friend void release_packet(Packet* p) noexcept;

  std::uint32_t refs_ = 1;  // non-atomic: see header comment
};

/// Destroy and return the block to this thread's slab.
void release_packet(Packet* p) noexcept;

/// Intrusive shared handle to a slab-allocated Packet. Drop-in for the
/// shared_ptr<Packet> it replaced: capture taps may retain packets
/// arbitrarily long; the storage goes back to the thread's slab when the
/// last reference drops.
class PacketPtr {
 public:
  PacketPtr() = default;
  PacketPtr(std::nullptr_t) {}  // NOLINT: mirror shared_ptr's null literal
  PacketPtr(const PacketPtr& o) : p_(o.p_) {
    if (p_ != nullptr) ++p_->refs_;
  }
  PacketPtr(PacketPtr&& o) noexcept : p_(o.p_) { o.p_ = nullptr; }
  PacketPtr& operator=(const PacketPtr& o) {
    if (o.p_ != nullptr) ++o.p_->refs_;
    reset();
    p_ = o.p_;
    return *this;
  }
  PacketPtr& operator=(PacketPtr&& o) noexcept {
    if (this != &o) {
      reset();
      p_ = o.p_;
      o.p_ = nullptr;
    }
    return *this;
  }
  ~PacketPtr() { reset(); }

  void reset() {
    if (p_ != nullptr && --p_->refs_ == 0) release_packet(p_);
    p_ = nullptr;
  }

  Packet* operator->() const { return p_; }
  Packet& operator*() const { return *p_; }
  Packet* get() const { return p_; }
  explicit operator bool() const { return p_ != nullptr; }
  friend bool operator==(const PacketPtr& a, const PacketPtr& b) {
    return a.p_ == b.p_;
  }

  /// References to the pointee (tests/debugging).
  std::uint32_t use_count() const { return p_ == nullptr ? 0 : p_->refs_; }

 private:
  friend PacketPtr acquire_packet();
  explicit PacketPtr(Packet* adopted) : p_(adopted) {}

  Packet* p_ = nullptr;
};

/// Allocate a zeroed Packet from a thread-local slab free list. The
/// per-segment cost on the TCP hot path is a free-list pop instead of a
/// heap allocation, and the returned PacketPtr bumps a plain (non-atomic)
/// intrusive count instead of a shared_ptr control block.
PacketPtr acquire_packet();

/// Pool introspection (tests): blocks currently cached on this thread.
std::size_t packet_pool_free_count();
/// Pool introspection (tests): cached payload-buffer blocks on this thread.
std::size_t buffer_pool_free_count();
/// Introspection (tests): lazy-buffer fills run on this thread so far.
std::size_t bytebuf_fill_count();

}  // namespace dyncdn::net

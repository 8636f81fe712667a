#include "capture/spill.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define DYNCDN_SPILL_HAVE_MMAP 1
#endif

namespace dyncdn::capture {

namespace {

constexpr char kMagic[8] = {'D', 'T', 'R', 'C', '0', '0', '0', '1'};
constexpr char kTailMagic[8] = {'D', 'T', 'R', 'C', 'E', 'N', 'D', '1'};
constexpr std::size_t kFileHeaderBytes = 16;  // magic + node u32 + flags u32
constexpr std::size_t kTailBytes = 24;        // footer off + records + magic
constexpr std::size_t kSectionCount = 9;

std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back((v >> (8 * i)) & 0xFF);
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back((v >> (8 * i)) & 0xFF);
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

/// Bounds-checked byte cursor over a mapped region; every overrun is a
/// corrupt-file error, never UB.
struct Cursor {
  const std::uint8_t* p;
  const std::uint8_t* end;
  const char* what;

  [[noreturn]] void fail(const char* detail) const {
    throw std::runtime_error(std::string("dtrc: truncated or corrupt ") +
                             what + " (" + detail + ")");
  }
  std::uint64_t varint() {
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (p == end) fail("varint runs past end");
      if (shift >= 64) fail("varint too wide");
      const std::uint8_t b = *p++;
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
    }
  }
  const std::uint8_t* bytes(std::size_t n) {
    if (static_cast<std::size_t>(end - p) < n) fail("byte run past end");
    const std::uint8_t* r = p;
    p += n;
    return r;
  }
  bool done() const { return p == end; }
};

std::uint64_t pair_key(std::uint32_t a, std::uint32_t b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

}  // namespace

// ---------------------------------------------------------------------------
// SpillWriter
// ---------------------------------------------------------------------------

SpillWriter::SpillWriter(std::string path, net::NodeId node)
    : SpillWriter(std::move(path), node, Options{}) {}

SpillWriter::SpillWriter(std::string path, net::NodeId node, Options options)
    : path_(std::move(path)), node_(node), options_(options) {
  if (options_.block_records == 0) options_.block_records = 4096;
  open_file();
}

SpillWriter::~SpillWriter() {
  try {
    finish();
  } catch (...) {
    // Destructor best-effort: a failing disk at teardown must not
    // terminate; the file is simply left truncated.
  }
  if (file_ != nullptr) std::fclose(file_);
}

void SpillWriter::open_file() {
  if (file_ != nullptr) std::fclose(file_);
  file_ = std::fopen(path_.c_str(), "wb");
  if (file_ == nullptr) {
    throw std::runtime_error("SpillWriter: cannot open " + path_);
  }
  std::vector<std::uint8_t> header;
  header.insert(header.end(), kMagic, kMagic + 8);
  put_u32(header, node_.value());
  put_u32(header, 0);  // flags, reserved
  if (std::fwrite(header.data(), 1, header.size(), file_) != header.size()) {
    throw std::runtime_error("SpillWriter: header write failed: " + path_);
  }
  write_offset_ = header.size();
  finished_ = false;
}

void SpillWriter::on_packet(const PacketRecord& r) {
  encode(r.timestamp, r.direction, r.src, r.dst, r.tcp, r.payload_size,
         r.payload);
}

void SpillWriter::append(const PacketRecordView& v) {
  encode(v.timestamp, v.direction, v.src, v.dst, v.tcp, v.payload_size,
         v.payload);
}

void SpillWriter::append_trace(const PacketTrace& trace) {
  for (const auto& v : trace.records()) append(v);
}

void SpillWriter::on_clear() {
  // Restart the file: spilled state resets in lockstep with the
  // recorder's buffer. Stats stay cumulative (they feed monotonic
  // time-series channels), so discarded bytes remain counted as work done.
  for (auto& s : sections_) s.clear();
  payload_region_.clear();
  pair_state_.clear();
  block_pairs_.clear();
  block_records_ = 0;
  prev_timestamp_ = 0;
  endpoints_.clear();
  pairs_.clear();
  endpoint_lookup_.clear();
  pair_lookup_.clear();
  index_.clear();
  open_file();
}

std::uint32_t SpillWriter::intern_endpoint(net::NodeId node, net::Port port) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(node.value()) << 16) | port;
  const auto [it, inserted] = endpoint_lookup_.try_emplace(
      key, static_cast<std::uint32_t>(endpoints_.size()));
  if (inserted) endpoints_.emplace_back(node.value(), port);
  return it->second;
}

std::uint32_t SpillWriter::intern_pair(std::uint32_t a, std::uint32_t b) {
  if (a > b) std::swap(a, b);
  const auto [it, inserted] = pair_lookup_.try_emplace(
      pair_key(a, b), static_cast<std::uint32_t>(pairs_.size()));
  if (inserted) pairs_.emplace_back(a, b);
  return it->second;
}

void SpillWriter::encode(sim::SimTime timestamp, Direction direction,
                         net::NodeId src, net::NodeId dst,
                         const net::TcpHeader& tcp, std::size_t payload_size,
                         const net::PayloadRef& payload) {
  if (finished_) {
    throw std::logic_error(
        "SpillWriter: append after finish() (call on_clear() to reuse)");
  }
  // 0: timestamp, zigzag delta vs previous record in the block.
  put_varint(sections_[0],
             zigzag_encode(timestamp.ns() - prev_timestamp_));
  prev_timestamp_ = timestamp.ns();
  if (block_records_ == 0) block_first_ts_ = timestamp.ns();
  block_last_ts_ = timestamp.ns();

  // 1: direction bitset.
  if (block_records_ % 8 == 0) sections_[1].push_back(0);
  if (direction == Direction::kReceived) {
    sections_[1].back() |= static_cast<std::uint8_t>(1u << (block_records_ % 8));
  }

  // 2: directed flow id — unordered interned pair plus the bit that
  // restores (src,dst) order.
  const std::uint32_t src_ep = intern_endpoint(src, tcp.src_port);
  const std::uint32_t dst_ep = intern_endpoint(dst, tcp.dst_port);
  const std::uint32_t pair = intern_pair(src_ep, dst_ep);
  const std::uint32_t flow_id = (pair << 1) | (src_ep > dst_ep ? 1u : 0u);
  put_varint(sections_[2], flow_id);

  // 3-5: seq/ack/window, zigzag delta vs the previous record of the same
  // *directed* flow (block-local state so every block decodes
  // standalone). seq is predicted from the previous segment's end (prev
  // seq + prev wire payload), so contiguous data runs cost one byte per
  // record instead of a payload-sized delta.
  if (pair_state_.size() <= flow_id) pair_state_.resize(flow_id + 1);
  PairState& ps = pair_state_[flow_id];
  const auto delta = [](std::vector<std::uint8_t>& out, std::int64_t value,
                        std::int64_t& prev) {
    put_varint(out, zigzag_encode(value - prev));
    prev = value;
  };
  const std::int64_t seq = static_cast<std::int64_t>(tcp.seq);
  put_varint(sections_[3],
             zigzag_encode(seq - (ps.prev_seq + ps.prev_psize)));
  ps.prev_seq = seq;
  delta(sections_[4], static_cast<std::int64_t>(tcp.ack), ps.prev_ack);
  delta(sections_[5], static_cast<std::int64_t>(tcp.window), ps.prev_window);
  if (block_pairs_.empty() || !std::binary_search(block_pairs_.begin(),
                                                  block_pairs_.end(), pair)) {
    block_pairs_.insert(
        std::lower_bound(block_pairs_.begin(), block_pairs_.end(), pair),
        pair);
  }

  // 6: flags nibble, two records per byte.
  const std::uint8_t nibble =
      static_cast<std::uint8_t>(tcp.flags.syn ? 1 : 0) |
      static_cast<std::uint8_t>(tcp.flags.ack ? 2 : 0) |
      static_cast<std::uint8_t>(tcp.flags.fin ? 4 : 0) |
      static_cast<std::uint8_t>(tcp.flags.rst ? 8 : 0);
  if (block_records_ % 2 == 0) {
    sections_[6].push_back(nibble);
  } else {
    sections_[6].back() |= static_cast<std::uint8_t>(nibble << 4);
  }

  // 7: wire payload size, per-directed-flow delta (data runs repeat the
  // MSS); 8: retained payload length (0 = headers-only).
  delta(sections_[7], static_cast<std::int64_t>(payload_size),
        ps.prev_psize);
  put_varint(sections_[8], payload.length);
  payload.for_each_slice([this](std::span<const std::uint8_t> span) {
    payload_region_.insert(payload_region_.end(), span.begin(), span.end());
  });

  ++block_records_;
  ++stats_.records;
  stats_.raw_bytes += PacketTrace::kRecordColumnBytes + payload.length;
  if (block_records_ >= options_.block_records) flush_block();
}

void SpillWriter::flush_block() {
  if (block_records_ == 0) return;
  // A block that retains no payload bytes has an all-zero payload_len
  // column; drop it entirely (the reader infers zeros from size 0).
  if (payload_region_.empty()) sections_[8].clear();
  std::vector<std::uint8_t> header;
  put_u32(header, block_records_);
  for (const auto& s : sections_) {
    put_u32(header, static_cast<std::uint32_t>(s.size()));
  }
  put_u32(header, static_cast<std::uint32_t>(payload_region_.size()));

  const auto start = std::chrono::steady_clock::now();
  std::uint64_t written = 0;
  const auto write = [&](const std::vector<std::uint8_t>& buf) {
    if (buf.empty()) return true;
    if (std::fwrite(buf.data(), 1, buf.size(), file_) != buf.size()) {
      return false;
    }
    written += buf.size();
    return true;
  };
  bool ok = write(header);
  for (const auto& s : sections_) ok = ok && write(s);
  ok = ok && write(payload_region_);
  if (!ok) throw std::runtime_error("SpillWriter: block write failed: " + path_);
  stats_.flush_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());

  BlockEntry entry;
  entry.offset = write_offset_;
  entry.encoded_bytes = written;
  entry.record_count = block_records_;
  entry.payload_bytes = payload_region_.size();
  entry.first_ts = block_first_ts_;
  entry.last_ts = block_last_ts_;
  entry.pair_ids = block_pairs_;
  index_.push_back(std::move(entry));

  write_offset_ += written;
  stats_.bytes_written += written;
  ++stats_.blocks;

  for (auto& s : sections_) s.clear();
  payload_region_.clear();
  block_pairs_.clear();
  pair_state_.assign(pair_state_.size(), PairState{});
  block_records_ = 0;
  prev_timestamp_ = 0;
}

void SpillWriter::write_footer_and_tail() {
  std::vector<std::uint8_t> footer;
  put_varint(footer, endpoints_.size());
  for (const auto& [node, port] : endpoints_) {
    put_varint(footer, node);
    put_varint(footer, port);
  }
  put_varint(footer, pairs_.size());
  for (const auto& [a, b] : pairs_) {
    put_varint(footer, a);
    put_varint(footer, b);
  }
  put_varint(footer, index_.size());
  std::uint64_t total_records = 0;
  for (const BlockEntry& e : index_) {
    put_varint(footer, e.offset);
    put_varint(footer, e.encoded_bytes);
    put_varint(footer, e.record_count);
    put_varint(footer, e.payload_bytes);
    put_varint(footer, zigzag_encode(e.first_ts));
    put_varint(footer, zigzag_encode(e.last_ts - e.first_ts));
    put_varint(footer, e.pair_ids.size());
    std::uint32_t prev = 0;
    for (std::size_t i = 0; i < e.pair_ids.size(); ++i) {
      put_varint(footer, e.pair_ids[i] - prev);  // ascending deltas
      prev = e.pair_ids[i];
    }
    total_records += e.record_count;
  }

  std::vector<std::uint8_t> tail;
  put_u64(tail, write_offset_);
  put_u64(tail, total_records);
  tail.insert(tail.end(), kTailMagic, kTailMagic + 8);

  const auto start = std::chrono::steady_clock::now();
  if (std::fwrite(footer.data(), 1, footer.size(), file_) != footer.size() ||
      std::fwrite(tail.data(), 1, tail.size(), file_) != tail.size() ||
      std::fflush(file_) != 0) {
    throw std::runtime_error("SpillWriter: footer write failed: " + path_);
  }
  stats_.flush_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  stats_.bytes_written += footer.size() + tail.size();
  write_offset_ += footer.size() + tail.size();
}

void SpillWriter::finish() {
  if (finished_) return;
  flush_block();
  write_footer_and_tail();
  std::fclose(file_);
  file_ = nullptr;
  finished_ = true;
}

// ---------------------------------------------------------------------------
// SpillReader
// ---------------------------------------------------------------------------

SpillReader::SpillReader(const std::string& path) : path_(path) {
#ifdef DYNCDN_SPILL_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw std::runtime_error("SpillReader: cannot open " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw std::runtime_error("SpillReader: cannot stat " + path);
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ > 0) {
    void* map = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      data_ = static_cast<const std::uint8_t*>(map);
      mapped_ = true;
    }
  }
  if (!mapped_) {
    fallback_.resize(size_);
    std::size_t off = 0;
    while (off < size_) {
      const ssize_t n = ::read(fd, fallback_.data() + off, size_ - off);
      if (n <= 0) {
        ::close(fd);
        throw std::runtime_error("SpillReader: read failed: " + path);
      }
      off += static_cast<std::size_t>(n);
    }
    data_ = fallback_.data();
  }
  ::close(fd);
#else
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw std::runtime_error("SpillReader: cannot open " + path);
  std::fseek(f, 0, SEEK_END);
  size_ = static_cast<std::size_t>(std::ftell(f));
  std::fseek(f, 0, SEEK_SET);
  fallback_.resize(size_);
  if (size_ > 0 && std::fread(fallback_.data(), 1, size_, f) != size_) {
    std::fclose(f);
    throw std::runtime_error("SpillReader: read failed: " + path);
  }
  std::fclose(f);
  data_ = fallback_.data();
#endif
  try {
    parse_footer();
  } catch (...) {
#ifdef DYNCDN_SPILL_HAVE_MMAP
    if (mapped_) ::munmap(const_cast<std::uint8_t*>(data_), size_);
    mapped_ = false;
#endif
    throw;
  }
}

SpillReader::~SpillReader() {
#ifdef DYNCDN_SPILL_HAVE_MMAP
  if (mapped_) ::munmap(const_cast<std::uint8_t*>(data_), size_);
#endif
}

void SpillReader::parse_footer() {
  // Judge the magic before the size, so a short file of another format
  // (a text dump) is named as not a .dtrc file rather than a short one.
  if (size_ >= sizeof(kMagic) && std::memcmp(data_, kMagic, 8) != 0) {
    throw std::runtime_error("dtrc: bad magic (not a .dtrc file): " + path_);
  }
  if (size_ < kFileHeaderBytes + kTailBytes) {
    throw std::runtime_error("dtrc: file too short for header + tail: " +
                             path_);
  }
  node_ = net::NodeId{get_u32(data_ + 8)};

  const std::uint8_t* tail = data_ + size_ - kTailBytes;
  if (std::memcmp(tail + 16, kTailMagic, 8) != 0) {
    throw std::runtime_error(
        "dtrc: missing end marker (truncated file or unfinished writer): " +
        path_);
  }
  const std::uint64_t footer_offset = get_u64(tail);
  record_count_ = get_u64(tail + 8);
  if (footer_offset < kFileHeaderBytes ||
      footer_offset > size_ - kTailBytes) {
    throw std::runtime_error("dtrc: footer offset out of range: " + path_);
  }

  Cursor c{data_ + footer_offset, data_ + size_ - kTailBytes, "footer"};
  const std::uint64_t ep_count = c.varint();
  for (std::uint64_t i = 0; i < ep_count; ++i) {
    const std::uint64_t node = c.varint();
    const std::uint64_t port = c.varint();
    if (port > 0xFFFF) c.fail("endpoint port out of range");
    endpoints_.emplace_back(static_cast<std::uint32_t>(node),
                            static_cast<std::uint16_t>(port));
  }
  const std::uint64_t pair_count = c.varint();
  for (std::uint64_t i = 0; i < pair_count; ++i) {
    const std::uint64_t a = c.varint();
    const std::uint64_t b = c.varint();
    if (a >= endpoints_.size() || b >= endpoints_.size()) {
      c.fail("pair references unknown endpoint");
    }
    pairs_.emplace_back(static_cast<std::uint32_t>(a),
                        static_cast<std::uint32_t>(b));
    pair_lookup_.emplace(pair_key(static_cast<std::uint32_t>(a),
                                  static_cast<std::uint32_t>(b)),
                         static_cast<std::uint32_t>(i));
  }
  const std::uint64_t block_count = c.varint();
  std::uint64_t records_seen = 0;
  for (std::uint64_t i = 0; i < block_count; ++i) {
    BlockMeta m;
    m.offset = c.varint();
    m.encoded_bytes = c.varint();
    m.record_count = static_cast<std::uint32_t>(c.varint());
    m.payload_bytes = c.varint();
    m.first_ts = zigzag_decode(c.varint());
    m.last_ts = m.first_ts + zigzag_decode(c.varint());
    if (m.offset < kFileHeaderBytes || m.offset > footer_offset ||
        m.encoded_bytes == 0 || m.encoded_bytes > footer_offset - m.offset) {
      c.fail("block extent out of range");
    }
    const std::uint64_t n_pairs = c.varint();
    std::uint32_t prev = 0;
    for (std::uint64_t p = 0; p < n_pairs; ++p) {
      prev += static_cast<std::uint32_t>(c.varint());
      if (prev >= pairs_.size()) c.fail("block lists unknown pair");
      m.pair_ids.push_back(prev);
    }
    records_seen += m.record_count;
    blocks_.push_back(std::move(m));
  }
  if (!c.done()) {
    throw std::runtime_error("dtrc: trailing bytes after footer: " + path_);
  }
  if (records_seen != record_count_) {
    throw std::runtime_error("dtrc: block index record count mismatch: " +
                             path_);
  }
}

SpillReader::BlockInfo SpillReader::block_info(std::size_t block) const {
  const BlockMeta& m = blocks_.at(block);
  BlockInfo info;
  info.first_timestamp = sim::SimTime::nanoseconds(m.first_ts);
  info.last_timestamp = sim::SimTime::nanoseconds(m.last_ts);
  info.records = m.record_count;
  info.payload_bytes = m.payload_bytes;
  return info;
}

void SpillReader::decode_block(
    const BlockMeta& meta,
    const std::function<void(PacketRecord&&)>& emit) const {
  Cursor c{data_ + meta.offset, data_ + meta.offset + meta.encoded_bytes,
           "block"};
  const std::uint32_t n = get_u32(c.bytes(4));
  if (n != meta.record_count) c.fail("record count disagrees with index");
  std::uint32_t section_size[kSectionCount];
  for (std::size_t s = 0; s < kSectionCount; ++s) {
    section_size[s] = get_u32(c.bytes(4));
  }
  const std::uint32_t payload_size = get_u32(c.bytes(4));
  Cursor sec[kSectionCount];
  for (std::size_t s = 0; s < kSectionCount; ++s) {
    const std::uint8_t* p = c.bytes(section_size[s]);
    sec[s] = Cursor{p, p + section_size[s], "block column"};
  }
  // The two bit-packed columns are indexed, not cursored: validate their
  // full extent up front.
  if (section_size[1] < (std::uint64_t{n} + 7) / 8) {
    sec[1].fail("direction bitset short");
  }
  if (section_size[6] < (std::uint64_t{n} + 1) / 2) {
    sec[6].fail("flag nibbles short");
  }
  const std::uint8_t* dir_bits = sec[1].p;
  const std::uint8_t* flag_nibbles = sec[6].p;
  const std::uint8_t* payload_base = c.bytes(payload_size);
  Cursor payloads{payload_base, payload_base + payload_size,
                  "block payload region"};
  if (!c.done()) c.fail("block larger than its sections");

  struct PairState {
    std::int64_t prev_seq = 0;
    std::int64_t prev_ack = 0;
    std::int64_t prev_window = 0;
    std::int64_t prev_psize = 0;
  };
  std::vector<PairState> state;  // indexed by directed flow id
  std::int64_t prev_ts = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    PacketRecord r;
    prev_ts += zigzag_decode(sec[0].varint());
    r.timestamp = sim::SimTime::nanoseconds(prev_ts);
    r.direction = (dir_bits[i / 8] >> (i % 8)) & 1 ? Direction::kReceived
                                                   : Direction::kSent;
    const std::uint64_t flow_id = sec[2].varint();
    const std::uint64_t pair = flow_id >> 1;
    if (pair >= pairs_.size()) {
      sec[2].fail("record references unknown pair");
    }
    const auto [a, b] = pairs_[pair];
    const bool swapped = (flow_id & 1) != 0;
    const std::uint32_t src_ep = swapped ? b : a;
    const std::uint32_t dst_ep = swapped ? a : b;
    r.src = net::NodeId{endpoints_[src_ep].first};
    r.tcp.src_port = endpoints_[src_ep].second;
    r.dst = net::NodeId{endpoints_[dst_ep].first};
    r.tcp.dst_port = endpoints_[dst_ep].second;

    if (state.size() <= flow_id) state.resize(flow_id + 1);
    PairState& ps = state[flow_id];
    ps.prev_seq += ps.prev_psize + zigzag_decode(sec[3].varint());
    ps.prev_ack += zigzag_decode(sec[4].varint());
    ps.prev_window += zigzag_decode(sec[5].varint());
    r.tcp.seq = static_cast<std::uint64_t>(ps.prev_seq);
    r.tcp.ack = static_cast<std::uint64_t>(ps.prev_ack);
    r.tcp.window = static_cast<std::uint32_t>(ps.prev_window);

    const std::uint8_t flag_byte = flag_nibbles[i / 2];
    const std::uint8_t nibble = (i % 2 == 0) ? (flag_byte & 0xF)
                                             : (flag_byte >> 4);
    r.tcp.flags.syn = (nibble & 1) != 0;
    r.tcp.flags.ack = (nibble & 2) != 0;
    r.tcp.flags.fin = (nibble & 4) != 0;
    r.tcp.flags.rst = (nibble & 8) != 0;

    ps.prev_psize += zigzag_decode(sec[7].varint());
    if (ps.prev_psize < 0) sec[7].fail("negative payload size");
    r.payload_size = static_cast<std::size_t>(ps.prev_psize);
    const std::uint64_t retained =
        section_size[8] != 0 ? sec[8].varint() : 0;
    if (retained > 0) {
      const std::uint8_t* bytes = payloads.bytes(
          static_cast<std::size_t>(retained));
      r.payload = net::PayloadRef{
          net::make_buffer(std::span<const std::uint8_t>(
              bytes, static_cast<std::size_t>(retained))),
          0, static_cast<std::size_t>(retained)};
    }
    emit(std::move(r));
  }
}

void SpillReader::read_block(std::size_t block, PacketTrace& out) const {
  decode_block(blocks_.at(block),
               [&out](PacketRecord&& r) { out.add(std::move(r)); });
}

PacketTrace SpillReader::read_all() const {
  PacketTrace out(node_);
  for (const BlockMeta& m : blocks_) {
    decode_block(m, [&out](PacketRecord&& r) { out.add(std::move(r)); });
  }
  return out;
}

void SpillReader::for_each_record(
    const std::function<void(const PacketRecord&)>& fn) const {
  for (const BlockMeta& m : blocks_) {
    decode_block(m, [&fn](PacketRecord&& r) { fn(r); });
  }
}

PacketTrace SpillReader::read_flow(const net::FlowId& flow) const {
  PacketTrace out(node_);
  // Map the flow's endpoints back to interned ids; an unknown endpoint
  // means the flow never appears in this file.
  auto find_ep = [this](const net::Endpoint& e) -> std::int64_t {
    for (std::size_t i = 0; i < endpoints_.size(); ++i) {
      if (endpoints_[i].first == e.node.value() &&
          endpoints_[i].second == e.port) {
        return static_cast<std::int64_t>(i);
      }
    }
    return -1;
  };
  const std::int64_t local = find_ep(flow.local);
  const std::int64_t remote = find_ep(flow.remote);
  if (local < 0 || remote < 0) return out;
  std::uint32_t a = static_cast<std::uint32_t>(local);
  std::uint32_t b = static_cast<std::uint32_t>(remote);
  if (a > b) std::swap(a, b);
  const auto it = pair_lookup_.find(pair_key(a, b));
  if (it == pair_lookup_.end()) return out;
  const std::uint32_t pair = it->second;

  for (const BlockMeta& m : blocks_) {
    if (!std::binary_search(m.pair_ids.begin(), m.pair_ids.end(), pair)) {
      continue;  // the seek: skip blocks without this connection
    }
    decode_block(m, [&out, &flow](PacketRecord&& r) {
      const net::FlowId f = r.flow_at_capture_node();
      if (f == flow || f == flow.reversed()) out.add(std::move(r));
    });
  }
  return out;
}

// ---------------------------------------------------------------------------
// Convenience helpers
// ---------------------------------------------------------------------------

void save_trace_dtrc(const PacketTrace& trace, const std::string& path) {
  SpillWriter writer(path, trace.node());
  writer.append_trace(trace);
  writer.finish();
}

PacketTrace load_trace(const std::string& path) {
  return SpillReader(path).read_all();
}

}  // namespace dyncdn::capture

#include "net/wire.h"

#include <bit>

#include "common/assert.h"
#include "simd/probe.h"

namespace hal::net {

namespace {

// Every field is copied whole in host order, which is the wire order only
// on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "the wire codec copies fields in little-endian host order");

// --- Fixed-width primitives --------------------------------------------------

// Sequential writer into a buffer sized up front from the message's exact
// encoded length, so a batch encodes with one allocation and no per-byte
// growth checks.
class Writer {
 public:
  explicit Writer(std::size_t size) : out_(size) {}

  template <typename T>
  void put(T v) noexcept {
    std::memcpy(out_.data() + pos_, &v, sizeof v);
    pos_ += sizeof v;
  }

  void put_bytes(const void* src, std::size_t n) noexcept {
    if (n == 0) return;
    std::memcpy(out_.data() + pos_, src, n);
    pos_ += n;
  }

  [[nodiscard]] std::vector<std::uint8_t> finish() {
    HAL_ASSERT(pos_ == out_.size());
    return std::move(out_);
  }

 private:
  std::vector<std::uint8_t> out_;
  std::size_t pos_ = 0;
};

// Bounds-checked sequential reader: every accessor refuses to read past
// the span's end, which is what makes decode() total on arbitrary bytes.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  template <typename T>
  [[nodiscard]] bool read(T& v) noexcept {
    if (remaining() < sizeof v) return false;
    std::memcpy(&v, data_.data() + pos_, sizeof v);
    pos_ += sizeof v;
    return true;
  }

  // Unchecked view of the next n bytes; the caller has checked remaining().
  [[nodiscard]] const std::uint8_t* take(std::size_t n) noexcept {
    const std::uint8_t* p = data_.data() + pos_;
    pos_ += n;
    return p;
  }

  [[nodiscard]] bool done() const noexcept { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

// --- Tuple wire layout -----------------------------------------------------

// 17 bytes per tuple: key u32 | value u32 | seq u64 | origin u8. seq and
// origin are simulator metadata (tuple.h), but the distributed runtime
// ships them so the window rule and the merger's ordering contract work
// across the process boundary exactly as they do in-process.
constexpr std::size_t kTupleWireSize = 17;

void put_tuple(Writer& w, const stream::Tuple& t) noexcept {
  w.put(t.key);
  w.put(t.value);
  w.put(t.seq);
  w.put(static_cast<std::uint8_t>(t.origin == stream::StreamId::R ? 0 : 1));
}

// Reads one tuple from 17 bytes the caller has bounds-checked.
[[nodiscard]] bool read_tuple(const std::uint8_t* p, stream::Tuple& t) {
  std::memcpy(&t.key, p, 4);
  std::memcpy(&t.value, p + 4, 4);
  std::memcpy(&t.seq, p + 8, 8);
  const std::uint8_t origin = p[16];
  if (origin > 1) return false;
  t.origin = origin == 0 ? stream::StreamId::R : stream::StreamId::S;
  return true;
}

constexpr std::uint32_t kFlagEndOfEpoch = 1u << 0;
constexpr std::uint32_t kFlagDied = 1u << 1;

// Fixed-size parts of the batch payloads (see the layout in wire.h).
constexpr std::size_t kTupleBatchHead = 8 + 8 + 4 + 4;
constexpr std::size_t kResultBatchHead = 8 + 4 + 4;

}  // namespace

std::uint32_t crc32c(std::span<const std::uint8_t> data,
                     std::uint32_t seed) noexcept {
  return simd::crc32c(data.data(), data.size(), seed);
}

const char* to_string(MsgType t) noexcept {
  switch (t) {
    case MsgType::kHello: return "hello";
    case MsgType::kCredit: return "credit";
    case MsgType::kAck: return "ack";
    case MsgType::kShutdown: return "shutdown";
    case MsgType::kWatermark: return "watermark";
    case MsgType::kTupleBatch: return "tuple-batch";
    case MsgType::kResultBatch: return "result-batch";
    case MsgType::kCheckpoint: return "checkpoint";
  }
  return "?";
}

const char* to_string(DecodeStatus s) noexcept {
  switch (s) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kNeedMore: return "need-more";
    case DecodeStatus::kBadMagic: return "bad-magic";
    case DecodeStatus::kBadVersion: return "bad-version";
    case DecodeStatus::kBadType: return "bad-type";
    case DecodeStatus::kOversized: return "oversized";
    case DecodeStatus::kBadCrc: return "bad-crc";
    case DecodeStatus::kMalformed: return "malformed";
  }
  return "?";
}

void append_frame(std::vector<std::uint8_t>& wire, MsgType type,
                  std::uint64_t seq, std::span<const std::uint8_t> payload,
                  std::uint16_t channel) {
  HAL_CHECK(payload.size() <= kMaxPayload, "frame payload exceeds kMaxPayload");
  std::uint8_t header[kHeaderSize];
  std::memcpy(header, kMagic, 4);
  header[4] = kProtocolVersion;
  header[5] = static_cast<std::uint8_t>(type);
  const auto len = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = crc32c(payload);
  std::memcpy(header + 6, &channel, 2);
  std::memcpy(header + 8, &len, 4);
  std::memcpy(header + 12, &crc, 4);
  std::memcpy(header + 16, &seq, 8);
  wire.reserve(wire.size() + kHeaderSize + payload.size());
  wire.insert(wire.end(), header, header + kHeaderSize);
  wire.insert(wire.end(), payload.begin(), payload.end());
}

void FrameDecoder::feed(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void FrameDecoder::compact() {
  // Reclaim consumed prefix once it dominates the buffer, so a long-lived
  // connection doesn't grow its receive buffer without bound.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
}

DecodeStatus FrameDecoder::next(Frame& out) {
  if (error_ != DecodeStatus::kOk) return error_;
  if (buffered() < kHeaderSize) return DecodeStatus::kNeedMore;

  const std::uint8_t* h = buf_.data() + pos_;
  for (std::size_t i = 0; i < 4; ++i) {
    if (h[i] != kMagic[i]) return error_ = DecodeStatus::kBadMagic;
  }
  if (h[4] != kProtocolVersion) return error_ = DecodeStatus::kBadVersion;
  if (!valid_msg_type(h[5])) return error_ = DecodeStatus::kBadType;

  FrameHeader header;
  header.version = h[4];
  header.type = static_cast<MsgType>(h[5]);
  std::uint32_t len = 0;
  std::uint32_t crc = 0;
  std::memcpy(&header.channel, h + 6, 2);
  std::memcpy(&len, h + 8, 4);
  std::memcpy(&crc, h + 12, 4);
  std::memcpy(&header.seq, h + 16, 8);
  if (len > kMaxPayload) return error_ = DecodeStatus::kOversized;
  if (buffered() < kHeaderSize + len) return DecodeStatus::kNeedMore;

  const std::span<const std::uint8_t> payload(h + kHeaderSize, len);
  if (crc32c(payload) != crc) return error_ = DecodeStatus::kBadCrc;

  header.payload_len = len;
  header.payload_crc = crc;
  out.header = header;
  out.payload.assign(payload.begin(), payload.end());
  pos_ += kHeaderSize + len;
  compact();
  return DecodeStatus::kOk;
}

void FrameDecoder::reset() {
  buf_.clear();
  pos_ = 0;
  error_ = DecodeStatus::kOk;
}

// --- Message codecs --------------------------------------------------------

std::vector<std::uint8_t> encode(const HelloMsg& m) {
  Writer w(4 + 4 + 8 + 8);
  w.put(m.node_id);
  w.put(m.shard);
  w.put(m.resume_seq);
  w.put(m.granted_through_seq);
  return w.finish();
}

bool decode(std::span<const std::uint8_t> payload, HelloMsg& m) {
  Reader r(payload);
  return r.read(m.node_id) && r.read(m.shard) && r.read(m.resume_seq) &&
         r.read(m.granted_through_seq) && r.done();
}

std::vector<std::uint8_t> encode(const CreditMsg& m) {
  Writer w(8);
  w.put(m.granted_through_seq);
  return w.finish();
}

bool decode(std::span<const std::uint8_t> payload, CreditMsg& m) {
  Reader r(payload);
  return r.read(m.granted_through_seq) && r.done();
}

std::vector<std::uint8_t> encode(const AckMsg& m) {
  Writer w(8);
  w.put(m.cumulative_seq);
  return w.finish();
}

bool decode(std::span<const std::uint8_t> payload, AckMsg& m) {
  Reader r(payload);
  return r.read(m.cumulative_seq) && r.done();
}

std::vector<std::uint8_t> encode(const ShutdownMsg& m) {
  Writer w(4);
  w.put(m.reason);
  return w.finish();
}

bool decode(std::span<const std::uint8_t> payload, ShutdownMsg& m) {
  Reader r(payload);
  return r.read(m.reason) && r.done();
}

std::vector<std::uint8_t> encode(const WatermarkMsg& m) {
  Writer w(8 + 8 + 8);
  w.put(m.epoch);
  w.put(m.r_count);
  w.put(m.s_count);
  return w.finish();
}

bool decode(std::span<const std::uint8_t> payload, WatermarkMsg& m) {
  Reader r(payload);
  return r.read(m.epoch) && r.read(m.r_count) && r.read(m.s_count) && r.done();
}

std::vector<std::uint8_t> encode(const TupleBatchMsg& m) {
  HAL_CHECK(m.horizons.empty() || m.horizons.size() == m.tuples.size(),
            "a horizon column must hold one horizon per tuple");
  Writer w(kTupleBatchHead + m.tuples.size() * kTupleWireSize + 4 +
           m.horizons.size() * 8);
  w.put(m.epoch);
  w.put(m.link_seq);
  w.put(m.end_of_epoch ? kFlagEndOfEpoch : std::uint32_t{0});
  w.put(static_cast<std::uint32_t>(m.tuples.size()));
  for (const stream::Tuple& t : m.tuples) put_tuple(w, t);
  w.put(static_cast<std::uint32_t>(m.horizons.size()));
  w.put_bytes(m.horizons.data(), m.horizons.size() * 8);
  return w.finish();
}

bool decode(std::span<const std::uint8_t> payload, TupleBatchMsg& m) {
  Reader r(payload);
  std::uint32_t flags = 0;
  std::uint32_t count = 0;
  if (!r.read(m.epoch) || !r.read(m.link_seq) || !r.read(flags) ||
      !r.read(count)) {
    return false;
  }
  if ((flags & ~kFlagEndOfEpoch) != 0) return false;
  m.end_of_epoch = (flags & kFlagEndOfEpoch) != 0;
  // The tuples and the horizon count must fit the remaining bytes;
  // checking before the resize keeps a corrupt count from over-allocating.
  const std::size_t tuple_bytes = std::size_t{count} * kTupleWireSize;
  if (r.remaining() < tuple_bytes + 4) return false;
  m.tuples.resize(count);
  const std::uint8_t* p = r.take(tuple_bytes);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!read_tuple(p + i * kTupleWireSize, m.tuples[i])) return false;
  }
  std::uint32_t horizon_count = 0;
  if (!r.read(horizon_count)) return false;
  if (horizon_count != 0 && horizon_count != count) return false;
  if (r.remaining() != std::size_t{horizon_count} * 8) return false;
  m.horizons.resize(horizon_count);
  if (horizon_count != 0) {
    std::memcpy(m.horizons.data(), r.take(r.remaining()),
                m.horizons.size() * 8);
  }
  return r.done();
}

std::vector<std::uint8_t> encode(const ResultBatchMsg& m) {
  Writer w(kResultBatchHead + m.results.size() * 2 * kTupleWireSize + 8);
  w.put(m.epoch);
  std::uint32_t flags = 0;
  if (m.end_of_epoch) flags |= kFlagEndOfEpoch;
  if (m.died) flags |= kFlagDied;
  w.put(flags);
  w.put(static_cast<std::uint32_t>(m.results.size()));
  for (const stream::ResultTuple& rt : m.results) {
    put_tuple(w, rt.r);
    put_tuple(w, rt.s);
  }
  w.put(m.stale_pairs);
  return w.finish();
}

bool decode(std::span<const std::uint8_t> payload, ResultBatchMsg& m) {
  Reader r(payload);
  std::uint32_t flags = 0;
  std::uint32_t count = 0;
  if (!r.read(m.epoch) || !r.read(flags) || !r.read(count)) {
    return false;
  }
  if ((flags & ~(kFlagEndOfEpoch | kFlagDied)) != 0) return false;
  m.end_of_epoch = (flags & kFlagEndOfEpoch) != 0;
  m.died = (flags & kFlagDied) != 0;
  const std::size_t pair_bytes = std::size_t{count} * 2 * kTupleWireSize;
  if (r.remaining() != pair_bytes + 8) return false;
  m.results.resize(count);
  const std::uint8_t* p = r.take(pair_bytes);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint8_t* pair = p + i * 2 * kTupleWireSize;
    if (!read_tuple(pair, m.results[i].r) ||
        !read_tuple(pair + kTupleWireSize, m.results[i].s)) {
      return false;
    }
  }
  return r.read(m.stale_pairs) && r.done();
}

}  // namespace hal::net

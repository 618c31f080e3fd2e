// Binary serialization framework.
//
// Every protocol message in this repository is encoded to bytes before it
// crosses the simulated network and decoded on arrival — the wire format is
// real, byte-counted, and bounds-checked, exactly as an RPC stack would be.
//
// Format conventions:
//   * fixed-width integers are little-endian;
//   * varint is LEB128 (7 bits per byte) for counts and deltas;
//   * containers are length-prefixed with a varint.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/idset.h"

namespace caesar::net {

/// Thrown when a Decoder runs past the end of the buffer or reads a malformed
/// varint. Handlers treat this as a corrupt message.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

class Encoder {
 public:
  Encoder() = default;
  explicit Encoder(std::size_t reserve) { buf_.reserve(reserve); }

  /// An encoder over a (possibly recycled) buffer whose first two bytes are
  /// reserved for the runtime's frame header: the node patches the message
  /// type in at send time and ships the buffer as-is, no framing copy.
  static Encoder with_frame_header(std::vector<std::byte> buf) {
    Encoder e;
    buf.clear();
    e.buf_ = std::move(buf);
    e.framed_ = true;
    e.put_u16(0);  // placeholder for the type tag
    return e;
  }

  /// True when this encoder was created by with_frame_header().
  bool has_frame_header() const { return framed_; }

  /// Overwrites `sizeof(v)` bytes at `off` (must already be written).
  void patch_u16(std::size_t off, std::uint16_t v) {
    std::memcpy(buf_.data() + off, &v, sizeof v);  // host is little-endian
  }

  /// Appends raw bytes with no length prefix (framing internals).
  void append_raw(std::span<const std::byte> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  void put_u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }

  void put_u16(std::uint16_t v) { put_fixed(v); }
  void put_u32(std::uint32_t v) { put_fixed(v); }
  void put_u64(std::uint64_t v) { put_fixed(v); }
  void put_i64(std::int64_t v) { put_fixed(static_cast<std::uint64_t>(v)); }

  void put_bool(bool v) { put_u8(v ? 1 : 0); }

  /// LEB128 varint, 1..10 bytes.
  void put_varint(std::uint64_t v) {
    while (v >= 0x80) {
      put_u8(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    put_u8(static_cast<std::uint8_t>(v));
  }

  void put_string(std::string_view s) {
    put_varint(s.size());
    const auto* p = reinterpret_cast<const std::byte*>(s.data());
    buf_.insert(buf_.end(), p, p + s.size());
  }

  /// Sorted id sets are delta-encoded: count, first value, then gaps.
  void put_id_set(const IdSet& s) {
    put_varint(s.size());
    std::uint64_t prev = 0;
    for (std::uint64_t id : s) {
      put_varint(id - prev);
      prev = id;
    }
  }

  void put_u64_vector(const std::vector<std::uint64_t>& v) {
    put_varint(v.size());
    for (std::uint64_t x : v) put_varint(x);
  }

  std::size_t size() const { return buf_.size(); }

  std::vector<std::byte> take() { return std::move(buf_); }
  const std::vector<std::byte>& buffer() const { return buf_; }

 private:
  template <class T>
  void put_fixed(T v) {
    // resize + memcpy instead of insert(): GCC 12's stringop-overflow
    // analysis produces false positives on byte-range inserts once the call
    // is inlined into larger frames, and this compiles to the same memcpy.
    const std::size_t off = buf_.size();
    buf_.resize(off + sizeof(T));
    std::memcpy(buf_.data() + off, &v, sizeof(T));  // host is little-endian
  }

  std::vector<std::byte> buf_;
  bool framed_ = false;
};

class Decoder {
 public:
  explicit Decoder(std::span<const std::byte> data) : data_(data) {}

  std::uint8_t get_u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  std::uint16_t get_u16() { return get_fixed<std::uint16_t>(); }
  std::uint32_t get_u32() { return get_fixed<std::uint32_t>(); }
  std::uint64_t get_u64() { return get_fixed<std::uint64_t>(); }
  std::int64_t get_i64() { return static_cast<std::int64_t>(get_fixed<std::uint64_t>()); }

  bool get_bool() { return get_u8() != 0; }

  std::uint64_t get_varint() {
    std::uint64_t v = 0;
    int shift = 0;
    for (int i = 0; i < 10; ++i) {
      const std::uint8_t b = get_u8();
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
    }
    throw DecodeError("varint too long");
  }

  std::vector<std::byte> get_bytes() {
    const std::size_t n = checked_len(get_varint());
    need(n);
    std::vector<std::byte> out(data_.begin() + pos_, data_.begin() + pos_ + n);
    pos_ += n;
    return out;
  }

  std::string get_string() {
    const std::size_t n = checked_len(get_varint());
    need(n);
    std::string out(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return out;
  }

  IdSet get_id_set() {
    const std::size_t n = checked_len(get_varint());
    std::vector<std::uint64_t> ids;
    ids.reserve(n);
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
      prev += get_varint();
      ids.push_back(prev);
    }
    return IdSet::from_vector(std::move(ids));
  }

  std::vector<std::uint64_t> get_u64_vector() {
    const std::size_t n = checked_len(get_varint());
    std::vector<std::uint64_t> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) out.push_back(get_varint());
    return out;
  }

  /// A zero-copy view of the next `n` bytes (e.g. a complete sub-frame of a
  /// coalesced envelope). The span aliases the decoder's underlying buffer.
  std::span<const std::byte> get_span(std::size_t n) {
    need(n);
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  bool at_end() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  void need(std::size_t n) const {
    if (pos_ + n > data_.size()) throw DecodeError("buffer underrun");
  }

  std::size_t checked_len(std::uint64_t n) const {
    // A length can never exceed what is left in the buffer; this rejects
    // hostile/corrupt lengths before any allocation.
    if (n > remaining()) throw DecodeError("length exceeds buffer");
    return static_cast<std::size_t>(n);
  }

  template <class T>
  T get_fixed() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace caesar::net

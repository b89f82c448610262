// CDR (Common Data Representation) encoding — the marshaling format beneath
// GIOP (CORBA/IIOP spec ch. 15). Implements the subset the mini-ORB needs:
// primitive types with CDR alignment rules, strings (length-prefixed,
// NUL-terminated), octet sequences, and both byte orders (a CDR stream
// declares its endianness; readers must honour it).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>

#include "common/expected.h"
#include "common/types.h"

namespace mead::giop {

enum class CdrErr {
  kOutOfBounds,   // read past the end of the encapsulation
  kBadString,     // missing NUL terminator or zero-length string
  kLengthLimit,   // sequence length exceeds remaining bytes (corrupt stream)
};

template <typename T>
using CdrResult = Expected<T, CdrErr>;

enum class ByteOrder : std::uint8_t {
  kBigEndian = 0,     // CDR flag 0
  kLittleEndian = 1,  // CDR flag 1
};

/// Reverses the byte order of an unsigned integer.
template <typename T>
[[nodiscard]] constexpr T cdr_byteswap(T v) {
  T out = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out = static_cast<T>((out << 8) | ((v >> (8 * i)) & 0xFF));
  }
  return out;
}

/// This machine's byte order (streams in it are read and written unswapped).
[[nodiscard]] constexpr ByteOrder native_byte_order() {
  return std::endian::native == std::endian::little ? ByteOrder::kLittleEndian
                                                    : ByteOrder::kBigEndian;
}

/// Fewest bytes a CDR string occupies: its u32 length and the NUL.
inline constexpr std::size_t kMinCdrString = 5;

/// Serializer. Offsets are relative to the start of the CDR stream (for GIOP,
/// the message body begins at offset 0 — the 12-byte header is external and
/// deliberately laid out so body alignment is preserved).
class CdrWriter {
 public:
  explicit CdrWriter(ByteOrder order = ByteOrder::kLittleEndian)
      : order_(order) {}

  [[nodiscard]] ByteOrder order() const { return order_; }
  [[nodiscard]] const Bytes& buffer() const { return buf_; }
  [[nodiscard]] Bytes take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

  void reserve(std::size_t n) { buf_.reserve(n); }
  /// Starts the CDR stream at the current end: bytes written so far are a
  /// frame header outside it, and later alignment is relative to here. A
  /// body written behind its header this way is byte-identical to one
  /// encoded on its own and appended.
  void begin_stream() { base_ = buf_.size(); }

  void write_u8(std::uint8_t v);
  void write_bool(bool v) { write_u8(v ? 1 : 0); }
  // The fixed-width reads and writes sit in the per-entry loops of the
  // bulk encoders and decoders; they are forced inline because GCC's
  // inliner otherwise leaves them out of line in those large functions.
  [[gnu::always_inline]] void write_u16(std::uint16_t v) { write_fixed(v); }
  [[gnu::always_inline]] void write_u32(std::uint32_t v) { write_fixed(v); }
  [[gnu::always_inline]] void write_u64(std::uint64_t v) { write_fixed(v); }
  void write_i32(std::int32_t v) { write_u32(static_cast<std::uint32_t>(v)); }
  void write_i64(std::int64_t v) { write_u64(static_cast<std::uint64_t>(v)); }
  void write_double(double v);

  /// CDR string: u32 length including NUL, characters, NUL.
  void write_string(std::string_view s);
  /// sequence<octet>: u32 length + raw bytes.
  void write_octet_seq(ByteView bytes);
  /// Raw bytes with no length prefix (caller manages framing).
  void write_raw(ByteView bytes);
  /// Offset from the stream start: where the next field's alignment is
  /// reckoned from.
  [[nodiscard]] std::size_t stream_pos() const { return buf_.size() - base_; }
  /// Appends `n` uninitialised bytes and returns the first, for a caller
  /// that lays out a block of fixed-layout fields itself.
  [[nodiscard]] std::uint8_t* extend(std::size_t n) { return buf_.extend(n); }

 private:
  /// Zero-pads to sizeof(T) (relative to the stream start), then writes.
  template <typename T>
  [[gnu::always_inline]] void write_fixed(T v) {
    if (order_ != native_byte_order()) v = cdr_byteswap(v);
    const std::size_t misalign = (buf_.size() - base_) % sizeof(T);
    const std::size_t pad = misalign == 0 ? 0 : sizeof(T) - misalign;
    std::uint8_t* p = buf_.extend(pad + sizeof(T));
    std::memset(p, 0, pad);  // the alignment gap
    std::memcpy(p + pad, &v, sizeof(T));
  }
  void put_bytes(const void* p, std::size_t n);

  ByteOrder order_;
  Bytes buf_;
  std::size_t base_ = 0;  // alignment is relative to the stream start
};

/// Deserializer over a byte range. All reads are bounds-checked: a truncated
/// or corrupt stream yields CdrErr, never UB — the LOCATION_FORWARD
/// interceptor parses GIOP off the wire, so robustness here is load-bearing.
/// The reader does not copy: `buf` must outlive it.
class CdrReader {
 public:
  /// Reads `buf`, which must outlive the reader. A Bytes converts
  /// implicitly; so does a frame's payload view.
  CdrReader(ByteView buf, ByteOrder order, std::size_t start_offset = 0)
      : data_(buf.data()), size_(buf.size()), order_(order),
        swap_(order != native_byte_order()), pos_(start_offset),
        base_(start_offset) {}

  [[nodiscard]] ByteOrder order() const { return order_; }
  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const {
    return size_ > pos_ ? size_ - pos_ : 0;
  }
  /// How many of `count` wire-claimed entries, each at least
  /// `min_entry_size` encoded bytes, the unread input can actually hold:
  /// the capacity to reserve, so an inflated count cannot force a huge
  /// allocation before the decode fails on its own.
  [[nodiscard]] std::size_t bounded_count(std::uint32_t count,
                                          std::size_t min_entry_size) const {
    return std::min<std::size_t>(count, remaining() / min_entry_size);
  }

  CdrResult<std::uint8_t> read_u8();
  CdrResult<bool> read_bool();
  // Forced inline like CdrWriter's fixed-width writes.
  [[gnu::always_inline]] CdrResult<std::uint16_t> read_u16() {
    return read_fixed<std::uint16_t>();
  }
  [[gnu::always_inline]] CdrResult<std::uint32_t> read_u32() {
    return read_fixed<std::uint32_t>();
  }
  [[gnu::always_inline]] CdrResult<std::uint64_t> read_u64() {
    return read_fixed<std::uint64_t>();
  }
  CdrResult<std::int32_t> read_i32();
  CdrResult<std::int64_t> read_i64();
  CdrResult<double> read_double();
  CdrResult<std::string> read_string();
  CdrResult<Bytes> read_octet_seq();
  CdrResult<Bytes> read_raw(std::size_t n);
  /// read_string and read_octet_seq without the copy: views into the
  /// input, valid as long as it is.
  CdrResult<std::string_view> read_string_view();
  CdrResult<ByteView> read_octet_view();
  /// Offset from the stream start, as CdrWriter::stream_pos.
  [[nodiscard]] std::size_t stream_pos() const { return pos_ - base_; }
  /// Steps over the next `n` bytes and returns the first, for a caller
  /// that reads a block of fixed-layout fields itself; null, reading
  /// nothing, if fewer remain.
  [[nodiscard]] const std::uint8_t* take(std::size_t n) {
    if (!has(n)) return nullptr;
    pos_ += n;
    return data_ + pos_ - n;
  }

 private:
  /// Aligns to sizeof(T) (relative to the stream start), then reads.
  template <typename T>
  [[gnu::always_inline]] CdrResult<T> read_fixed() {
    const std::size_t misalign = (pos_ - base_) % sizeof(T);
    const std::size_t at = pos_ + (misalign == 0 ? 0 : sizeof(T) - misalign);
    if (at > size_ || size_ - at < sizeof(T)) {
      return make_unexpected(CdrErr::kOutOfBounds);
    }
    T v;
    std::memcpy(&v, data_ + at, sizeof(T));
    pos_ = at + sizeof(T);
    if (swap_) v = cdr_byteswap(v);
    return v;
  }
  [[nodiscard]] bool has(std::size_t n) const { return remaining() >= n; }

  const std::uint8_t* data_;
  std::size_t size_;
  ByteOrder order_;
  bool swap_;         // stream order differs from the host's
  std::size_t pos_;
  std::size_t base_;  // alignment is relative to the stream start
};

}  // namespace mead::giop

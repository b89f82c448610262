#include "giop/cdr.h"

#include <cstring>

namespace mead::giop {

// ------------------------------------------------------------- CdrWriter

void CdrWriter::put_bytes(const void* p, std::size_t n) {
  buf_.append(ByteView(static_cast<const std::uint8_t*>(p), n));
}

void CdrWriter::write_u8(std::uint8_t v) { buf_.push_back(v); }

void CdrWriter::write_double(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  write_u64(bits);
}

void CdrWriter::write_string(std::string_view s) {
  write_u32(static_cast<std::uint32_t>(s.size() + 1));
  put_bytes(s.data(), s.size());
  buf_.push_back(0);
}

void CdrWriter::write_octet_seq(ByteView bytes) {
  write_u32(static_cast<std::uint32_t>(bytes.size()));
  put_bytes(bytes.data(), bytes.size());
}

void CdrWriter::write_raw(ByteView bytes) {
  put_bytes(bytes.data(), bytes.size());
}

// ------------------------------------------------------------- CdrReader

CdrResult<std::uint8_t> CdrReader::read_u8() {
  if (!has(1)) return make_unexpected(CdrErr::kOutOfBounds);
  return data_[pos_++];
}

CdrResult<bool> CdrReader::read_bool() {
  auto v = read_u8();
  if (!v) return make_unexpected(v.error());
  return v.value() != 0;
}

CdrResult<std::int32_t> CdrReader::read_i32() {
  auto v = read_u32();
  if (!v) return make_unexpected(v.error());
  return static_cast<std::int32_t>(v.value());
}

CdrResult<std::int64_t> CdrReader::read_i64() {
  auto v = read_u64();
  if (!v) return make_unexpected(v.error());
  return static_cast<std::int64_t>(v.value());
}

CdrResult<double> CdrReader::read_double() {
  auto bits = read_u64();
  if (!bits) return make_unexpected(bits.error());
  double v;
  std::memcpy(&v, &bits.value(), 8);
  return v;
}

CdrResult<std::string_view> CdrReader::read_string_view() {
  auto len = read_u32();
  if (!len) return make_unexpected(len.error());
  if (len.value() == 0) return make_unexpected(CdrErr::kBadString);
  if (!has(len.value())) return make_unexpected(CdrErr::kLengthLimit);
  const std::size_t n = len.value() - 1;  // exclude NUL
  if (data_[pos_ + n] != 0) return make_unexpected(CdrErr::kBadString);
  std::string_view s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += len.value();
  return s;
}

CdrResult<std::string> CdrReader::read_string() {
  auto s = read_string_view();
  if (!s) return make_unexpected(s.error());
  return std::string(s.value());
}

CdrResult<ByteView> CdrReader::read_octet_view() {
  auto len = read_u32();
  if (!len) return make_unexpected(len.error());
  if (!has(len.value())) return make_unexpected(CdrErr::kLengthLimit);
  ByteView out(data_ + pos_, len.value());
  pos_ += len.value();
  return out;
}

CdrResult<Bytes> CdrReader::read_octet_seq() {
  auto v = read_octet_view();
  if (!v) return make_unexpected(v.error());
  return Bytes(v.value());
}

CdrResult<Bytes> CdrReader::read_raw(std::size_t n) {
  if (!has(n)) return make_unexpected(CdrErr::kOutOfBounds);
  Bytes out(ByteView(data_ + pos_, n));
  pos_ += n;
  return out;
}

}  // namespace mead::giop

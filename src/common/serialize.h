// Machine-independent binary serialization.
//
// The paper requires tuples and control messages to be exchanged "in machine
// independent format"; we fix the wire format to little-endian two's
// complement with explicit widths so the socket transport works between any
// pair of hosts and so message sizes (which drive the communication cost
// model) are exact and platform independent.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace sjoin {

/// Appends fixed-width little-endian values to a growable byte buffer.
class Writer {
 public:
  Writer() = default;
  explicit Writer(std::size_t reserve) { buf_.reserve(reserve); }

  void PutU8(std::uint8_t v) { buf_.push_back(v); }
  void PutU16(std::uint16_t v) { PutLe(v); }
  void PutU32(std::uint32_t v) { PutLe(v); }
  void PutU64(std::uint64_t v) { PutLe(v); }
  void PutI32(std::int32_t v) { PutLe(static_cast<std::uint32_t>(v)); }
  void PutI64(std::int64_t v) { PutLe(static_cast<std::uint64_t>(v)); }
  void PutDouble(double v);
  void PutBytes(std::span<const std::uint8_t> bytes);
  /// Appends `n` zero bytes in one insert -- the tuple codec's payload
  /// padding; a per-byte PutU8 loop here dominates encode time at large
  /// tuple sizes.
  void PutZeros(std::size_t n) { buf_.insert(buf_.end(), n, 0); }
  /// Length-prefixed (u32) string.
  void PutString(std::string_view s);

  /// Drops the contents but keeps the allocation, so one Writer can be
  /// reused across batches without reallocating its scratch buffer.
  void Clear() { buf_.clear(); }

  std::size_t Size() const { return buf_.size(); }
  std::span<const std::uint8_t> Bytes() const { return buf_; }
  std::vector<std::uint8_t> TakeBuffer() && { return std::move(buf_); }

 private:
  /// Grows the buffer once per value and writes its little-endian bytes in
  /// place: one capacity check per value, not one per byte.
  template <typename T>
  void PutLe(T v) {
    const std::size_t at = buf_.size();
    buf_.resize(at + sizeof(T));
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }

  std::vector<std::uint8_t> buf_;
};

/// Thrown when a Reader runs past the end of its buffer or a length prefix
/// is inconsistent -- i.e. a malformed or truncated message.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

/// Reads fixed-width little-endian values from a byte span. Does not own the
/// underlying storage.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t GetU8();
  std::uint16_t GetU16() { return GetLe<std::uint16_t>(); }
  std::uint32_t GetU32() { return GetLe<std::uint32_t>(); }
  std::uint64_t GetU64() { return GetLe<std::uint64_t>(); }
  std::int32_t GetI32() { return static_cast<std::int32_t>(GetU32()); }
  std::int64_t GetI64() { return static_cast<std::int64_t>(GetU64()); }
  double GetDouble();
  /// Copies `n` raw bytes out of the stream.
  std::vector<std::uint8_t> GetBytes(std::size_t n);
  std::string GetString();
  /// Advances past `n` bytes without copying them (opaque payload padding).
  void Skip(std::size_t n) {
    Require(n);
    pos_ += n;
  }

  std::size_t Remaining() const { return bytes_.size() - pos_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  template <typename T>
  T GetLe() {
    Require(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(bytes_[pos_ + i]) << (8 * i)));
    }
    pos_ += sizeof(T);
    return v;
  }

  void Require(std::size_t n) const;

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace sjoin

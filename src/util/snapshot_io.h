#pragma once
/// \file snapshot_io.h
/// Little-endian binary reader/writer pair for whole-runtime snapshots
/// (rts/snapshot.h, format `mrts.snapshot.v1`). Deliberately tiny and
/// dependency-free so every layer (util RNG / arch fabrics / rts units) can
/// expose `save_state` / `load_state` hooks without pulling rts headers.
///
/// Error contract: SnapshotReader never crashes on truncated or corrupt
/// bytes — every primitive read checks bounds first and throws
/// SnapshotError carrying the exact byte offset that failed, which the CLI
/// surfaces verbatim ("snapshot corrupt at offset N") with exit code 2.
/// Doubles round-trip through their IEEE-754 bit pattern (bit_cast), so a
/// restored run's floating-point state is bit-identical, not just close.

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace mrts {

/// Malformed snapshot bytes: \p offset is the position (into the buffer
/// handed to SnapshotReader) where decoding failed.
class SnapshotError : public std::runtime_error {
 public:
  SnapshotError(const std::string& what, std::size_t offset)
      : std::runtime_error(what + " at offset " + std::to_string(offset)),
        offset_(offset) {}

  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_ = 0;
};

/// Stores \p v little-endian at \p p and returns the byte after it.
template <typename T>
std::uint8_t* store_le(std::uint8_t* p, T v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof v; ++i) {
      p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
  return p + sizeof v;
}

/// Append-only little-endian encoder. Every multi-byte value goes in as one
/// chunk stored into room the buffer already has, so a pre-sized writer
/// (reserve) encodes at memory speed.
class SnapshotWriter {
 public:
  /// Makes room for \p bytes in total, so appends up to that size never
  /// regrow the buffer.
  void reserve(std::size_t bytes) {
    if (bytes > bytes_.size()) bytes_.resize(bytes);
  }

  void u8(std::uint8_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s) {
    u64(s.size());
    raw(s.data(), s.size());
  }
  /// Appends \p size bytes verbatim.
  void raw(const void* data, std::size_t size);

  /// Overwrites bytes previously written at \p pos (size/CRC backpatch).
  void patch_u32(std::size_t pos, std::uint32_t v) {
    store_le(bytes_.data() + pos, v);
  }
  void patch_u64(std::size_t pos, std::uint64_t v) {
    store_le(bytes_.data() + pos, v);
  }

  /// Bytes written so far: [data(), data() + size()).
  std::size_t size() const { return used_; }
  const std::uint8_t* data() const { return bytes_.data(); }
  /// The bytes written, as a vector exactly as large as its contents when
  /// the writer was reserved to its final size.
  std::vector<std::uint8_t> take() {
    bytes_.resize(used_);
    used_ = 0;
    return std::move(bytes_);
  }

 private:
  template <typename T>
  void append_le(T v) {
    if (bytes_.size() - used_ < sizeof v) grow(sizeof v);
    store_le(bytes_.data() + used_, v);
    used_ += sizeof v;
  }
  /// Grows the buffer to twice its size, or further if \p more bytes
  /// would still not fit.
  void grow(std::size_t more);

  std::vector<std::uint8_t> bytes_;  ///< [0, used_) written, the rest room
  std::size_t used_ = 0;
};

/// Bounds-checked little-endian decoder over a caller-owned buffer.
class SnapshotReader {
 public:
  SnapshotReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit SnapshotReader(const std::vector<std::uint8_t>& bytes)
      : SnapshotReader(bytes.data(), bytes.size()) {}

  std::uint8_t u8() {
    need(1, "u8");
    return data_[pos_++];
  }
  std::uint32_t u32() {
    need(4, "u32");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    need(8, "u64");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() {
    const std::size_t at = pos_;
    const std::uint8_t v = u8();
    if (v > 1) throw SnapshotError("snapshot bool out of range", at);
    return v != 0;
  }
  std::string str() {
    const std::size_t at = pos_;
    const std::uint64_t n = u64();
    if (n > remaining()) throw SnapshotError("snapshot string truncated", at);
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  /// u64 length prefix validated against an element-count ceiling before any
  /// allocation; use for every vector/map so corrupt lengths fail cleanly.
  std::size_t length(std::uint64_t max_elements, const char* what) {
    const std::size_t at = pos_;
    const std::uint64_t n = u64();
    if (n > max_elements) {
      throw SnapshotError(std::string("snapshot ") + what + " length implausible",
                          at);
    }
    return static_cast<std::size_t>(n);
  }

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return size_ - pos_; }
  bool at_end() const { return pos_ == size_; }

  /// Fails loudly when a section decoded fewer/more bytes than written —
  /// the snapshot layout drifted between writer and reader.
  void expect_end() const {
    if (!at_end()) throw SnapshotError("snapshot has trailing bytes", pos_);
  }

 private:
  void need(std::size_t n, const char* what) const {
    if (size_ - pos_ < n) {
      throw SnapshotError(std::string("snapshot truncated reading ") + what,
                          pos_);
    }
  }

  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over \p bytes,
/// computed slicing-by-8 (eight bytes per table round).
std::uint32_t snapshot_crc32(const std::uint8_t* data, std::size_t size);

}  // namespace mrts

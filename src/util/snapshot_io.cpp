#include "util/snapshot_io.h"

#include <algorithm>
#include <array>
#include <cstring>

namespace mrts {
namespace {

/// table[0] is the classic byte-at-a-time table; table[k][n] is the CRC of
/// byte n followed by k zero bytes, so eight bytes fold in one round.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][n] = c;
  }
  for (std::uint32_t n = 0; n < 256; ++n) {
    for (std::size_t k = 1; k < t.size(); ++k) {
      t[k][n] = t[0][t[k - 1][n] & 0xFFu] ^ (t[k - 1][n] >> 8);
    }
  }
  return t;
}

}  // namespace

void SnapshotWriter::raw(const void* data, std::size_t size) {
  if (size == 0) return;
  if (bytes_.size() - used_ < size) grow(size);
  std::memcpy(bytes_.data() + used_, data, size);
  used_ += size;
}

void SnapshotWriter::grow(std::size_t more) {
  bytes_.resize(std::max({2 * bytes_.size(), used_ + more, std::size_t{64}}));
}

std::uint32_t snapshot_crc32(const std::uint8_t* data, std::size_t size) {
  static const CrcTables t = make_crc_tables();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint32_t lo = crc ^ (static_cast<std::uint32_t>(data[0]) |
                                    static_cast<std::uint32_t>(data[1]) << 8 |
                                    static_cast<std::uint32_t>(data[2]) << 16 |
                                    static_cast<std::uint32_t>(data[3]) << 24);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][data[4]] ^
          t[2][data[5]] ^ t[1][data[6]] ^ t[0][data[7]];
  }
  for (; size > 0; ++data, --size) {
    crc = t[0][(crc ^ *data) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace mrts

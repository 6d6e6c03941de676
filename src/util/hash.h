// Hash primitives used across the project (dictionary, digram index,
// NVM hash table). Deterministic across platforms and runs.

#ifndef NTADOC_UTIL_HASH_H_
#define NTADOC_UTIL_HASH_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ntadoc {

/// 64-bit FNV-1a over arbitrary bytes. Deterministic; good enough for the
/// string dictionary and container checksums.
inline uint64_t Fnv1a64(const void* data, size_t len,
                        uint64_t seed = 1469598103934665603ULL) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

inline uint64_t HashString(std::string_view s) {
  return Fnv1a64(s.data(), s.size());
}

namespace internal {
/// Slicing-by-8 lookup tables for CRC-32 (IEEE 802.3, reflected
/// polynomial 0xEDB88320): table 0 is the classic byte-at-a-time table,
/// and table k advances a byte's contribution past k more zero bytes.
constexpr std::array<std::array<uint32_t, 256>, 8> MakeCrc32Tables() {
  std::array<std::array<uint32_t, 256>, 8> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}
inline constexpr auto kCrc32Tables = MakeCrc32Tables();
}  // namespace internal

/// CRC-32 (IEEE) over arbitrary bytes. Used as the media checksum for
/// persistent records (RedoLog entries, PhaseMarker slots): unlike FNV it
/// detects all burst errors up to 32 bits, the failure mode of a torn
/// cache-line flush. Eight bytes per step (slicing-by-8); the value is
/// the byte-at-a-time CRC's, whatever the host's byte order or the
/// buffer's alignment.
inline uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0) {
  const auto* p = static_cast<const uint8_t*>(data);
  const auto& t = internal::kCrc32Tables;
  uint32_t c = ~seed;
  for (; len >= 8; p += 8, len -= 8) {
    const uint32_t lo = c ^ (uint32_t{p[0]} | uint32_t{p[1]} << 8 |
                             uint32_t{p[2]} << 16 | uint32_t{p[3]} << 24);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
        t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; len > 0; ++p, --len) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return ~c;
}

/// Strong 64-bit integer mix (splitmix64 finalizer). Used to hash symbol
/// ids and to derive probe sequences in the NVM hash table.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Combines two hashes (order-dependent).
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return Mix64(a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2)));
}

/// Hashes a (first, second) symbol pair — the Sequitur digram key.
inline uint64_t HashPair(uint32_t first, uint32_t second) {
  return Mix64((static_cast<uint64_t>(first) << 32) | second);
}

/// Rounds `v` up to the next power of two (returns 1 for v == 0).
inline uint64_t NextPowerOfTwo(uint64_t v) {
  if (v <= 1) return 1;
  --v;
  v |= v >> 1;
  v |= v >> 2;
  v |= v >> 4;
  v |= v >> 8;
  v |= v >> 16;
  v |= v >> 32;
  return v + 1;
}

}  // namespace ntadoc

#endif  // NTADOC_UTIL_HASH_H_

// CRC32C (Castagnoli) checksums for the durable journal.
//
// Every frame of the write-ahead journal carries a CRC32C of its payload so
// recovery can distinguish a clean prefix from a torn or bit-flipped tail.
// Software table-driven implementation (the journal is I/O bound; a
// hardware instruction would not change any measurement that matters), with
// the standard reflected polynomial 0x82F63B78 and the conventional
// init/final inversion, so values match other CRC32C producers byte for
// byte.
#ifndef PIVOT_SUPPORT_CRC32C_H_
#define PIVOT_SUPPORT_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace pivot {

// CRC32C of `len` bytes at `data`. `seed` is a previous Crc32c result for
// chained computation over split buffers: Crc32c(b, Crc32c(a)) ==
// Crc32c(a + b).
std::uint32_t Crc32c(const void* data, std::size_t len,
                     std::uint32_t seed = 0);

inline std::uint32_t Crc32c(std::string_view data, std::uint32_t seed = 0) {
  return Crc32c(data.data(), data.size(), seed);
}

}  // namespace pivot

#endif  // PIVOT_SUPPORT_CRC32C_H_

// edgetrain: CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//
// Integrity check for every durable artefact: trainer snapshots and
// TieredSlotStore spill files. Header-only so core can verify spill files
// without a persist link dependency. Incremental: feed chunks through
// crc32_update to checksum streamed writes without buffering.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace edgetrain::persist {

namespace detail {
inline const std::array<std::uint32_t, 256>& crc32_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1U) != 0 ? (crc >> 1) ^ 0xEDB88320U : crc >> 1;
      }
      t[i] = crc;
    }
    return t;
  }();
  return table;
}
}  // namespace detail

/// Folds @p size bytes into a running CRC. Seed with crc32_init(), finish
/// with crc32_final() (the pre/post conditioning is kept explicit so the
/// streaming file writer can checksum without buffering the payload).
[[nodiscard]] constexpr std::uint32_t crc32_init() noexcept {
  return 0xFFFFFFFFU;
}

[[nodiscard]] inline std::uint32_t crc32_update(std::uint32_t crc,
                                                const void* data,
                                                std::size_t size) noexcept {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  const auto& table = detail::crc32_table();
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFFU] ^ (crc >> 8);
  }
  return crc;
}

[[nodiscard]] constexpr std::uint32_t crc32_final(std::uint32_t crc) noexcept {
  return crc ^ 0xFFFFFFFFU;
}

/// One-shot convenience.
[[nodiscard]] inline std::uint32_t crc32(const void* data,
                                         std::size_t size) noexcept {
  return crc32_final(crc32_update(crc32_init(), data, size));
}

}  // namespace edgetrain::persist

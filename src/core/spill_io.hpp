// edgetrain: the checkpoint spill-file format of the slot store's disk tier.
//
// One file per spilled slot, whatever its payload -- a raw fp32 tensor or a
// slot-codec blob (core/slot_codec.hpp):
//
//   "ETSP" | u32 version | u32 payload CRC-32 | u32 0 | u64 payload bytes
//   | zero padding                                         (48-byte header)
//   payload bytes
//
// The store writes and reads this format on its IO thread and on its
// blocking-read path alike, so the fault-injection tests (bit flips,
// truncation) exercise one code path whichever way a restore is served. Three
// properties matter on the SD-card path:
//
//   * zero steady-state heap allocation -- the file image is assembled in
//     (and read back through) the calling thread's Workspace arena, which
//     retains capacity across calls (satisfying the "one persistent
//     serialization buffer" rule; the background IO thread gets its own
//     arena via Workspace::tls());
//   * one write()/read() syscall per spill -- no iostream buffering layers;
//   * verification against *in-RAM* metadata -- the payload size and CRC
//     live with the store, so a swapped or stale spill file fails even when
//     its own header is internally consistent. The file does not say what
//     its payload is: the store knows each slot's shape and codec.
//
// Spill files live only as long as their store, so no reader of an older
// layout exists. Every operation applies the fault harness's injected disk
// latency (persist/io_latency.hpp), making SD-card timings reproducible on
// CI.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace edgetrain::core::spill {

/// Bytes preceding the payload in every spill file.
inline constexpr std::size_t kHeaderBytes = 48;

/// Writes the @p size payload bytes at @p data to @p path behind the header
/// (one write() syscall). Returns the payload CRC-32 for the caller to
/// retain as ground truth. Throws std::runtime_error naming @p who on any
/// IO failure.
std::uint32_t write_spill(const std::string& who, const std::string& path,
                          const void* data, std::size_t size);

/// Reads @p path back into the @p size bytes at @p out, verifying the file
/// size, the header and the payload checksum against the in-RAM @p size /
/// @p crc recorded at write time. Throws std::runtime_error with a
/// descriptive message ("truncated or corrupt", "failed its checksum")
/// naming @p who on any mismatch.
void read_spill(const std::string& who, const std::string& path,
                std::size_t size, std::uint32_t crc, void* out);

}  // namespace edgetrain::core::spill

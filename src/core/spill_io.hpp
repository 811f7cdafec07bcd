// edgetrain: the checkpoint spill-file format shared by the disk stores.
//
// One self-describing file per spilled slot:
//
//   "ETSP" | u32 version | u32 payload CRC-32 | u32 rank | i64 dims[4]
//   float32 payload, row-major                              (48-byte header)
//
// AsyncDiskSlotStore reads and writes this format on its IO thread and on
// its blocking-read path alike, so the fault-injection tests (bit flips,
// truncation) exercise one code path whichever way a restore is served. Three
// properties matter on the SD-card path:
//
//   * zero steady-state heap allocation -- the file image is assembled in
//     (and read back through) the calling thread's Workspace arena, which
//     retains capacity across calls (satisfying the "one persistent
//     serialization buffer" rule; the background IO thread gets its own
//     arena via Workspace::tls());
//   * one write()/read() syscall per spill -- no iostream buffering layers;
//   * verification against *in-RAM* metadata -- the expected shape and CRC
//     live with the store, so a swapped or stale spill file fails even when
//     its own header is internally consistent.
//
// Every operation applies the fault harness's injected disk latency
// (persist/io_latency.hpp), making SD-card timings reproducible on CI.
#pragma once

#include <cstdint>
#include <string>

#include "tensor/tensor.hpp"

namespace edgetrain::core::spill {

/// Bytes preceding the payload in every spill file.
inline constexpr std::size_t kHeaderBytes = 48;

/// Serialises @p value to @p path (header + payload, single syscall).
/// Returns the payload CRC-32 for the caller to retain as ground truth.
/// Throws std::runtime_error naming @p who on any IO failure.
std::uint32_t write_spill(const std::string& who, const std::string& path,
                          const Tensor& value);

/// Reads @p path back, verifying the file size and payload checksum against
/// the in-RAM @p shape / @p crc recorded at write time. Throws
/// std::runtime_error with a descriptive message ("truncated or corrupt",
/// "failed its checksum") naming @p who on any mismatch.
[[nodiscard]] Tensor read_spill(const std::string& who,
                                const std::string& path, const Shape& shape,
                                std::uint32_t crc);

// --- Encoded (compressed) spills ------------------------------------------
// Same header discipline and IO path, magic "ETSC": the payload is an
// opaque codec blob (core/slot_codec.hpp) whose byte length replaces the
// tensor dims (rank 0, dims[0] = size). The store keeps shape, codec, CRC
// and size in RAM, so verification still runs against in-RAM ground truth.

/// Writes @p size encoded bytes to @p path; returns the payload CRC-32.
std::uint32_t write_spill_blob(const std::string& who, const std::string& path,
                               const std::uint8_t* data, std::size_t size);

/// Reads exactly @p size encoded bytes back into @p out, verifying the file
/// size and CRC against the recorded @p size / @p crc. Throws like
/// read_spill on any mismatch.
void read_spill_blob(const std::string& who, const std::string& path,
                     std::size_t size, std::uint32_t crc, std::uint8_t* out);

}  // namespace edgetrain::core::spill

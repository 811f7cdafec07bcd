// edgetrain: pluggable compression codecs for checkpoint slots.
//
// Every byte shaved off a stored activation slot is a byte the Revolve DP
// can turn into an extra checkpoint, moving the paper's Figure-1 curve
// down (lower peak) AND left (lower recompute factor rho at the same RAM
// cap); on the disk-spill path it directly cuts SD-card traffic. A
// SlotCodec names one encoding of an fp32 activation payload:
//
//   None     -- identity (the plaintext baseline).
//   Lossless -- byte-plane shuffle + per-plane PackBits-style RLE.
//               Post-ReLU activations are zero-heavy and float exponents
//               cluster, so transposing the payload into four byte planes
//               (tensor/convert.hpp) makes runs the RLE collapses.
//               Restore is bit-exact; incompressible payloads fall back to
//               a raw-stored mode, bounding the blob at payload + 1 byte.
//   Fp16     -- IEEE binary16 cast (round-to-nearest-even), 2 bytes/elem.
//   Bf16     -- bfloat16 cast (round-to-nearest-even), 2 bytes/elem.
//   Bitmap   -- nonzero bitmap + packed fp32 nonzeros (BitTrain-style),
//               built on the tensor/sparse.hpp popcount/compact/scatter
//               kernels. Bit-exact ("nonzero" means the 32-bit pattern, so
//               -0.0f and NaNs survive; zeros restore as +0.0f exactly,
//               which is what a ReLU produced). The sparse form carries a
//               CRC32 over the whole blob, so any truncation or bit flip
//               of a sparse-mode blob is rejected; incompressible payloads
//               fall back to a raw-stored mode bounding the blob at
//               payload + 1 byte (plaintext semantics, like Lossless raw).
//   BitmapFp16 -- same bitmap, nonzeros cast to binary16; falls back to a
//               dense fp16 cast, bounding the blob at payload/2 + 1.
//   Int8     -- per-tensor affine u8 (tensor/quant.hpp), 1 byte/elem behind
//               a 5-byte header (f32 scale, u8 zero point): payload/4 + 5.
//
// The lossy casts change recomputed forwards by the cast's rounding error;
// tests/core/ validates end-to-end gradients against the gradcheck
// tolerances. Encode/decode run through the SIMD parallel_for kernels of
// tensor/convert.hpp; the async store decodes with Threading::Serial on
// its background IO thread, so decompression overlaps recompute instead of
// borrowing the compute pool.
//
// Planner integration: planning_bytes_ratio() is the per-slot byte ratio
// the schedulers (core/planner.hpp, core/revolve.hpp, core/disk_revolve.hpp)
// and the analysis:: interpreter use to re-solve plans with more slots per
// byte budget. Lossless is data-dependent, so its planning ratio is the
// conservative 1.0; measured ratios from real activations can be fed to
// the planner explicitly (bench_fig1 --compress does).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "tensor/convert.hpp"
#include "tensor/tensor.hpp"

namespace edgetrain::core {

enum class SlotCodec : std::uint8_t {
  None, Lossless, Fp16, Bf16, Bitmap, BitmapFp16, Int8
};

[[nodiscard]] std::string to_string(SlotCodec codec);

/// Parses "none" | "lossless" | "fp16" | "bf16" | "bitmap" | "bitmap-fp16"
/// | "int8" (the --compress flag vocabulary); nullopt on anything else.
[[nodiscard]] std::optional<SlotCodec> parse_slot_codec(std::string_view name);

/// Guaranteed worst-case encoded bytes / plaintext bytes for planning:
/// None, Lossless and Bitmap 1.0 (data-dependent; their raw fallbacks
/// bound them at plaintext), Fp16/Bf16/BitmapFp16 exactly 0.5, Int8 0.25.
/// Per-blob headers (Lossless/Bitmap's 1-byte mode, Int8's 5-byte scale and
/// zero point) are constant per slot and left out of the ratio. The
/// data-dependent codecs usually land far below their worst case on real
/// activations -- the slot stores report the achieved ratio per slot
/// (SlotStore::measured_slot_ratio) so planners can re-solve with measured
/// per-slot vectors instead of this static bound.
[[nodiscard]] double planning_bytes_ratio(SlotCodec codec);

namespace codec {

/// Upper bound on encode()'s blob size for @p numel fp32 elements.
[[nodiscard]] std::size_t max_encoded_bytes(SlotCodec codec,
                                            std::int64_t numel);

/// Encodes @p value's payload. Scratch comes from the calling thread's
/// Workspace arena (zero steady-state heap traffic beyond the returned
/// blob). The blob is decodable given the codec and the tensor's shape.
[[nodiscard]] std::vector<std::uint8_t> encode(
    SlotCodec codec, const Tensor& value,
    convert::Threading threading = convert::Threading::Parallel);

/// Decodes an encode() blob back into a tensor of @p shape. Throws
/// std::runtime_error naming @p who on any structural corruption (size
/// mismatch, malformed RLE stream, over/underrun); a Lossless blob decodes
/// bit-identically to the encoded payload.
[[nodiscard]] Tensor decode(
    SlotCodec codec, const std::string& who, const Shape& shape,
    const std::uint8_t* data, std::size_t size,
    convert::Threading threading = convert::Threading::Parallel);

}  // namespace codec

}  // namespace edgetrain::core

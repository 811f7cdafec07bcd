// edgetrain: bulk precision-conversion and byte-plane kernels.
//
// The slot-compression codecs (core/slot_codec.hpp) move checkpointed
// activations between fp32 and half-width encodings on every Store/Restore
// of a compressed slot, and a Revolve schedule touches each checkpoint
// several times per training step -- so these conversions sit on the hot
// path next to the GEMM. The kernels here are branchless bit-manipulation
// formulations that GCC auto-vectorises under the same target_clones
// v3/v4 dispatch as tensor/ops.cpp (no intrinsics), parallelised with
// parallel_for over cache-friendly grains.
//
//   * fp32 <-> IEEE 754 binary16, round-to-nearest-even. Bit-identical to
//     the explicit-rounding scalar reference in tests/core/slot_codec_test
//     (NaNs collapse to the same sign-preserving quiet NaN 0x7E00); tested
//     exhaustively over all 2^16 half patterns and against the reference
//     on random and adversarial floats.
//   * fp32 <-> bfloat16, round-to-nearest-even truncation (NaNs quieted).
//   * byte-plane split/merge: transposes n 32-bit words into 4 planes of n
//     bytes (plane b holds byte b of every word). Post-ReLU activations
//     are zero-heavy and float exponents cluster, so the planes are far
//     more RLE-compressible than the interleaved bytes; this is the
//     shuffle half of the lossless slot codec.
#pragma once

#include <cstdint>

namespace edgetrain::convert {

/// fp32 -> binary16 with round-to-nearest-even; branchless, safe to call
/// from vectorised loops. NaN -> sign | 0x7E00, overflow -> +-inf.
[[nodiscard]] std::uint16_t fp32_to_fp16_scalar(float value) noexcept;

/// binary16 -> fp32 (exact; subnormals and inf/NaN included).
[[nodiscard]] float fp16_to_fp32_scalar(std::uint16_t value) noexcept;

/// fp32 -> bfloat16 with round-to-nearest-even; NaN payloads are quieted.
[[nodiscard]] std::uint16_t fp32_to_bf16_scalar(float value) noexcept;

/// bfloat16 -> fp32 (exact: bf16 is a truncated fp32).
[[nodiscard]] float bf16_to_fp32_scalar(std::uint16_t value) noexcept;

/// Thread placement for the bulk kernels. Parallel uses the global
/// ThreadPool (the default; call only from the training thread -- the pool
/// is not reentrant across callers). Serial keeps the work on the calling
/// thread, which is what the async store's background IO thread must use:
/// its decompression overlaps recompute precisely because it does NOT
/// borrow the compute pool.
enum class Threading : std::uint8_t { Parallel, Serial };

/// Bulk conversions, dst[i] = convert(src[i]) for i in [0, n).
/// src and dst must not overlap.
void fp32_to_fp16(const float* src, std::uint16_t* dst, std::int64_t n,
                  Threading threading = Threading::Parallel);
void fp16_to_fp32(const std::uint16_t* src, float* dst, std::int64_t n,
                  Threading threading = Threading::Parallel);
void fp32_to_bf16(const float* src, std::uint16_t* dst, std::int64_t n,
                  Threading threading = Threading::Parallel);
void bf16_to_fp32(const std::uint16_t* src, float* dst, std::int64_t n,
                  Threading threading = Threading::Parallel);

/// Splits @p n_words 32-bit words (4 * n_words bytes at @p src) into four
/// byte planes: dst[b * n_words + i] = src[4 * i + b]. src/dst disjoint.
void byte_plane_split(const std::uint8_t* src, std::int64_t n_words,
                      std::uint8_t* dst,
                      Threading threading = Threading::Parallel);

/// Inverse of byte_plane_split: dst[4 * i + b] = src[b * n_words + i].
void byte_plane_merge(const std::uint8_t* src, std::int64_t n_words,
                      std::uint8_t* dst,
                      Threading threading = Threading::Parallel);

}  // namespace edgetrain::convert

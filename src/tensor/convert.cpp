#include "tensor/convert.hpp"

#include <bit>

#include "tensor/guards.hpp"
#include "tensor/parallel.hpp"

namespace edgetrain::convert {

namespace {

// Same micro-architecture dispatch as tensor/ops.cpp: v3/v4 clones resolved
// by the loader's ifunc, disabled under sanitizers (the resolver runs before
// __tsan_init/__asan_init and an instrumented resolver segfaults there).
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define EDGETRAIN_CONVERT_CLONES
#elif defined(__GNUC__) && defined(__x86_64__) && !defined(__clang__)
#define EDGETRAIN_CONVERT_CLONES \
  __attribute__(                 \
      (target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define EDGETRAIN_CONVERT_CLONES
#endif

/// Elements per parallel_for grain: big enough that chunk dispatch is noise
/// next to the conversion, small enough that a ResNet activation still
/// splits across the Waggle node's cores.
constexpr std::int64_t kGrain = 1 << 15;

// ---------------------------------------------------------------------------
// Scalar cores. Branchless float-arithmetic formulations (the magic-constant
// technique of the classic FP16 conversion routines): the fp32 hardware
// itself performs the round-to-nearest-even at the half mantissa boundary,
// including gradual underflow, so the loop bodies contain only integer ops,
// one multiply/add, and selects -- exactly what the auto-vectoriser turns
// into mask/blend code. Bitwise equivalence with the explicit-rounding
// reference kept in tests/core/slot_codec_test.cpp is property-tested
// exhaustively there.
// ---------------------------------------------------------------------------

inline std::uint16_t encode_half(float value) noexcept {
  // Scale |value| so the half-precision exponent range maps onto fp32's;
  // the first product saturates overflow to inf, the second lands the
  // magnitude where fp32 rounding equals half rounding (subnormals
  // included, via the exponent-dependent bias added below).
  constexpr float kScaleToInf = 0x1.0p+112F;
  constexpr float kScaleToZero = 0x1.0p-110F;
  const std::uint32_t w = std::bit_cast<std::uint32_t>(value);
  const std::uint32_t shl1_w = w + w;
  const std::uint32_t sign = w & 0x80000000U;
  const float abs_value = std::bit_cast<float>(w & 0x7FFFFFFFU);
  float base = (abs_value * kScaleToInf) * kScaleToZero;

  std::uint32_t bias = shl1_w & 0xFF000000U;
  if (bias < 0x71000000U) bias = 0x71000000U;
  base = std::bit_cast<float>((bias >> 1) + 0x07800000U) + base;

  const std::uint32_t bits = std::bit_cast<std::uint32_t>(base);
  const std::uint32_t exp_bits = (bits >> 13) & 0x00007C00U;
  const std::uint32_t mantissa_bits = bits & 0x00000FFFU;
  const std::uint32_t nonsign = exp_bits + mantissa_bits;
  return static_cast<std::uint16_t>(
      (sign >> 16) | (shl1_w > 0xFF000000U ? 0x7E00U : nonsign));
}

inline float decode_half(std::uint16_t value) noexcept {
  const std::uint32_t w = static_cast<std::uint32_t>(value) << 16;
  const std::uint32_t sign = w & 0x80000000U;
  const std::uint32_t two_w = w + w;

  // Normal/inf/NaN: shift the half exponent into fp32 position and rescale.
  constexpr std::uint32_t kExpOffset = 0xE0U << 23;
  constexpr float kExpScale = 0x1.0p-112F;
  const float normalized =
      std::bit_cast<float>((two_w >> 4) + kExpOffset) * kExpScale;

  // Subnormal/zero: place the mantissa behind the exponent of 0.5 so the
  // subtraction re-normalises it exactly.
  constexpr std::uint32_t kMagicMask = 126U << 23;
  constexpr float kMagicBias = 0.5F;
  const float denormalized =
      std::bit_cast<float>((two_w >> 17) | kMagicMask) - kMagicBias;

  constexpr std::uint32_t kDenormCutoff = 1U << 27;
  const std::uint32_t result =
      sign | (two_w < kDenormCutoff ? std::bit_cast<std::uint32_t>(denormalized)
                                    : std::bit_cast<std::uint32_t>(normalized));
  return std::bit_cast<float>(result);
}

inline std::uint16_t encode_bf16(float value) noexcept {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(value);
  if ((bits & 0x7FFFFFFFU) > 0x7F800000U) {
    // NaN: truncation could zero the payload and turn it into inf; force
    // the quiet bit instead (sign and surviving payload bits kept).
    return static_cast<std::uint16_t>((bits >> 16) | 0x0040U);
  }
  const std::uint32_t rounded = bits + 0x7FFFU + ((bits >> 16) & 1U);
  return static_cast<std::uint16_t>(rounded >> 16);
}

inline float decode_bf16(std::uint16_t value) noexcept {
  return std::bit_cast<float>(static_cast<std::uint32_t>(value) << 16);
}

// ---------------------------------------------------------------------------
// Cloned chunk kernels (one flat loop each, so the vectoriser sees a
// straight-line body) and the parallel drivers.
// ---------------------------------------------------------------------------

EDGETRAIN_CONVERT_CLONES
void fp32_to_fp16_chunk(const float* src, std::uint16_t* dst,
                        std::int64_t begin, std::int64_t end) {
  for (std::int64_t i = begin; i < end; ++i) dst[i] = encode_half(src[i]);
}

EDGETRAIN_CONVERT_CLONES
void fp16_to_fp32_chunk(const std::uint16_t* src, float* dst,
                        std::int64_t begin, std::int64_t end) {
  for (std::int64_t i = begin; i < end; ++i) dst[i] = decode_half(src[i]);
}

EDGETRAIN_CONVERT_CLONES
void fp32_to_bf16_chunk(const float* src, std::uint16_t* dst,
                        std::int64_t begin, std::int64_t end) {
  for (std::int64_t i = begin; i < end; ++i) dst[i] = encode_bf16(src[i]);
}

EDGETRAIN_CONVERT_CLONES
void bf16_to_fp32_chunk(const std::uint16_t* src, float* dst,
                        std::int64_t begin, std::int64_t end) {
  for (std::int64_t i = begin; i < end; ++i) dst[i] = decode_bf16(src[i]);
}

EDGETRAIN_CONVERT_CLONES
void split_chunk(const std::uint8_t* src, std::int64_t n_words,
                 std::int64_t begin, std::int64_t end, std::uint8_t* dst) {
  for (int b = 0; b < 4; ++b) {
    std::uint8_t* plane = dst + static_cast<std::int64_t>(b) * n_words;
    const std::uint8_t* lane = src + b;
    for (std::int64_t i = begin; i < end; ++i) plane[i] = lane[4 * i];
  }
}

EDGETRAIN_CONVERT_CLONES
void merge_chunk(const std::uint8_t* src, std::int64_t n_words,
                 std::int64_t begin, std::int64_t end, std::uint8_t* dst) {
  for (int b = 0; b < 4; ++b) {
    const std::uint8_t* plane = src + static_cast<std::int64_t>(b) * n_words;
    std::uint8_t* lane = dst + b;
    for (std::int64_t i = begin; i < end; ++i) lane[4 * i] = plane[i];
  }
}

template <typename Fn>
void drive(std::int64_t n, Threading threading, Fn&& chunk) {
  if (threading == Threading::Serial) {
    chunk(std::int64_t{0}, n);
    return;
  }
  parallel_for(0, n, kGrain, chunk);
}

}  // namespace

std::uint16_t fp32_to_fp16_scalar(float value) noexcept {
  return encode_half(value);
}
float fp16_to_fp32_scalar(std::uint16_t value) noexcept {
  return decode_half(value);
}
std::uint16_t fp32_to_bf16_scalar(float value) noexcept {
  return encode_bf16(value);
}
float bf16_to_fp32_scalar(std::uint16_t value) noexcept {
  return decode_bf16(value);
}

void fp32_to_fp16(const float* src, std::uint16_t* dst, std::int64_t n,
                  Threading threading) {
  EDGETRAIN_GUARD_DISJOINT(
      "fp32_to_fp16",
      {src, n}, {reinterpret_cast<const float*>(dst), (n + 1) / 2});
  drive(n, threading, [&](std::int64_t begin, std::int64_t end) {
    fp32_to_fp16_chunk(src, dst, begin, end);
  });
}

void fp16_to_fp32(const std::uint16_t* src, float* dst, std::int64_t n,
                  Threading threading) {
  EDGETRAIN_GUARD_DISJOINT(
      "fp16_to_fp32",
      {reinterpret_cast<const float*>(src), (n + 1) / 2}, {dst, n});
  drive(n, threading, [&](std::int64_t begin, std::int64_t end) {
    fp16_to_fp32_chunk(src, dst, begin, end);
  });
}

void fp32_to_bf16(const float* src, std::uint16_t* dst, std::int64_t n,
                  Threading threading) {
  EDGETRAIN_GUARD_DISJOINT(
      "fp32_to_bf16",
      {src, n}, {reinterpret_cast<const float*>(dst), (n + 1) / 2});
  drive(n, threading, [&](std::int64_t begin, std::int64_t end) {
    fp32_to_bf16_chunk(src, dst, begin, end);
  });
}

void bf16_to_fp32(const std::uint16_t* src, float* dst, std::int64_t n,
                  Threading threading) {
  EDGETRAIN_GUARD_DISJOINT(
      "bf16_to_fp32",
      {reinterpret_cast<const float*>(src), (n + 1) / 2}, {dst, n});
  drive(n, threading, [&](std::int64_t begin, std::int64_t end) {
    bf16_to_fp32_chunk(src, dst, begin, end);
  });
}

void byte_plane_split(const std::uint8_t* src, std::int64_t n_words,
                      std::uint8_t* dst, Threading threading) {
  drive(n_words, threading, [&](std::int64_t begin, std::int64_t end) {
    split_chunk(src, n_words, begin, end, dst);
  });
}

void byte_plane_merge(const std::uint8_t* src, std::int64_t n_words,
                      std::uint8_t* dst, Threading threading) {
  drive(n_words, threading, [&](std::int64_t begin, std::int64_t end) {
    merge_chunk(src, n_words, begin, end, dst);
  });
}

}  // namespace edgetrain::convert

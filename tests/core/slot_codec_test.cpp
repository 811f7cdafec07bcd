// Slot-codec unit coverage: the SIMD fp16/bf16 cast kernels against an
// explicit-rounding scalar IEEE reference kept here (exhaustively over all
// 65536 half patterns), the byte-plane + RLE lossless codec's bit-exactness
// and raw-mode fallback bound, its measured compression on post-ReLU-like
// activations, structural-corruption detection on decode, and the
// CompressedSlotStore's accounting and guard poisoning.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "core/slot_codec.hpp"
#include "core/slot_store.hpp"
#include "tensor/alloc.hpp"
#include "tensor/convert.hpp"
#include "tensor/guards.hpp"

namespace edgetrain::core {
namespace {

// --- scalar IEEE 754 binary16 reference (round-to-nearest-even) -----------
// Written bit field by bit field, independently of the branch-free
// tensor/convert kernels it checks.

std::uint16_t float_to_half(float value) {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(value);
  const std::uint32_t sign = (bits >> 16) & 0x8000U;
  const std::int32_t exponent =
      static_cast<std::int32_t>((bits >> 23) & 0xFF) - 127 + 15;
  std::uint32_t mantissa = bits & 0x7FFFFFU;

  if (exponent >= 31) {  // overflow or inf/nan
    if (((bits >> 23) & 0xFF) == 0xFF && mantissa != 0) {
      return static_cast<std::uint16_t>(sign | 0x7E00U);  // NaN
    }
    return static_cast<std::uint16_t>(sign | 0x7C00U);  // +-inf
  }
  if (exponent <= 0) {  // subnormal or zero
    if (exponent < -10) return static_cast<std::uint16_t>(sign);
    mantissa |= 0x800000U;
    const int shift = 14 - exponent;
    std::uint32_t half_mantissa = mantissa >> shift;
    // round to nearest even
    const std::uint32_t rest = mantissa & ((1U << shift) - 1U);
    const std::uint32_t halfway = 1U << (shift - 1);
    if (rest > halfway || (rest == halfway && (half_mantissa & 1U))) {
      ++half_mantissa;
    }
    return static_cast<std::uint16_t>(sign | half_mantissa);
  }
  std::uint32_t half =
      sign | (static_cast<std::uint32_t>(exponent) << 10) | (mantissa >> 13);
  const std::uint32_t rest = mantissa & 0x1FFFU;
  if (rest > 0x1000U || (rest == 0x1000U && (half & 1U))) ++half;
  return static_cast<std::uint16_t>(half);
}

float half_to_float(std::uint16_t value) {
  const std::uint32_t sign = (static_cast<std::uint32_t>(value) & 0x8000U)
                             << 16;
  const std::uint32_t exponent = (value >> 10) & 0x1FU;
  const std::uint32_t mantissa = value & 0x3FFU;
  std::uint32_t bits;
  if (exponent == 0) {
    if (mantissa == 0) {
      bits = sign;  // zero
    } else {        // subnormal: normalise
      int e = -1;
      std::uint32_t m = mantissa;
      do {
        ++e;
        m <<= 1;
      } while ((m & 0x400U) == 0);
      bits = sign | (static_cast<std::uint32_t>(127 - 15 - e) << 23) |
             ((m & 0x3FFU) << 13);
    }
  } else if (exponent == 31) {
    bits = sign | 0x7F800000U | (mantissa << 13);  // inf/nan
  } else {
    bits = sign | ((exponent - 15 + 127) << 23) | (mantissa << 13);
  }
  return std::bit_cast<float>(bits);
}

TEST(HalfFloat, ExactValuesRoundTrip) {
  for (const float v : {0.0F, 1.0F, -1.0F, 0.5F, 2.0F, -1024.0F, 0.25F}) {
    EXPECT_EQ(half_to_float(float_to_half(v)), v) << v;
  }
}

TEST(HalfFloat, RelativeErrorWithinHalfUlp) {
  std::mt19937 rng(5);
  std::uniform_real_distribution<float> dist(-100.0F, 100.0F);
  for (int i = 0; i < 2000; ++i) {
    const float v = dist(rng);
    const float r = half_to_float(float_to_half(v));
    EXPECT_NEAR(r, v, std::fabs(v) * 1e-3F + 1e-6F);
  }
}

TEST(HalfFloat, OverflowSaturatesToInfinity) {
  EXPECT_TRUE(std::isinf(half_to_float(float_to_half(1e10F))));
  EXPECT_TRUE(std::isinf(half_to_float(float_to_half(-1e10F))));
  EXPECT_LT(half_to_float(float_to_half(-1e10F)), 0.0F);
}

TEST(HalfFloat, SubnormalsSurvive) {
  const float tiny = 1e-5F;
  const float r = half_to_float(float_to_half(tiny));
  EXPECT_NEAR(r, tiny, 1e-6F);
}

TEST(HalfFloat, NanPropagates) {
  EXPECT_TRUE(std::isnan(
      half_to_float(float_to_half(std::numeric_limits<float>::quiet_NaN()))));
}

// --- fp16 kernels vs the scalar IEEE reference ----------------------------

TEST(ConvertTest, Fp16DecodeMatchesReferenceExhaustively) {
  // Every one of the 65536 binary16 patterns must decode to the same float
  // as the repo's reference converter (NaNs compared as NaNs).
  for (std::uint32_t bits = 0; bits <= 0xFFFFU; ++bits) {
    const auto h = static_cast<std::uint16_t>(bits);
    const float expected = half_to_float(h);
    const float got = convert::fp16_to_fp32_scalar(h);
    if (std::isnan(expected)) {
      EXPECT_TRUE(std::isnan(got)) << "half bits 0x" << std::hex << bits;
    } else {
      EXPECT_EQ(expected, got) << "half bits 0x" << std::hex << bits;
      // Signed zero must round-trip with its sign.
      if (expected == 0.0F) {
        EXPECT_EQ(std::signbit(expected), std::signbit(got))
            << "half bits 0x" << std::hex << bits;
      }
    }
  }
}

TEST(ConvertTest, Fp16EncodeMatchesReferenceOnAdversarialValues) {
  std::vector<float> values = {
      0.0F, -0.0F, 1.0F, -1.0F, 0.5F, 2.0F, 1.0F / 3.0F,
      65504.0F,   // largest finite half
      65519.0F,   // rounds to 65504 (RNE)
      65520.0F,   // ties to infinity
      65536.0F, 1e9F, -1e9F,
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN(),
      6.103515625e-05F,   // smallest normal half
      6.0975552e-05F,     // subnormal half range
      5.960464477539063e-08F,  // smallest subnormal half
      2.9802322e-08F,          // ties to zero
      1e-10F, -1e-10F,
      std::numeric_limits<float>::denorm_min(),
  };
  std::mt19937 rng(99);
  std::uniform_real_distribution<float> uni(-70000.0F, 70000.0F);
  std::normal_distribution<float> narrow(0.0F, 1.0F);
  for (int i = 0; i < 20000; ++i) values.push_back(uni(rng));
  for (int i = 0; i < 20000; ++i) values.push_back(narrow(rng));
  for (float v : values) {
    EXPECT_EQ(float_to_half(v), convert::fp32_to_fp16_scalar(v))
        << "value " << v;
  }
}

TEST(ConvertTest, BulkKernelsMatchScalarBothThreadings) {
  std::mt19937 rng(7);
  std::normal_distribution<float> dist(0.0F, 10.0F);
  constexpr std::int64_t kN = 70001;  // not a multiple of the SIMD grain
  std::vector<float> src(kN);
  for (float& v : src) v = dist(rng);
  src[5] = std::numeric_limits<float>::quiet_NaN();
  src[6] = std::numeric_limits<float>::infinity();

  std::vector<std::uint16_t> expected(kN);
  for (std::int64_t i = 0; i < kN; ++i) {
    expected[static_cast<std::size_t>(i)] =
        convert::fp32_to_fp16_scalar(src[static_cast<std::size_t>(i)]);
  }
  for (const auto threading :
       {convert::Threading::Parallel, convert::Threading::Serial}) {
    std::vector<std::uint16_t> got(kN);
    convert::fp32_to_fp16(src.data(), got.data(), kN, threading);
    EXPECT_EQ(expected, got);

    std::vector<float> back(kN);
    convert::fp16_to_fp32(got.data(), back.data(), kN, threading);
    for (std::int64_t i = 0; i < kN; ++i) {
      const float ref =
          convert::fp16_to_fp32_scalar(expected[static_cast<std::size_t>(i)]);
      const float b = back[static_cast<std::size_t>(i)];
      if (std::isnan(ref)) {
        EXPECT_TRUE(std::isnan(b)) << i;
      } else {
        EXPECT_EQ(ref, b) << i;
      }
    }
  }
}

TEST(ConvertTest, Bf16RoundTripIsExactOnBf16Grid) {
  // Values already representable in bf16 must survive unchanged; NaN must
  // stay NaN (quieted), round-to-nearest-even on the rest.
  std::mt19937 rng(11);
  std::uniform_int_distribution<std::uint32_t> hi(0, 0xFFFFU);
  for (int i = 0; i < 20000; ++i) {
    const std::uint16_t pattern = static_cast<std::uint16_t>(hi(rng));
    const float v = convert::bf16_to_fp32_scalar(pattern);
    if (std::isnan(v)) continue;
    EXPECT_EQ(convert::fp32_to_bf16_scalar(v), pattern);
  }
  EXPECT_TRUE(std::isnan(convert::bf16_to_fp32_scalar(
      convert::fp32_to_bf16_scalar(std::numeric_limits<float>::quiet_NaN()))));
  // RNE halfway case: 1 + 2^-8 sits exactly between 0x3F80 (1.0) and
  // 0x3F81 (1.0078125) and must round to the even mantissa, 0x3F80.
  const float halfway = 1.00390625F;
  EXPECT_EQ(convert::fp32_to_bf16_scalar(halfway), 0x3F80);
  // Just above the tie rounds up.
  EXPECT_EQ(convert::fp32_to_bf16_scalar(1.00390637F), 0x3F81);
}

TEST(ConvertTest, BytePlaneSplitMergeRoundTrips) {
  std::mt19937 rng(3);
  std::uniform_int_distribution<int> byte(0, 255);
  constexpr std::int64_t kWords = 12345;
  std::vector<std::uint8_t> src(4 * kWords);
  for (auto& b : src) b = static_cast<std::uint8_t>(byte(rng));
  std::vector<std::uint8_t> planes(4 * kWords);
  std::vector<std::uint8_t> back(4 * kWords);
  for (const auto threading :
       {convert::Threading::Parallel, convert::Threading::Serial}) {
    convert::byte_plane_split(src.data(), kWords, planes.data(), threading);
    // Plane b holds the b-th byte of every word.
    for (int b = 0; b < 4; ++b) {
      EXPECT_EQ(planes[static_cast<std::size_t>(b) * kWords + 7],
                src[4 * 7 + static_cast<std::size_t>(b)]);
    }
    convert::byte_plane_merge(planes.data(), kWords, back.data(), threading);
    EXPECT_EQ(src, back);
  }
}

// --- lossless codec -------------------------------------------------------

Tensor tensor_from(const std::vector<float>& values) {
  Tensor t = Tensor::empty(Shape{static_cast<std::int64_t>(values.size())});
  std::memcpy(t.data(), values.data(), values.size() * sizeof(float));
  return t;
}

TEST(SlotCodecTest, LosslessRoundTripsBitExactly) {
  std::mt19937 rng(21);
  std::normal_distribution<float> dist(0.0F, 2.0F);
  std::uniform_real_distribution<float> coin(0.0F, 1.0F);
  for (const int n : {1, 2, 3, 64, 1000, 4097}) {
    for (const double zero_frac : {0.0, 0.5, 0.97}) {
      std::vector<float> values(static_cast<std::size_t>(n));
      for (float& v : values) {
        v = coin(rng) < zero_frac ? 0.0F : dist(rng);
      }
      const Tensor original = tensor_from(values);
      const std::vector<std::uint8_t> blob =
          codec::encode(SlotCodec::Lossless, original);
      EXPECT_LE(blob.size(),
                codec::max_encoded_bytes(SlotCodec::Lossless, n));
      const Tensor decoded = codec::decode(SlotCodec::Lossless, "test",
                                           original.shape(), blob.data(),
                                           blob.size());
      ASSERT_EQ(decoded.numel(), original.numel());
      EXPECT_EQ(std::memcmp(decoded.data(), original.data(),
                            original.bytes()),
                0)
          << "n=" << n << " zero_frac=" << zero_frac;
    }
  }
}

TEST(SlotCodecTest, LosslessRawFallbackBoundsIncompressibleInput) {
  // White-noise bytes defeat both the plane transform and the RLE; the raw
  // fallback must bound the blob at payload + 1 mode byte.
  std::mt19937 rng(5);
  std::uniform_int_distribution<std::uint32_t> word(0, 0xFFFFFFFFU);
  constexpr int kN = 4096;
  std::vector<float> values(kN);
  for (float& v : values) {
    const std::uint32_t bits = word(rng);
    std::memcpy(&v, &bits, sizeof(bits));
  }
  const Tensor original = tensor_from(values);
  const std::vector<std::uint8_t> blob =
      codec::encode(SlotCodec::Lossless, original);
  EXPECT_LE(blob.size(), original.bytes() + 1);
  const Tensor decoded = codec::decode(SlotCodec::Lossless, "test",
                                       original.shape(), blob.data(),
                                       blob.size());
  EXPECT_EQ(std::memcmp(decoded.data(), original.data(), original.bytes()),
            0);
}

TEST(SlotCodecTest, LosslessCompressesPostReluActivations) {
  // Post-ReLU activations are zero-heavy with clustered exponents: the
  // byte-plane RLE must land strictly below plaintext on them.
  std::mt19937 rng(31);
  std::normal_distribution<float> dist(0.0F, 1.0F);
  constexpr int kN = 1 << 16;
  std::vector<float> values(kN);
  for (float& v : values) v = std::max(dist(rng), 0.0F);  // ~50% exact zeros
  const Tensor original = tensor_from(values);
  const std::vector<std::uint8_t> blob =
      codec::encode(SlotCodec::Lossless, original);
  EXPECT_LT(blob.size(), original.bytes());
}

TEST(SlotCodecTest, DecodeRejectsStructuralCorruption) {
  std::mt19937 rng(41);
  std::normal_distribution<float> dist(0.0F, 1.0F);
  std::vector<float> values(512);
  for (float& v : values) v = std::max(dist(rng), 0.0F);
  const Tensor original = tensor_from(values);
  const Shape& shape = original.shape();
  std::vector<std::uint8_t> blob = codec::encode(SlotCodec::Lossless, original);

  // Truncation, mode-byte corruption, and stream-length corruption must all
  // throw a descriptive error rather than returning garbage activations.
  EXPECT_THROW(codec::decode(SlotCodec::Lossless, "test", shape, blob.data(),
                             blob.size() - 1),
               std::runtime_error);
  EXPECT_THROW(
      codec::decode(SlotCodec::Lossless, "test", shape, blob.data(), 0),
      std::runtime_error);
  {
    std::vector<std::uint8_t> bad = blob;
    bad[0] = 0x7F;  // unknown mode
    EXPECT_THROW(codec::decode(SlotCodec::Lossless, "test", shape, bad.data(),
                               bad.size()),
                 std::runtime_error);
  }
  if (blob[0] == 1 && blob.size() > 20) {
    std::vector<std::uint8_t> bad = blob;
    bad[1] = 0xFF;  // inflate plane 0's recorded stream length
    bad[2] = 0xFF;
    EXPECT_THROW(codec::decode(SlotCodec::Lossless, "test", shape, bad.data(),
                               bad.size()),
                 std::runtime_error);
  }
  // Fp16 codec: a blob whose size disagrees with the shape is structural
  // corruption too.
  const std::vector<std::uint8_t> half_blob =
      codec::encode(SlotCodec::Fp16, original);
  EXPECT_THROW(codec::decode(SlotCodec::Fp16, "test", shape,
                             half_blob.data(), half_blob.size() - 2),
               std::runtime_error);

  // Int8: every proper prefix is a size mismatch, and the header's scale
  // must be finite and positive.
  const std::vector<std::uint8_t> int8_blob =
      codec::encode(SlotCodec::Int8, original);
  ASSERT_EQ(int8_blob.size(), codec::max_encoded_bytes(SlotCodec::Int8, 512));
  for (std::size_t size = 0; size < int8_blob.size(); ++size) {
    EXPECT_THROW(
        codec::decode(SlotCodec::Int8, "test", shape, int8_blob.data(), size),
        std::runtime_error)
        << "prefix size " << size;
  }
  for (const float scale : {std::numeric_limits<float>::quiet_NaN(), 0.0F,
                            -0.5F, std::numeric_limits<float>::infinity()}) {
    std::vector<std::uint8_t> bad = int8_blob;
    std::memcpy(bad.data(), &scale, sizeof(scale));
    EXPECT_THROW(codec::decode(SlotCodec::Int8, "test", shape, bad.data(),
                               bad.size()),
                 std::runtime_error)
        << "scale " << scale;
  }
}

// --- lossy blob codecs ----------------------------------------------------

TEST(SlotCodecTest, Fp16BlobHalvesBytesAndMatchesScalarRoundTrip) {
  std::mt19937 rng(51);
  std::normal_distribution<float> dist(0.0F, 3.0F);
  std::vector<float> values(3333);
  for (float& v : values) v = dist(rng);
  const Tensor original = tensor_from(values);
  const std::vector<std::uint8_t> blob =
      codec::encode(SlotCodec::Fp16, original);
  EXPECT_EQ(blob.size(), original.bytes() / 2);
  const Tensor decoded = codec::decode(SlotCodec::Fp16, "test",
                                       original.shape(), blob.data(),
                                       blob.size());
  const float* in = original.data();
  const float* out = decoded.data();
  for (std::size_t i = 0; i < values.size(); ++i) {
    const float expected = half_to_float(float_to_half(in[i]));
    EXPECT_EQ(expected, out[i]) << i;
    // Round-to-nearest-even error bound: 2^-11 relative for normal halves.
    EXPECT_LE(std::abs(out[i] - in[i]),
              std::max(std::abs(in[i]) * 4.9e-4F, 6.2e-05F))
        << i;
  }
}

TEST(SlotCodecTest, Bf16BlobErrorBound) {
  std::mt19937 rng(52);
  std::normal_distribution<float> dist(0.0F, 100.0F);
  std::vector<float> values(2048);
  for (float& v : values) v = dist(rng);
  const Tensor original = tensor_from(values);
  const std::vector<std::uint8_t> blob =
      codec::encode(SlotCodec::Bf16, original);
  EXPECT_EQ(blob.size(), original.bytes() / 2);
  const Tensor decoded = codec::decode(SlotCodec::Bf16, "test",
                                       original.shape(), blob.data(),
                                       blob.size());
  const float* in = original.data();
  const float* out = decoded.data();
  for (std::size_t i = 0; i < values.size(); ++i) {
    // bf16 keeps 7 explicit mantissa bits: RNE error is <= 2^-8 relative.
    EXPECT_LE(std::abs(out[i] - in[i]), std::abs(in[i]) * 3.91e-3F) << i;
  }
}

// --- sparse bitmap codec --------------------------------------------------

std::vector<float> relu_like(int n, double density, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<float> dist(0.0F, 1.5F);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<float> values(static_cast<std::size_t>(n), 0.0F);
  for (float& v : values) {
    if (coin(rng) < density) {
      float x = dist(rng);
      if (x == 0.0F) x = 0.25F;
      v = x;
    }
  }
  return values;
}

TEST(SlotCodecTest, BitmapRoundTripsBitExactlyAcrossDensities) {
  for (const int n : {1, 2, 63, 64, 65, 512, 4097, 70001}) {
    for (const double density : {0.0, 0.01, 0.3, 0.5, 1.0}) {
      const Tensor original = tensor_from(
          relu_like(n, density, static_cast<std::uint32_t>(13 * n + 5)));
      const std::vector<std::uint8_t> blob =
          codec::encode(SlotCodec::Bitmap, original);
      EXPECT_LE(blob.size(), codec::max_encoded_bytes(SlotCodec::Bitmap, n))
          << "n=" << n << " d=" << density;
      const Tensor decoded =
          codec::decode(SlotCodec::Bitmap, "test", original.shape(),
                        blob.data(), blob.size());
      ASSERT_EQ(decoded.numel(), original.numel());
      EXPECT_EQ(std::memcmp(decoded.data(), original.data(),
                            original.bytes()),
                0)
          << "n=" << n << " d=" << density;
    }
  }
}

TEST(SlotCodecTest, BitmapCompressesSparseAndBoundsDense) {
  // 90%-sparse activations: bitmap + packed values is far below plaintext.
  const Tensor sparse = tensor_from(relu_like(1 << 16, 0.1, 71));
  const std::vector<std::uint8_t> sparse_blob =
      codec::encode(SlotCodec::Bitmap, sparse);
  EXPECT_LT(static_cast<double>(sparse_blob.size()),
            0.25 * static_cast<double>(sparse.bytes()));

  // Fully dense input defeats the bitmap; the raw fallback must bound the
  // blob at plaintext + 1 mode byte (the issue's fallback contract).
  const Tensor dense = tensor_from(relu_like(4096, 1.0, 72));
  const std::vector<std::uint8_t> dense_blob =
      codec::encode(SlotCodec::Bitmap, dense);
  EXPECT_LE(dense_blob.size(), dense.bytes() + 1);
  const Tensor back = codec::decode(SlotCodec::Bitmap, "test", dense.shape(),
                                    dense_blob.data(), dense_blob.size());
  EXPECT_EQ(std::memcmp(back.data(), dense.data(), dense.bytes()), 0);

  // BitmapFp16 dense fallback: half payload + 1 mode byte.
  const std::vector<std::uint8_t> half_blob =
      codec::encode(SlotCodec::BitmapFp16, dense);
  EXPECT_LE(half_blob.size(), dense.bytes() / 2 + 1);
}

TEST(SlotCodecTest, BitmapFp16MatchesScalarHalfRoundTripOnNonzeros) {
  const Tensor original = tensor_from(relu_like(3000, 0.25, 73));
  const std::vector<std::uint8_t> blob =
      codec::encode(SlotCodec::BitmapFp16, original);
  EXPECT_LT(blob.size(), original.bytes() / 2);
  const Tensor decoded =
      codec::decode(SlotCodec::BitmapFp16, "test", original.shape(),
                    blob.data(), blob.size());
  const float* in = original.data();
  const float* out = decoded.data();
  for (std::int64_t i = 0; i < original.numel(); ++i) {
    if (in[i] == 0.0F) {
      EXPECT_EQ(out[i], 0.0F) << i;
    } else {
      EXPECT_EQ(out[i], half_to_float(float_to_half(in[i]))) << i;
    }
  }
}

TEST(SlotCodecTest, BitmapRejectsEveryPrefixTruncation) {
  // Matching the RLE corpus: every proper prefix of a sparse-mode blob
  // must throw -- never crash, never return garbage activations.
  const Tensor original = tensor_from(relu_like(512, 0.3, 81));
  const Shape& shape = original.shape();
  for (const SlotCodec codec :
       {SlotCodec::Bitmap, SlotCodec::BitmapFp16}) {
    const std::vector<std::uint8_t> blob = codec::encode(codec, original);
    ASSERT_EQ(blob[0], 1U);  // sparse mode, the CRC-protected layout
    for (std::size_t size = 0; size < blob.size(); ++size) {
      EXPECT_THROW(
          codec::decode(codec, "test", shape, blob.data(), size),
          std::runtime_error)
          << "prefix size " << size;
    }
  }
}

TEST(SlotCodecTest, BitmapRejectsEverySingleBitFlip) {
  // CRC-32 over the mode byte + body catches every 1-bit error; flips
  // inside the stored CRC itself mismatch the recomputed value; mode-byte
  // flips land on an unknown mode or a dense blob of the wrong size.
  const Tensor original = tensor_from(relu_like(256, 0.3, 82));
  const Shape& shape = original.shape();
  for (const SlotCodec codec :
       {SlotCodec::Bitmap, SlotCodec::BitmapFp16}) {
    const std::vector<std::uint8_t> blob = codec::encode(codec, original);
    ASSERT_EQ(blob[0], 1U);
    for (std::size_t byte = 0; byte < blob.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::vector<std::uint8_t> bad = blob;
        bad[byte] = static_cast<std::uint8_t>(bad[byte] ^ (1U << bit));
        EXPECT_THROW(
            codec::decode(codec, "test", shape, bad.data(), bad.size()),
            std::runtime_error)
            << "byte " << byte << " bit " << bit;
      }
    }
  }
}

TEST(SlotCodecTest, BitmapRejectsShapeMismatchAndForgedCounts) {
  const Tensor original = tensor_from(relu_like(512, 0.3, 83));
  const std::vector<std::uint8_t> blob =
      codec::encode(SlotCodec::Bitmap, original);
  ASSERT_EQ(blob[0], 1U);
  // Decoding under a larger or smaller shape is structural corruption.
  EXPECT_THROW(codec::decode(SlotCodec::Bitmap, "test", Shape{511},
                             blob.data(), blob.size()),
               std::runtime_error);
  EXPECT_THROW(codec::decode(SlotCodec::Bitmap, "test", Shape{513},
                             blob.data(), blob.size()),
               std::runtime_error);
  // Empty blobs and unknown modes are rejected before any field reads.
  EXPECT_THROW(
      codec::decode(SlotCodec::Bitmap, "test", original.shape(), nullptr, 0),
      std::runtime_error);
  std::vector<std::uint8_t> bad = blob;
  bad[0] = 0x7F;
  EXPECT_THROW(codec::decode(SlotCodec::Bitmap, "test", original.shape(),
                             bad.data(), bad.size()),
               std::runtime_error);
}

// --- parsing / planning ratios --------------------------------------------

TEST(SlotCodecTest, ParseAndToStringRoundTrip) {
  for (const SlotCodec codec :
       {SlotCodec::None, SlotCodec::Lossless, SlotCodec::Fp16, SlotCodec::Bf16,
        SlotCodec::Bitmap, SlotCodec::BitmapFp16, SlotCodec::Int8}) {
    const auto parsed = parse_slot_codec(to_string(codec));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, codec);
  }
  EXPECT_FALSE(parse_slot_codec("zstd").has_value());
  EXPECT_FALSE(parse_slot_codec("").has_value());
}

TEST(SlotCodecTest, PlanningRatiosAreSound) {
  EXPECT_EQ(planning_bytes_ratio(SlotCodec::None), 1.0);
  EXPECT_EQ(planning_bytes_ratio(SlotCodec::Lossless), 1.0);  // conservative
  EXPECT_EQ(planning_bytes_ratio(SlotCodec::Fp16), 0.5);
  EXPECT_EQ(planning_bytes_ratio(SlotCodec::Bf16), 0.5);
  // Data-dependent codecs must plan at their worst-case fallback; the
  // achieved per-slot ratio feeds back through measured_slot_ratio.
  EXPECT_EQ(planning_bytes_ratio(SlotCodec::Bitmap), 1.0);
  EXPECT_EQ(planning_bytes_ratio(SlotCodec::BitmapFp16), 0.5);
  // Int8 plans at one byte per element; its 5-byte header is per slot.
  EXPECT_EQ(planning_bytes_ratio(SlotCodec::Int8), 0.25);
}

TEST(CompressedSlotStoreTest, BitmapStoreRecordsMeasuredPerSlotRatio) {
  CompressedSlotStore store(3, SlotCodec::Bitmap);
  // Unwritten slots default to the conservative plaintext ratio.
  EXPECT_DOUBLE_EQ(store.measured_slot_ratio(0), 1.0);

  const Tensor sparse = tensor_from(relu_like(1 << 14, 0.1, 91));
  store.put(1, sparse);
  const double sparse_ratio = store.measured_slot_ratio(1);
  EXPECT_GT(sparse_ratio, 0.0);
  EXPECT_LT(sparse_ratio, 0.3);  // ~90% zeros pack far below plaintext

  const Tensor dense = tensor_from(relu_like(1 << 14, 1.0, 92));
  store.put(2, dense);
  EXPECT_GT(store.measured_slot_ratio(2), 0.9);

  // Round trip stays bit-exact through the store.
  const Tensor back = store.get(1);
  EXPECT_EQ(std::memcmp(back.data(), sparse.data(), sparse.bytes()), 0);

  // Overwriting a slot re-measures it.
  store.put(1, dense);
  EXPECT_GT(store.measured_slot_ratio(1), 0.9);
}

// --- CompressedSlotStore --------------------------------------------------

TEST(CompressedSlotStoreTest, LosslessPutGetIsBitExactAndAccounted) {
  std::mt19937 rng(61);
  CompressedSlotStore store(4, SlotCodec::Lossless);
  Tensor a = Tensor::randn(Shape{2, 3, 8, 8}, rng);
  // ReLU-like sparsity so the encoded footprint is measurably smaller.
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    a.data()[i] = std::max(a.data()[i], 0.0F);
  }
  store.put(1, a);
  EXPECT_GT(store.resident_bytes(), 0U);
  EXPECT_LT(store.resident_bytes(), a.bytes());
  EXPECT_LT(store.measured_ratio(), 1.0);

  const Tensor back = store.get(1);
  EXPECT_EQ(std::memcmp(back.data(), a.data(), a.bytes()), 0);

  store.drop(1);
  EXPECT_EQ(store.resident_bytes(), 0U);
  EXPECT_THROW((void)store.get(1), std::logic_error);
  EXPECT_THROW((void)store.get(99), std::out_of_range);
}

TEST(CompressedSlotStoreTest, Fp16StoreHalvesResidentBytes) {
  std::mt19937 rng(62);
  CompressedSlotStore store(2, SlotCodec::Fp16);
  const Tensor a = Tensor::randn(Shape{64, 32}, rng);
  store.put(0, a);
  EXPECT_EQ(store.resident_bytes(), a.bytes() / 2);
  EXPECT_DOUBLE_EQ(store.measured_ratio(), 0.5);
  const Tensor back = store.get(0);
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_EQ(back.data()[i], half_to_float(float_to_half(a.data()[i])));
  }
}

TEST(CompressedSlotStoreTest, DropPoisonsEncodedBlobUnderGuards) {
  if (!guards::kEnabled) GTEST_SKIP() << "guards disabled in this build";
  std::mt19937 rng(63);
  CompressedSlotStore store(2, SlotCodec::Lossless);
  const Tensor a = Tensor::randn(Shape{256}, rng);
  store.put(0, a);
  const std::int64_t fills_before = guards::poison_fill_count();
  store.drop(0);
  // The release path must poison the encoded bytes (kPoisonByte fill) so no
  // stale plaintext-derived data survives the drop.
  EXPECT_GT(guards::poison_fill_count(), fills_before);
}

// --- QuantizedSlotStore: CompressedSlotStore with a lossy codec ----------

TEST(QuantizedSlotStore, HalfRoundTripAccuracy) {
  std::mt19937 rng(11);
  CompressedSlotStore store(2, SlotCodec::Fp16);
  Tensor t = Tensor::randn(Shape{128}, rng);
  store.put(0, t);
  EXPECT_EQ(store.resident_bytes(), 256U);  // 2 bytes/element, no header
  Tensor back = store.get(0);
  EXPECT_LT(Tensor::max_abs_diff(back, t), 5e-3F);
}

TEST(QuantizedSlotStore, Int8RoundTripAccuracy) {
  std::mt19937 rng(13);
  CompressedSlotStore store(2, SlotCodec::Int8);
  Tensor t = Tensor::uniform(Shape{256}, rng, -2.0F, 2.0F);
  store.put(0, t);
  EXPECT_EQ(store.resident_bytes(), 256U + 5U);  // 1 byte/element + header
  Tensor back = store.get(0);
  // max error = half a quantisation step = range/255/2.
  EXPECT_LT(Tensor::max_abs_diff(back, t), 4.0F / 255.0F);
}

TEST(QuantizedSlotStore, TrackerSeesEncodedBytes) {
  auto& tracker = MemoryTracker::instance();
  const std::size_t before = tracker.current_bytes();
  {
    CompressedSlotStore store(1, SlotCodec::Int8);
    Tensor t = Tensor::zeros(Shape{1024});
    store.put(0, t);
    t.reset();
    EXPECT_EQ(tracker.current_bytes(), before + 1024 + 5);  // encoded only
  }
  EXPECT_EQ(tracker.current_bytes(), before);
}

TEST(QuantizedSlotStore, DropFreesTrackedBytes) {
  auto& tracker = MemoryTracker::instance();
  const std::size_t before = tracker.current_bytes();
  CompressedSlotStore store(2, SlotCodec::Int8);
  {
    Tensor t = Tensor::zeros(Shape{512});
    store.put(0, t);
  }
  EXPECT_EQ(tracker.current_bytes(), before + 512 + 5);
  store.drop(0);
  EXPECT_EQ(tracker.current_bytes(), before);
  EXPECT_EQ(store.resident_bytes(), 0U);
  EXPECT_THROW((void)store.get(0), std::logic_error);
}

}  // namespace
}  // namespace edgetrain::core

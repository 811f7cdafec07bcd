// Quantization kernel tests: exhaustive bf16 conversion sweep, quantize /
// dequantize / requantize bulk-vs-scalar agreement, u8 im2col and max
// pooling against naive references, the s8 x u8 -> s32 GEMM against its
// triple-loop reference (exact -- integer accumulation), bf16 GEMM
// bit-equality with fp32 GEMM on pre-widened operands, and thread-count
// invariance of every quantized kernel (the determinism bar the fp32
// substrate already meets).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "tensor/convert.hpp"
#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"
#include "tensor/quant.hpp"
#include "tensor/tensor.hpp"

namespace edgetrain {
namespace {

// --------------------------------------------------------------------------
// bf16 conversions
// --------------------------------------------------------------------------

TEST(Bf16, ExhaustiveRoundTripAllPatterns) {
  // Every bf16 pattern decodes to a float that encodes back to itself --
  // except signaling NaNs, which are quieted (bit 6 of the mantissa set).
  for (std::uint32_t p = 0; p <= 0xFFFF; ++p) {
    const auto bits = static_cast<std::uint16_t>(p);
    const float decoded = convert::bf16_to_fp32_scalar(bits);
    const std::uint16_t re = convert::fp32_to_bf16_scalar(decoded);
    const bool is_nan = (bits & 0x7F80U) == 0x7F80U && (bits & 0x007FU) != 0;
    if (is_nan) {
      EXPECT_TRUE(std::isnan(decoded)) << "pattern " << p;
      EXPECT_EQ(re, static_cast<std::uint16_t>(bits | 0x0040U))
          << "pattern " << p;
    } else {
      EXPECT_EQ(re, bits) << "pattern " << p;
    }
  }
}

TEST(Bf16, RoundsToNearestEven) {
  // 1.0 = 0x3F80. The bf16 mantissa keeps 7 bits; 2^-8 is exactly half an
  // ulp at 1.0, so 1 + 2^-8 ties and must round to the even pattern.
  EXPECT_EQ(convert::fp32_to_bf16_scalar(1.0F + 0.00390625F), 0x3F80);
  // 1 + 3 * 2^-8 ties between 0x3F81 and 0x3F82: even wins.
  EXPECT_EQ(convert::fp32_to_bf16_scalar(1.0F + 3.0F * 0.00390625F), 0x3F82);
  // Just above the tie rounds up.
  EXPECT_EQ(convert::fp32_to_bf16_scalar(1.0F + 0.0040F), 0x3F81);
}

TEST(Bf16, BulkMatchesScalar) {
  std::mt19937 rng(7);
  std::normal_distribution<float> dist(0.0F, 100.0F);
  std::vector<float> src(4097);
  for (auto& v : src) v = dist(rng);
  src[0] = 0.0F;
  src[1] = -0.0F;
  src[2] = std::numeric_limits<float>::infinity();
  src[3] = std::numeric_limits<float>::quiet_NaN();
  src[4] = std::numeric_limits<float>::denorm_min();
  std::vector<std::uint16_t> bulk(src.size());
  convert::fp32_to_bf16(src.data(), bulk.data(),
                        static_cast<std::int64_t>(src.size()));
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(bulk[i], convert::fp32_to_bf16_scalar(src[i])) << "i=" << i;
  }
  std::vector<float> back(src.size());
  convert::bf16_to_fp32(bulk.data(), back.data(),
                        static_cast<std::int64_t>(src.size()));
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(back[i]),
              std::bit_cast<std::uint32_t>(
                  convert::bf16_to_fp32_scalar(bulk[i])))
        << "i=" << i;
  }
}

// --------------------------------------------------------------------------
// quantize / dequantize / requantize
// --------------------------------------------------------------------------

TEST(QuantizeU8, ZeroPointRepresentsExactZero) {
  for (const auto& [lo, hi] : {std::pair{-3.0F, 5.0F}, {0.0F, 9.0F},
                               {-7.0F, 0.0F}, {2.0F, 4.0F}, {-5.0F, -1.0F}}) {
    const quant::QuantParams p = quant::choose_u8_params(lo, hi);
    EXPECT_GE(p.zero_point, 0);
    EXPECT_LE(p.zero_point, 255);
    EXPECT_EQ(quant::dequantize_u8_scalar(
                  static_cast<std::uint8_t>(p.zero_point), p),
              0.0F);
  }
}

TEST(QuantizeU8, RoundTripWithinHalfScale) {
  const quant::QuantParams p = quant::choose_u8_params(-4.0F, 4.0F);
  std::mt19937 rng(11);
  std::uniform_real_distribution<float> dist(-4.0F, 4.0F);
  for (int i = 0; i < 1000; ++i) {
    const float x = dist(rng);
    const float back =
        quant::dequantize_u8_scalar(quant::quantize_u8_scalar(x, p), p);
    EXPECT_LE(std::abs(back - x), p.scale * 0.5F + 1e-6F) << "x=" << x;
  }
}

TEST(QuantizeU8, BulkMatchesScalar) {
  const quant::QuantParams p = quant::choose_u8_params(-2.0F, 6.0F);
  std::mt19937 rng(13);
  std::uniform_real_distribution<float> dist(-3.0F, 7.0F);  // incl. clamps
  std::vector<float> src(2049);
  for (auto& v : src) v = dist(rng);
  std::vector<std::uint8_t> bulk(src.size());
  quant::quantize_u8(src.data(), bulk.data(),
                     static_cast<std::int64_t>(src.size()), p);
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(bulk[i], quant::quantize_u8_scalar(src[i], p)) << "i=" << i;
  }
  std::vector<float> deq(src.size());
  quant::dequantize_u8(bulk.data(), deq.data(),
                       static_cast<std::int64_t>(src.size()), p);
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(deq[i], quant::dequantize_u8_scalar(bulk[i], p)) << "i=" << i;
  }
}

TEST(QuantizeS8, BulkMatchesScalarAndClamps) {
  const float scale = quant::choose_s8_scale(3.0F);
  std::mt19937 rng(17);
  std::uniform_real_distribution<float> dist(-4.0F, 4.0F);  // past the clamp
  std::vector<float> src(1025);
  for (auto& v : src) v = dist(rng);
  std::vector<std::int8_t> bulk(src.size());
  quant::quantize_s8(src.data(), bulk.data(),
                     static_cast<std::int64_t>(src.size()), scale);
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(bulk[i], quant::quantize_s8_scalar(src[i], scale)) << "i=" << i;
    EXPECT_GE(bulk[i], -127);
    EXPECT_LE(bulk[i], 127);
  }
}

TEST(Requantize, BulkMatchesScalarPerRow) {
  const std::int64_t rows = 5;
  const std::int64_t cols = 257;
  std::mt19937 rng(19);
  std::uniform_int_distribution<std::int32_t> acc_dist(-2000000, 2000000);
  std::vector<std::int32_t> acc(static_cast<std::size_t>(rows * cols));
  for (auto& v : acc) v = acc_dist(rng);
  std::vector<float> mult = {1e-4F, 5e-5F, 2e-4F, 1e-3F, 7e-5F};
  std::vector<float> bias = {-0.5F, 0.25F, 0.0F, 3.0F, -2.0F};
  for (const bool relu : {false, true}) {
    std::vector<std::uint8_t> bulk(acc.size());
    quant::requantize_s32_u8(acc.data(), bulk.data(), rows, cols, mult.data(),
                             bias.data(), /*zero_point=*/37, relu);
    for (std::int64_t r = 0; r < rows; ++r) {
      for (std::int64_t j = 0; j < cols; ++j) {
        const auto idx = static_cast<std::size_t>(r * cols + j);
        EXPECT_EQ(bulk[idx],
                  quant::requantize_scalar(
                      acc[idx], mult[static_cast<std::size_t>(r)],
                      bias[static_cast<std::size_t>(r)], 37, relu))
            << "r=" << r << " j=" << j << " relu=" << relu;
      }
    }
  }
}

// --------------------------------------------------------------------------
// u8 im2col + max pooling vs naive references
// --------------------------------------------------------------------------

void im2col_u8_naive(const std::uint8_t* x, std::int64_t channels,
                     std::int64_t h, std::int64_t w, std::int64_t kh,
                     std::int64_t kw, const ops::ConvParams& p,
                     std::uint8_t pad_value, std::uint8_t* col) {
  const std::int64_t ho = ops::conv_out_size(h, kh, p.stride, p.pad);
  const std::int64_t wo = ops::conv_out_size(w, kw, p.stride, p.pad);
  for (std::int64_t c = 0; c < channels; ++c) {
    for (std::int64_t ki = 0; ki < kh; ++ki) {
      for (std::int64_t kj = 0; kj < kw; ++kj) {
        const std::int64_t row = (c * kh + ki) * kw + kj;
        for (std::int64_t oy = 0; oy < ho; ++oy) {
          for (std::int64_t ox = 0; ox < wo; ++ox) {
            const std::int64_t iy = oy * p.stride - p.pad + ki;
            const std::int64_t ix = ox * p.stride - p.pad + kj;
            const bool in = iy >= 0 && iy < h && ix >= 0 && ix < w;
            col[row * ho * wo + oy * wo + ox] =
                in ? x[(c * h + iy) * w + ix] : pad_value;
          }
        }
      }
    }
  }
}

TEST(Im2colU8, MatchesNaiveReference) {
  struct Case {
    std::int64_t c, h, w, kh, kw;
    ops::ConvParams p;
  };
  const Case cases[] = {
      {1, 20, 20, 3, 3, {1, 1}},   // patch CNN stage 1
      {8, 10, 10, 3, 3, {1, 1}},   // patch CNN stage 2
      {2, 9, 7, 3, 3, {2, 1}},     // strided
      {3, 8, 8, 5, 5, {1, 2}},     // wide kernel, wide pad
      {1, 6, 40, 1, 3, {1, 0}},    // no pad, wide row (memcpy path)
      {2, 5, 5, 5, 5, {1, 0}},     // kernel == image
  };
  std::mt19937 rng(23);
  std::uniform_int_distribution<int> byte(0, 255);
  for (const Case& t : cases) {
    const std::int64_t ho = ops::conv_out_size(t.h, t.kh, t.p.stride, t.p.pad);
    const std::int64_t wo = ops::conv_out_size(t.w, t.kw, t.p.stride, t.p.pad);
    ASSERT_GT(ho, 0);
    ASSERT_GT(wo, 0);
    std::vector<std::uint8_t> x(static_cast<std::size_t>(t.c * t.h * t.w));
    for (auto& v : x) v = static_cast<std::uint8_t>(byte(rng));
    const auto cols = static_cast<std::size_t>(t.c * t.kh * t.kw * ho * wo);
    std::vector<std::uint8_t> fast(cols, 0xAA);
    std::vector<std::uint8_t> naive(cols, 0x55);
    quant::im2col_u8(x.data(), t.c, t.h, t.w, t.kh, t.kw, t.p, 42,
                     fast.data());
    im2col_u8_naive(x.data(), t.c, t.h, t.w, t.kh, t.kw, t.p, 42,
                    naive.data());
    EXPECT_EQ(fast, naive) << "c=" << t.c << " h=" << t.h << " w=" << t.w
                           << " k=" << t.kh << "x" << t.kw
                           << " s=" << t.p.stride << " p=" << t.p.pad;
  }
}

TEST(MaxpoolU8, MatchesNaiveReference) {
  struct Case {
    std::int64_t c, h, w, k;
    ops::ConvParams p;
  };
  const Case cases[] = {
      {8, 20, 20, 2, {2, 0}},  // the 2x2/stride-2 fast path
      {16, 10, 10, 2, {2, 0}},
      {3, 9, 11, 2, {2, 0}},   // odd extents through the fast path
      {2, 9, 9, 3, {2, 1}},    // padded, generic path
      {1, 7, 7, 3, {1, 1}},
  };
  std::mt19937 rng(29);
  std::uniform_int_distribution<int> byte(0, 255);
  for (const Case& t : cases) {
    const std::int64_t ho = ops::conv_out_size(t.h, t.k, t.p.stride, t.p.pad);
    const std::int64_t wo = ops::conv_out_size(t.w, t.k, t.p.stride, t.p.pad);
    std::vector<std::uint8_t> x(static_cast<std::size_t>(t.c * t.h * t.w));
    for (auto& v : x) v = static_cast<std::uint8_t>(byte(rng));
    std::vector<std::uint8_t> got(static_cast<std::size_t>(t.c * ho * wo));
    quant::maxpool2d_u8(x.data(), t.c, t.h, t.w, t.k, t.p, 7, got.data());
    for (std::int64_t c = 0; c < t.c; ++c) {
      for (std::int64_t oy = 0; oy < ho; ++oy) {
        for (std::int64_t ox = 0; ox < wo; ++ox) {
          std::uint8_t best = 7;  // pad_value
          for (std::int64_t ky = 0; ky < t.k; ++ky) {
            for (std::int64_t kx = 0; kx < t.k; ++kx) {
              const std::int64_t iy = oy * t.p.stride - t.p.pad + ky;
              const std::int64_t ix = ox * t.p.stride - t.p.pad + kx;
              if (iy < 0 || iy >= t.h || ix < 0 || ix >= t.w) continue;
              best = std::max(best, x[static_cast<std::size_t>(
                                        (c * t.h + iy) * t.w + ix)]);
            }
          }
          EXPECT_EQ(got[static_cast<std::size_t>((c * ho + oy) * wo + ox)],
                    best)
              << "c=" << c << " oy=" << oy << " ox=" << ox << " k=" << t.k;
        }
      }
    }
  }
}

// --------------------------------------------------------------------------
// int8 GEMM
// --------------------------------------------------------------------------

struct GemmShape {
  std::int64_t m, n, k;
};

TEST(GemmS8U8, MatchesReferenceExactly) {
  // Shapes cross every blocking edge: partial kMR/kNR tiles, odd k (the
  // vpmaddwd path pads the last s16 pair), k crossing the kKC panel, n
  // crossing kNC, and the degenerate 1-sized extents.
  const GemmShape shapes[] = {{1, 1, 1},    {6, 16, 2},  {8, 400, 9},
                              {16, 100, 72}, {7, 17, 33}, {5, 300, 257},
                              {13, 37, 64},  {2, 2, 511}, {64, 64, 64}};
  for (const std::int32_t zp : {0, 7, 128, 255}) {
    std::mt19937 rng(static_cast<std::uint32_t>(101 + zp));
    std::uniform_int_distribution<int> s8(-127, 127);
    std::uniform_int_distribution<int> u8(0, 255);
    for (const GemmShape& s : shapes) {
      std::vector<std::int8_t> a(static_cast<std::size_t>(s.m * s.k));
      std::vector<std::uint8_t> b(static_cast<std::size_t>(s.k * s.n));
      for (auto& v : a) v = static_cast<std::int8_t>(s8(rng));
      for (auto& v : b) v = static_cast<std::uint8_t>(u8(rng));
      std::vector<std::int32_t> got(static_cast<std::size_t>(s.m * s.n), -1);
      std::vector<std::int32_t> ref(static_cast<std::size_t>(s.m * s.n), -2);
      quant::gemm_s8u8(s.m, s.n, s.k, a.data(), b.data(), zp, got.data());
      quant::gemm_s8u8_ref(s.m, s.n, s.k, a.data(), b.data(), zp, ref.data());
      EXPECT_EQ(got, ref) << "m=" << s.m << " n=" << s.n << " k=" << s.k
                          << " zp=" << zp;
    }
  }
}

TEST(GemmS8U8, BitIdenticalAcrossThreadCounts) {
  const std::int64_t m = 30;
  const std::int64_t n = 300;
  const std::int64_t k = 129;
  std::mt19937 rng(31);
  std::uniform_int_distribution<int> s8(-127, 127);
  std::uniform_int_distribution<int> u8(0, 255);
  std::vector<std::int8_t> a(static_cast<std::size_t>(m * k));
  std::vector<std::uint8_t> b(static_cast<std::size_t>(k * n));
  for (auto& v : a) v = static_cast<std::int8_t>(s8(rng));
  for (auto& v : b) v = static_cast<std::uint8_t>(u8(rng));
  std::vector<std::int32_t> baseline(static_cast<std::size_t>(m * n));
  ThreadPool::set_global_threads(1);
  quant::gemm_s8u8(m, n, k, a.data(), b.data(), 100, baseline.data());
  for (const unsigned threads : {2U, 3U, 8U}) {
    ThreadPool::set_global_threads(threads);
    std::vector<std::int32_t> got(static_cast<std::size_t>(m * n));
    quant::gemm_s8u8(m, n, k, a.data(), b.data(), 100, got.data());
    EXPECT_EQ(got, baseline) << "threads=" << threads;
  }
  ThreadPool::set_global_threads(0);
}

TEST(GemmS8U8, RejectsOverflowableK) {
  std::vector<std::int8_t> a(1);
  std::vector<std::uint8_t> b(1);
  std::vector<std::int32_t> c(1);
  EXPECT_THROW(
      quant::gemm_s8u8(1, 1, 65537, a.data(), b.data(), 0, c.data()),
      std::invalid_argument);
}

// --------------------------------------------------------------------------
// bf16 GEMM and the thread-local precision mode
// --------------------------------------------------------------------------

TEST(GemmBf16, BitIdenticalToFp32OnWidenedOperands) {
  const GemmShape shapes[] = {{5, 7, 3}, {33, 65, 17}, {64, 48, 96}};
  std::mt19937 rng(37);
  for (const GemmShape& s : shapes) {
    for (int combo = 0; combo < 4; ++combo) {
      const bool ta = (combo & 2) != 0;
      const bool tb = (combo & 1) != 0;
      Tensor a = Tensor::randn(ta ? Shape{s.k, s.m} : Shape{s.m, s.k}, rng);
      Tensor b = Tensor::randn(tb ? Shape{s.n, s.k} : Shape{s.k, s.n}, rng);
      const std::int64_t an = a.shape()[0] * a.shape()[1];
      const std::int64_t bn = b.shape()[0] * b.shape()[1];
      std::vector<std::uint16_t> a16(static_cast<std::size_t>(an));
      std::vector<std::uint16_t> b16(static_cast<std::size_t>(bn));
      convert::fp32_to_bf16(a.data(), a16.data(), an);
      convert::fp32_to_bf16(b.data(), b16.data(), bn);
      // Pre-widened copies run through the plain fp32 gemm.
      Tensor aw = Tensor::zeros(a.shape());
      Tensor bw = Tensor::zeros(b.shape());
      convert::bf16_to_fp32(a16.data(), aw.data(), an);
      convert::bf16_to_fp32(b16.data(), bw.data(), bn);
      Tensor c_bf = Tensor::full(Shape{s.m, s.n}, 0.5F);
      Tensor c_fp = Tensor::full(Shape{s.m, s.n}, 0.5F);
      ops::gemm_bf16(ta, tb, s.m, s.n, s.k, 1.25F, a16.data(), b16.data(),
                     0.75F, c_bf.data());
      ops::gemm(ta, tb, s.m, s.n, s.k, 1.25F, aw.data(), bw.data(), 0.75F,
                c_fp.data());
      EXPECT_EQ(std::memcmp(c_bf.data(), c_fp.data(),
                            static_cast<std::size_t>(s.m * s.n) *
                                sizeof(float)),
                0)
          << "m=" << s.m << " n=" << s.n << " k=" << s.k << " ta=" << ta
          << " tb=" << tb;
    }
  }
}

TEST(GemmPrecisionMode, ScopedBf16ReroutesGemmAndRestores) {
  const std::int64_t n = 33;
  std::mt19937 rng(41);
  Tensor a = Tensor::randn(Shape{n, n}, rng);
  Tensor b = Tensor::randn(Shape{n, n}, rng);
  std::vector<std::uint16_t> a16(static_cast<std::size_t>(n * n));
  std::vector<std::uint16_t> b16(static_cast<std::size_t>(n * n));
  convert::fp32_to_bf16(a.data(), a16.data(), n * n);
  convert::fp32_to_bf16(b.data(), b16.data(), n * n);
  Tensor c_mode = Tensor::zeros(Shape{n, n});
  Tensor c_bf = Tensor::zeros(Shape{n, n});
  ASSERT_EQ(ops::gemm_precision(), ops::GemmPrecision::Fp32);
  {
    const ops::ScopedGemmPrecision scope(ops::GemmPrecision::Bf16);
    ASSERT_EQ(ops::gemm_precision(), ops::GemmPrecision::Bf16);
    ops::gemm(false, false, n, n, n, 1.0F, a.data(), b.data(), 0.0F,
              c_mode.data());
  }
  EXPECT_EQ(ops::gemm_precision(), ops::GemmPrecision::Fp32);
  ops::gemm_bf16(false, false, n, n, n, 1.0F, a16.data(), b16.data(), 0.0F,
                 c_bf.data());
  EXPECT_EQ(std::memcmp(c_mode.data(), c_bf.data(),
                        static_cast<std::size_t>(n * n) * sizeof(float)),
            0);
  // And bf16 must actually differ from full fp32 on generic operands --
  // otherwise the mode is silently a no-op.
  Tensor c_fp = Tensor::zeros(Shape{n, n});
  ops::gemm(false, false, n, n, n, 1.0F, a.data(), b.data(), 0.0F,
            c_fp.data());
  EXPECT_NE(std::memcmp(c_mode.data(), c_fp.data(),
                        static_cast<std::size_t>(n * n) * sizeof(float)),
            0);
}

TEST(GemmBf16, BitIdenticalAcrossThreadCounts) {
  const std::int64_t n = 96;
  std::mt19937 rng(43);
  Tensor a = Tensor::randn(Shape{n, n}, rng);
  Tensor b = Tensor::randn(Shape{n, n}, rng);
  std::vector<std::uint16_t> a16(static_cast<std::size_t>(n * n));
  std::vector<std::uint16_t> b16(static_cast<std::size_t>(n * n));
  convert::fp32_to_bf16(a.data(), a16.data(), n * n);
  convert::fp32_to_bf16(b.data(), b16.data(), n * n);
  Tensor baseline = Tensor::zeros(Shape{n, n});
  ThreadPool::set_global_threads(1);
  ops::gemm_bf16(false, false, n, n, n, 1.0F, a16.data(), b16.data(), 0.0F,
                 baseline.data());
  for (const unsigned threads : {2U, 5U}) {
    ThreadPool::set_global_threads(threads);
    Tensor got = Tensor::zeros(Shape{n, n});
    ops::gemm_bf16(false, false, n, n, n, 1.0F, a16.data(), b16.data(), 0.0F,
                   got.data());
    EXPECT_EQ(std::memcmp(got.data(), baseline.data(),
                          static_cast<std::size_t>(n * n) * sizeof(float)),
              0)
        << "threads=" << threads;
  }
  ThreadPool::set_global_threads(0);
}

}  // namespace
}  // namespace edgetrain

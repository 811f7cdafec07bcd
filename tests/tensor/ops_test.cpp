#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <type_traits>
#include <vector>

namespace edgetrain::ops {
namespace {

TEST(ConvOutSize, MatchesFormula) {
  EXPECT_EQ(conv_out_size(224, 7, 2, 3), 112);
  EXPECT_EQ(conv_out_size(112, 3, 2, 1), 56);
  EXPECT_EQ(conv_out_size(8, 3, 1, 1), 8);
  EXPECT_EQ(conv_out_size(5, 3, 1, 0), 3);
  EXPECT_EQ(conv_out_size(5, 2, 2, 0), 2);
}

// Naive triple-loop GEMM reference.
void naive_gemm(bool ta, bool tb, std::int64_t m, std::int64_t n,
                std::int64_t k, const float* a, const float* b, float* c) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        const float av = ta ? a[p * m + i] : a[i * k + p];
        const float bv = tb ? b[j * k + p] : b[p * n + j];
        acc += static_cast<double>(av) * bv;
      }
      c[i * n + j] = static_cast<float>(acc);
    }
  }
}

class GemmTest : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(GemmTest, MatchesNaiveReference) {
  const auto [ta, tb] = GetParam();
  std::mt19937 rng(11);
  const std::int64_t m = 7;
  const std::int64_t n = 9;
  const std::int64_t k = 13;
  Tensor a = Tensor::randn(ta ? Shape{k, m} : Shape{m, k}, rng);
  Tensor b = Tensor::randn(tb ? Shape{n, k} : Shape{k, n}, rng);
  Tensor c = Tensor::zeros(Shape{m, n});
  Tensor ref = Tensor::zeros(Shape{m, n});
  gemm(ta, tb, m, n, k, 1.0F, a.data(), b.data(), 0.0F, c.data());
  naive_gemm(ta, tb, m, n, k, a.data(), b.data(), ref.data());
  EXPECT_LT(Tensor::max_abs_diff(c, ref), 1e-4F);
}

INSTANTIATE_TEST_SUITE_P(AllTransposes, GemmTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

TEST(Gemm, AlphaBetaSemantics) {
  std::mt19937 rng(3);
  Tensor a = Tensor::randn(Shape{4, 5}, rng);
  Tensor b = Tensor::randn(Shape{5, 6}, rng);
  Tensor c = Tensor::full(Shape{4, 6}, 1.0F);
  Tensor expect = Tensor::zeros(Shape{4, 6});
  naive_gemm(false, false, 4, 6, 5, a.data(), b.data(), expect.data());
  // c = 2*A*B + 3*c
  gemm(false, false, 4, 6, 5, 2.0F, a.data(), b.data(), 3.0F, c.data());
  for (std::int64_t i = 0; i < c.numel(); ++i) {
    EXPECT_NEAR(c.at(i), 2.0F * expect.at(i) + 3.0F, 1e-4F);
  }
}

// Naive convolution reference.
Tensor naive_conv(const Tensor& x, const Tensor& w, const Tensor& bias,
                  const ConvParams& p) {
  const std::int64_t n = x.shape()[0];
  const std::int64_t cin = x.shape()[1];
  const std::int64_t h = x.shape()[2];
  const std::int64_t wd = x.shape()[3];
  const std::int64_t cout = w.shape()[0];
  const std::int64_t kh = w.shape()[2];
  const std::int64_t kw = w.shape()[3];
  const std::int64_t ho = conv_out_size(h, kh, p.stride, p.pad);
  const std::int64_t wo = conv_out_size(wd, kw, p.stride, p.pad);
  Tensor y = Tensor::zeros(Shape{n, cout, ho, wo});
  for (std::int64_t img = 0; img < n; ++img) {
    for (std::int64_t co = 0; co < cout; ++co) {
      for (std::int64_t oy = 0; oy < ho; ++oy) {
        for (std::int64_t ox = 0; ox < wo; ++ox) {
          double acc = bias.defined() ? bias.at(co) : 0.0;
          for (std::int64_t ci = 0; ci < cin; ++ci) {
            for (std::int64_t ky = 0; ky < kh; ++ky) {
              for (std::int64_t kx = 0; kx < kw; ++kx) {
                const std::int64_t iy = oy * p.stride - p.pad + ky;
                const std::int64_t ix = ox * p.stride - p.pad + kx;
                if (iy < 0 || iy >= h || ix < 0 || ix >= wd) continue;
                acc += static_cast<double>(
                           x.data()[((img * cin + ci) * h + iy) * wd + ix]) *
                       w.data()[((co * cin + ci) * kh + ky) * kw + kx];
              }
            }
          }
          y.data()[((img * cout + co) * ho + oy) * wo + ox] =
              static_cast<float>(acc);
        }
      }
    }
  }
  return y;
}

// Padding-free: the discovered test names print the parameter's raw bytes,
// and padding bytes are uninitialised, so the tail after `bias` is an
// explicit zero field.
struct ConvCase {
  ConvCase(std::int64_t s, std::int64_t p, std::int64_t k, bool b)
      : stride(s), pad(p), kernel(k), bias(b) {}
  std::int64_t stride;
  std::int64_t pad;
  std::int64_t kernel;
  bool bias;
  std::array<std::uint8_t, 7> zero_pad{};
};
static_assert(std::has_unique_object_representations_v<ConvCase>);

class ConvTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvTest, ForwardMatchesNaive) {
  const ConvCase c = GetParam();
  std::mt19937 rng(7);
  Tensor x = Tensor::randn(Shape{2, 3, 9, 9}, rng);
  Tensor w = Tensor::randn(Shape{4, 3, c.kernel, c.kernel}, rng);
  Tensor b = c.bias ? Tensor::randn(Shape{4}, rng) : Tensor{};
  const ConvParams p{c.stride, c.pad};
  Tensor got = conv2d_forward(x, w, b, p);
  Tensor ref = naive_conv(x, w, b, p);
  EXPECT_EQ(got.shape(), ref.shape());
  EXPECT_LT(Tensor::max_abs_diff(got, ref), 1e-4F);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ConvTest,
    ::testing::Values(ConvCase{1, 0, 3, false}, ConvCase{1, 1, 3, true},
                      ConvCase{2, 1, 3, false}, ConvCase{2, 3, 7, true},
                      ConvCase{1, 0, 1, false}, ConvCase{2, 0, 1, false}));

TEST(Conv, BackwardNumericGradient) {
  std::mt19937 rng(19);
  Tensor x = Tensor::randn(Shape{1, 2, 6, 6}, rng);
  Tensor w = Tensor::randn(Shape{3, 2, 3, 3}, rng);
  Tensor b = Tensor::randn(Shape{3}, rng);
  const ConvParams p{1, 1};
  Tensor cot = Tensor::randn(Shape{1, 3, 6, 6}, rng);

  auto loss = [&](const Tensor& xx, const Tensor& ww, const Tensor& bb) {
    Tensor y = conv2d_forward(xx, ww, bb, p);
    double acc = 0.0;
    for (std::int64_t i = 0; i < y.numel(); ++i) {
      acc += static_cast<double>(y.at(i)) * cot.at(i);
    }
    return acc;
  };

  Conv2dGrads grads = conv2d_backward(cot, x, w, p, true);
  const float eps = 1e-2F;
  // Spot-check a handful of coordinates in each gradient.
  for (const std::int64_t idx : {0L, 5L, 17L, 40L}) {
    Tensor xp = x.clone();
    xp.at(idx) += eps;
    Tensor xm = x.clone();
    xm.at(idx) -= eps;
    const double numeric = (loss(xp, w, b) - loss(xm, w, b)) / (2.0 * eps);
    EXPECT_NEAR(grads.grad_x.at(idx), numeric, 2e-2);
  }
  for (const std::int64_t idx : {0L, 9L, 31L}) {
    Tensor wp = w.clone();
    wp.at(idx) += eps;
    Tensor wm = w.clone();
    wm.at(idx) -= eps;
    const double numeric = (loss(x, wp, b) - loss(x, wm, b)) / (2.0 * eps);
    EXPECT_NEAR(grads.grad_w.at(idx), numeric, 2e-2);
  }
  for (const std::int64_t idx : {0L, 2L}) {
    Tensor bp = b.clone();
    bp.at(idx) += eps;
    Tensor bm = b.clone();
    bm.at(idx) -= eps;
    const double numeric = (loss(x, w, bp) - loss(x, w, bm)) / (2.0 * eps);
    EXPECT_NEAR(grads.grad_b.at(idx), numeric, 2e-2);
  }
}

TEST(Im2Col, RoundTripAdjoint) {
  // <im2col(x), c> == <x, col2im(c)> : adjointness of the lowering.
  std::mt19937 rng(23);
  const std::int64_t ch = 2;
  const std::int64_t h = 5;
  const std::int64_t w = 5;
  const std::int64_t k = 3;
  const ConvParams p{2, 1};
  const std::int64_t ho = conv_out_size(h, k, p.stride, p.pad);
  const std::int64_t wo = conv_out_size(w, k, p.stride, p.pad);
  Tensor x = Tensor::randn(Shape{ch, h, w}, rng);
  Tensor c = Tensor::randn(Shape{ch * k * k, ho * wo}, rng);
  Tensor col = Tensor::zeros(Shape{ch * k * k, ho * wo});
  im2col(x.data(), ch, h, w, k, k, p, col.data());
  Tensor xadj = Tensor::zeros(Shape{ch, h, w});
  col2im(c.data(), ch, h, w, k, k, p, xadj.data());
  double lhs = 0.0;
  for (std::int64_t i = 0; i < col.numel(); ++i) {
    lhs += static_cast<double>(col.at(i)) * c.at(i);
  }
  double rhs = 0.0;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    rhs += static_cast<double>(x.at(i)) * xadj.at(i);
  }
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Relu, ForwardAndBackward) {
  Tensor x = Tensor::from_values({-1.0F, 0.0F, 2.0F});
  Tensor y = relu_forward(x);
  EXPECT_FLOAT_EQ(y.at(0), 0.0F);
  EXPECT_FLOAT_EQ(y.at(1), 0.0F);
  EXPECT_FLOAT_EQ(y.at(2), 2.0F);
  Tensor g = Tensor::from_values({5.0F, 5.0F, 5.0F});
  Tensor gx = relu_backward(g, y);
  EXPECT_FLOAT_EQ(gx.at(0), 0.0F);
  EXPECT_FLOAT_EQ(gx.at(1), 0.0F);
  EXPECT_FLOAT_EQ(gx.at(2), 5.0F);
}

TEST(MaxPool, ForwardPicksMaxAndBackwardRoutes) {
  Tensor x = Tensor::zeros(Shape{1, 1, 4, 4});
  x.data()[5] = 3.0F;   // (1,1)
  x.data()[10] = 7.0F;  // (2,2)
  MaxPoolResult r = maxpool2d_forward(x, 2, ConvParams{2, 0});
  EXPECT_EQ(r.y.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(r.y.data()[0], 3.0F);
  EXPECT_FLOAT_EQ(r.y.data()[3], 7.0F);

  Tensor gy = Tensor::full(Shape{1, 1, 2, 2}, 1.0F);
  Tensor gx = maxpool2d_backward(gy, r.argmax, x.shape());
  EXPECT_FLOAT_EQ(gx.data()[5], 1.0F);
  EXPECT_FLOAT_EQ(gx.data()[10], 1.0F);
  float total = 0.0F;
  for (std::int64_t i = 0; i < gx.numel(); ++i) total += gx.at(i);
  EXPECT_FLOAT_EQ(total, 4.0F);  // all gradient mass routed
}

/// Special values for the bitwise activation/pooling checks.
const std::array<float, 10>& special_values() {
  static const std::array<float, 10> kValues = {
      0.0F,  -0.0F, 1.0F, -1.0F, std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN(),
      -std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::denorm_min(), 2.5F};
  return kValues;
}

/// Fills x with a mix of special values and a few small integers, so that
/// ties, signed zeros, infinities and NaNs all occur often.
void fill_special(Tensor& x, std::mt19937& rng, bool finite_only) {
  std::uniform_int_distribution<int> pick(0, 13);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const int v = pick(rng);
    float value = static_cast<float>(v - 11);  // -1, 0, 1, 2 for v >= 10
    if (v < 10) value = special_values()[static_cast<std::size_t>(v)];
    if (finite_only && !std::isfinite(value)) value = 0.5F;
    x.data()[i] = value;
  }
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST(Relu, BackwardMatchesMaskedLoopBitForBit) {
  // More than one 1<<16 parallel grain, and a length no vector width
  // divides. The result must equal the branchy loop's bits: gy where
  // y > 0, +0.0f where y <= 0 or y is NaN.
  std::mt19937 rng(11);
  Tensor y = Tensor::empty(Shape{70001});
  Tensor gy = Tensor::empty(Shape{70001});
  fill_special(y, rng, false);
  fill_special(gy, rng, false);
  Tensor want = Tensor::empty(y.shape());
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    want.data()[i] = y.data()[i] > 0.0F ? gy.data()[i] : 0.0F;
  }
  EXPECT_TRUE(same_bits(relu_backward(gy, y), want));
}

/// Today's per-window scan, kept here as the reference: strict > in
/// (ki, kj) order from -inf, argmax starting at element 0.
MaxPoolResult reference_maxpool(const Tensor& x, std::int64_t k,
                                const ConvParams& p) {
  const std::int64_t planes = x.shape()[0] * x.shape()[1];
  const std::int64_t h = x.shape()[2];
  const std::int64_t w = x.shape()[3];
  const std::int64_t ho = conv_out_size(h, k, p.stride, p.pad);
  const std::int64_t wo = conv_out_size(w, k, p.stride, p.pad);
  MaxPoolResult r;
  r.y = Tensor::empty(Shape{x.shape()[0], x.shape()[1], ho, wo});
  r.argmax.assign(static_cast<std::size_t>(planes * ho * wo), 0);
  for (std::int64_t pl = 0; pl < planes; ++pl) {
    const float* plane = x.data() + pl * h * w;
    for (std::int64_t oy = 0; oy < ho; ++oy) {
      for (std::int64_t ox = 0; ox < wo; ++ox) {
        float best = -std::numeric_limits<float>::infinity();
        std::int64_t best_idx = 0;
        for (std::int64_t ki = 0; ki < k; ++ki) {
          const std::int64_t iy = oy * p.stride - p.pad + ki;
          if (iy < 0 || iy >= h) continue;
          for (std::int64_t kj = 0; kj < k; ++kj) {
            const std::int64_t ix = ox * p.stride - p.pad + kj;
            if (ix < 0 || ix >= w) continue;
            if (plane[iy * w + ix] > best) {
              best = plane[iy * w + ix];
              best_idx = iy * w + ix;
            }
          }
        }
        const std::int64_t out = (pl * ho + oy) * wo + ox;
        r.y.data()[out] = best;
        r.argmax[static_cast<std::size_t>(out)] =
            static_cast<std::int32_t>(best_idx);
      }
    }
  }
  return r;
}

TEST(MaxPool, ForwardMatchesPerWindowScanBitForBit) {
  struct Case {
    Shape shape;
    std::int64_t k;
    ConvParams p;
  };
  const Case cases[] = {
      {Shape{1, 64, 32, 32}, 3, ConvParams{2, 1}},  // ResNet stem
      {Shape{2, 3, 9, 11}, 3, ConvParams{2, 1}},
      {Shape{2, 3, 9, 11}, 2, ConvParams{2, 0}},
      {Shape{1, 2, 7, 8}, 3, ConvParams{1, 1}},
      {Shape{1, 2, 7, 8}, 3, ConvParams{2, 0}},
      {Shape{1, 2, 5, 6}, 2, ConvParams{1, 1}},
      {Shape{1, 1, 3, 3}, 3, ConvParams{1, 1}},
  };
  std::mt19937 rng(12);
  for (const bool finite_only : {true, false}) {
    for (const Case& t : cases) {
      Tensor x = Tensor::empty(t.shape);
      fill_special(x, rng, finite_only);
      const MaxPoolResult got = maxpool2d_forward(x, t.k, t.p);
      const MaxPoolResult want = reference_maxpool(x, t.k, t.p);
      ASSERT_TRUE(same_bits(got.y, want.y)) << "k=" << t.k;
      ASSERT_EQ(got.argmax.size(), want.argmax.size());
      const std::int64_t w = t.shape[3];
      const std::int64_t wo = want.y.shape()[3];
      const std::int64_t ho = want.y.shape()[2];
      for (std::size_t i = 0; i < want.argmax.size(); ++i) {
        if (want.y.data()[i] > -std::numeric_limits<float>::infinity()) {
          EXPECT_EQ(got.argmax[i], want.argmax[i]) << "output " << i;
          continue;
        }
        // No tap beat -inf: the argmax is the window's first in-bounds
        // tap, not element 0 of the plane.
        ASSERT_FALSE(finite_only);
        const auto out = static_cast<std::int64_t>(i);
        const std::int64_t oy = (out / wo) % ho;
        const std::int64_t ox = out % wo;
        const std::int64_t iy =
            std::max<std::int64_t>(0, oy * t.p.stride - t.p.pad);
        const std::int64_t ix =
            std::max<std::int64_t>(0, ox * t.p.stride - t.p.pad);
        EXPECT_EQ(got.argmax[i], iy * w + ix) << "output " << i;
      }
    }
  }
}

TEST(MaxPool, AllNegInfWindowRoutesGradientInsideWindow) {
  Tensor x = Tensor::full(Shape{1, 1, 4, 4},
                          -std::numeric_limits<float>::infinity());
  MaxPoolResult r = maxpool2d_forward(x, 2, ConvParams{2, 0});
  ASSERT_EQ(r.argmax.size(), 4U);
  EXPECT_EQ(r.argmax[0], 0);
  EXPECT_EQ(r.argmax[1], 2);
  EXPECT_EQ(r.argmax[2], 8);
  EXPECT_EQ(r.argmax[3], 10);
  Tensor gy = Tensor::full(Shape{1, 1, 2, 2}, 1.0F);
  Tensor gx = maxpool2d_backward(gy, r.argmax, x.shape());
  for (const std::int64_t i : {0, 2, 8, 10}) EXPECT_FLOAT_EQ(gx.at(i), 1.0F);
}

TEST(GlobalAvgPool, ForwardBackward) {
  Tensor x = Tensor::zeros(Shape{1, 2, 2, 2});
  for (std::int64_t i = 0; i < 4; ++i) x.data()[i] = 4.0F;      // channel 0
  for (std::int64_t i = 4; i < 8; ++i) x.data()[i] = 8.0F;      // channel 1
  Tensor y = global_avgpool_forward(x);
  EXPECT_FLOAT_EQ(y.data()[0], 4.0F);
  EXPECT_FLOAT_EQ(y.data()[1], 8.0F);
  Tensor gy = Tensor::from_values({1.0F, 2.0F}).reshaped(Shape{1, 2});
  Tensor gx = global_avgpool_backward(gy, x.shape());
  EXPECT_FLOAT_EQ(gx.data()[0], 0.25F);
  EXPECT_FLOAT_EQ(gx.data()[7], 0.5F);
}

TEST(Linear, ForwardBackwardNumeric) {
  std::mt19937 rng(31);
  Tensor x = Tensor::randn(Shape{3, 4}, rng);
  Tensor w = Tensor::randn(Shape{5, 4}, rng);
  Tensor b = Tensor::randn(Shape{5}, rng);
  Tensor cot = Tensor::randn(Shape{3, 5}, rng);
  auto loss = [&](const Tensor& xx, const Tensor& ww) {
    Tensor y = linear_forward(xx, ww, b);
    double acc = 0.0;
    for (std::int64_t i = 0; i < y.numel(); ++i) {
      acc += static_cast<double>(y.at(i)) * cot.at(i);
    }
    return acc;
  };
  LinearGrads grads = linear_backward(cot, x, w, true);
  const float eps = 1e-2F;
  for (const std::int64_t idx : {0L, 7L, 11L}) {
    Tensor xp = x.clone();
    xp.at(idx) += eps;
    Tensor xm = x.clone();
    xm.at(idx) -= eps;
    EXPECT_NEAR(grads.grad_x.at(idx),
                (loss(xp, w) - loss(xm, w)) / (2.0 * eps), 2e-2);
  }
  for (const std::int64_t idx : {0L, 13L, 19L}) {
    Tensor wp = w.clone();
    wp.at(idx) += eps;
    Tensor wm = w.clone();
    wm.at(idx) -= eps;
    EXPECT_NEAR(grads.grad_w.at(idx),
                (loss(x, wp) - loss(x, wm)) / (2.0 * eps), 2e-2);
  }
  // grad_b = column sums of cot.
  for (std::int64_t j = 0; j < 5; ++j) {
    float expect = 0.0F;
    for (std::int64_t i = 0; i < 3; ++i) expect += cot.at(i * 5 + j);
    EXPECT_NEAR(grads.grad_b.at(j), expect, 1e-4F);
  }
}

TEST(BatchNorm, NormalisesToZeroMeanUnitVar) {
  std::mt19937 rng(41);
  Tensor x = Tensor::randn(Shape{4, 3, 5, 5}, rng, 3.0F);
  Tensor gamma = Tensor::full(Shape{3}, 1.0F);
  Tensor beta = Tensor::zeros(Shape{3});
  Tensor rm = Tensor::zeros(Shape{3});
  Tensor rv = Tensor::full(Shape{3}, 1.0F);
  BatchNormState state =
      batchnorm2d_forward(x, gamma, beta, rm, rv, 0.1F, 1e-5F, true);
  // Per-channel mean ~0, var ~1 of the output.
  const std::int64_t area = 25;
  for (std::int64_t ch = 0; ch < 3; ++ch) {
    double sum = 0.0;
    double sumsq = 0.0;
    for (std::int64_t img = 0; img < 4; ++img) {
      const float* p = state.y.data() + (img * 3 + ch) * area;
      for (std::int64_t i = 0; i < area; ++i) {
        sum += p[i];
        sumsq += static_cast<double>(p[i]) * p[i];
      }
    }
    const double mean = sum / 100.0;
    const double var = sumsq / 100.0 - mean * mean;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm, RunningStatsUpdateOnlyWhenAsked) {
  std::mt19937 rng(43);
  Tensor x = Tensor::randn(Shape{2, 2, 4, 4}, rng);
  Tensor gamma = Tensor::full(Shape{2}, 1.0F);
  Tensor beta = Tensor::zeros(Shape{2});
  Tensor rm = Tensor::zeros(Shape{2});
  Tensor rv = Tensor::full(Shape{2}, 1.0F);
  (void)batchnorm2d_forward(x, gamma, beta, rm, rv, 0.1F, 1e-5F, false);
  EXPECT_FLOAT_EQ(rm.at(0), 0.0F);
  EXPECT_FLOAT_EQ(rv.at(0), 1.0F);
  (void)batchnorm2d_forward(x, gamma, beta, rm, rv, 0.1F, 1e-5F, true);
  EXPECT_NE(rm.at(0), 0.0F);
}

TEST(BatchNorm, InferenceUsesRunningStats) {
  Tensor x = Tensor::full(Shape{1, 1, 2, 2}, 3.0F);
  Tensor gamma = Tensor::full(Shape{1}, 2.0F);
  Tensor beta = Tensor::full(Shape{1}, 1.0F);
  Tensor rm = Tensor::full(Shape{1}, 1.0F);
  Tensor rv = Tensor::full(Shape{1}, 4.0F);
  Tensor y = batchnorm2d_infer(x, gamma, beta, rm, rv, 0.0F);
  // (3-1)/2 * 2 + 1 = 3
  EXPECT_NEAR(y.at(0), 3.0F, 1e-4F);
}

TEST(BatchNorm, BackwardNumericGradient) {
  std::mt19937 rng(47);
  Tensor x = Tensor::randn(Shape{2, 2, 3, 3}, rng);
  Tensor gamma = Tensor::uniform(Shape{2}, rng, 0.5F, 1.5F);
  Tensor beta = Tensor::randn(Shape{2}, rng, 0.1F);
  Tensor rm = Tensor::zeros(Shape{2});
  Tensor rv = Tensor::full(Shape{2}, 1.0F);
  Tensor cot = Tensor::randn(Shape{2, 2, 3, 3}, rng);

  auto loss = [&](const Tensor& xx) {
    BatchNormState s =
        batchnorm2d_forward(xx, gamma, beta, rm, rv, 0.1F, 1e-5F, false);
    double acc = 0.0;
    for (std::int64_t i = 0; i < s.y.numel(); ++i) {
      acc += static_cast<double>(s.y.at(i)) * cot.at(i);
    }
    return acc;
  };

  BatchNormState state =
      batchnorm2d_forward(x, gamma, beta, rm, rv, 0.1F, 1e-5F, false);
  BatchNormGrads grads = batchnorm2d_backward(cot, x, gamma, state);
  const float eps = 1e-2F;
  for (const std::int64_t idx : {0L, 8L, 17L, 30L}) {
    Tensor xp = x.clone();
    xp.at(idx) += eps;
    Tensor xm = x.clone();
    xm.at(idx) -= eps;
    EXPECT_NEAR(grads.grad_x.at(idx), (loss(xp) - loss(xm)) / (2.0 * eps),
                5e-2);
  }
}

TEST(SoftmaxXent, KnownValuesAndGradient) {
  Tensor logits = Tensor::from_values({1.0F, 1.0F, 2.0F, 0.0F})
                      .reshaped(Shape{2, 2});
  const std::vector<std::int32_t> labels{0, 0};
  SoftmaxXentResult r = softmax_xent_forward(logits, labels);
  // Row 0: uniform -> loss ln 2; row 1: p(correct)=sigmoid(2).
  const double l0 = std::log(2.0);
  const double l1 = -std::log(1.0 / (1.0 + std::exp(-2.0)));
  EXPECT_NEAR(r.loss, (l0 + l1) / 2.0, 1e-5);

  Tensor grad = softmax_xent_backward(r.probs, labels);
  // Each row sums to 0 and matches (p - onehot)/N.
  EXPECT_NEAR(grad.at(0) + grad.at(1), 0.0F, 1e-6F);
  EXPECT_NEAR(grad.at(0), (0.5F - 1.0F) / 2.0F, 1e-5F);
}

TEST(SoftmaxXent, NumericallyStableForLargeLogits) {
  Tensor logits =
      Tensor::from_values({1000.0F, 999.0F}).reshaped(Shape{1, 2});
  SoftmaxXentResult r = softmax_xent_forward(logits, {0});
  EXPECT_TRUE(std::isfinite(r.loss));
  EXPECT_NEAR(r.probs.at(0) + r.probs.at(1), 1.0F, 1e-5F);
}

TEST(Dropout, DeterministicForSeed) {
  std::mt19937 rng(71);
  Tensor x = Tensor::randn(Shape{1024}, rng);
  Tensor a = dropout_forward(x, 0.4F, 123);
  Tensor b = dropout_forward(x, 0.4F, 123);
  EXPECT_EQ(Tensor::max_abs_diff(a, b), 0.0F);
  Tensor c = dropout_forward(x, 0.4F, 124);
  EXPECT_GT(Tensor::max_abs_diff(a, c), 0.0F);
}

TEST(Dropout, DropRateAndInvertedScaling) {
  Tensor x = Tensor::full(Shape{100000}, 1.0F);
  const float rate = 0.3F;
  Tensor y = dropout_forward(x, rate, 99);
  std::int64_t zeros = 0;
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    if (y.at(i) == 0.0F) {
      ++zeros;
    } else {
      EXPECT_NEAR(y.at(i), 1.0F / (1.0F - rate), 1e-5F);
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / static_cast<double>(y.numel()),
              rate, 0.01);
  // Inverted dropout preserves the expectation.
  EXPECT_NEAR(y.sum() / static_cast<float>(y.numel()), 1.0F, 0.02F);
}

TEST(Dropout, BackwardUsesSameMask) {
  std::mt19937 rng(73);
  Tensor x = Tensor::randn(Shape{256}, rng);
  Tensor y = dropout_forward(x, 0.5F, 7);
  Tensor g = Tensor::full(Shape{256}, 1.0F);
  Tensor gx = dropout_backward(g, 0.5F, 7);
  for (std::int64_t i = 0; i < 256; ++i) {
    EXPECT_EQ(gx.at(i) == 0.0F, y.at(i) == 0.0F) << i;
  }
}

TEST(Dropout, RejectsBadRate) {
  Tensor x = Tensor::zeros(Shape{4});
  EXPECT_THROW((void)dropout_forward(x, 1.0F, 1), std::invalid_argument);
  EXPECT_THROW((void)dropout_forward(x, -0.1F, 1), std::invalid_argument);
}

TEST(SoftmaxRows, TemperatureFlattens) {
  Tensor logits = Tensor::from_values({2.0F, 0.0F}).reshaped(Shape{1, 2});
  Tensor sharp = softmax_rows(logits, 1.0F);
  Tensor soft = softmax_rows(logits, 4.0F);
  EXPECT_GT(sharp.at(0), soft.at(0));
  EXPECT_NEAR(soft.at(0) + soft.at(1), 1.0F, 1e-6F);
}

TEST(Distill, PureHardEqualsSoftmaxXent) {
  std::mt19937 rng(79);
  Tensor zs = Tensor::randn(Shape{3, 4}, rng);
  Tensor zt = Tensor::randn(Shape{3, 4}, rng);
  const std::vector<std::int32_t> labels{0, 2, 3};
  const DistillResult distill = distill_loss(zs, zt, labels, 1.0F, 2.0F);
  const SoftmaxXentResult hard = softmax_xent_forward(zs, labels);
  EXPECT_NEAR(distill.loss, hard.loss, 1e-5F);
  Tensor hard_grad = softmax_xent_backward(hard.probs, labels);
  EXPECT_LT(Tensor::max_abs_diff(distill.grad_student_logits, hard_grad),
            1e-6F);
}

TEST(Distill, PureSoftZeroWhenStudentMatchesTeacher) {
  std::mt19937 rng(83);
  Tensor z = Tensor::randn(Shape{2, 5}, rng);
  const std::vector<std::int32_t> labels{0, 1};
  const DistillResult result = distill_loss(z, z, labels, 0.0F, 3.0F);
  EXPECT_NEAR(result.loss, 0.0F, 1e-5F);
  EXPECT_LT(result.grad_student_logits.max_abs(), 1e-6F);
}

TEST(Distill, GradientMatchesFiniteDifferences) {
  std::mt19937 rng(89);
  Tensor zs = Tensor::randn(Shape{2, 3}, rng);
  Tensor zt = Tensor::randn(Shape{2, 3}, rng);
  const std::vector<std::int32_t> labels{1, 2};
  const float alpha = 0.4F;
  const float temperature = 2.5F;
  const DistillResult result = distill_loss(zs, zt, labels, alpha, temperature);
  const float eps = 1e-2F;
  for (std::int64_t i = 0; i < zs.numel(); ++i) {
    Tensor up = zs.clone();
    up.at(i) += eps;
    Tensor down = zs.clone();
    down.at(i) -= eps;
    const float numeric =
        (distill_loss(up, zt, labels, alpha, temperature).loss -
         distill_loss(down, zt, labels, alpha, temperature).loss) /
        (2.0F * eps);
    EXPECT_NEAR(result.grad_student_logits.at(i), numeric, 5e-3F) << i;
  }
}

TEST(Distill, RejectsBadArguments) {
  Tensor a = Tensor::zeros(Shape{1, 2});
  Tensor b = Tensor::zeros(Shape{1, 3});
  EXPECT_THROW((void)distill_loss(a, b, {0}, 0.5F, 1.0F),
               std::invalid_argument);
  Tensor c = Tensor::zeros(Shape{1, 2});
  EXPECT_THROW((void)distill_loss(a, c, {0}, 1.5F, 1.0F),
               std::invalid_argument);
}

TEST(ArgmaxRows, PicksRowMaxima) {
  Tensor logits = Tensor::from_values({0.1F, 0.9F, 3.0F, -1.0F})
                      .reshaped(Shape{2, 2});
  const auto result = argmax_rows(logits);
  EXPECT_EQ(result[0], 1);
  EXPECT_EQ(result[1], 0);
}

}  // namespace
}  // namespace edgetrain::ops

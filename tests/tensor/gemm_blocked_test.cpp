// Exhaustive correctness tests for the blocked, packed GEMM.
//
// The kernel blocks at kMR=6 / kNR=16 (register tile), kMC=120 / kKC=256 /
// kNC=256 (cache tiles), so shapes are chosen to land on, just under and
// just over every blocking edge, plus odd/prime shapes that exercise the
// zero-padded fringe panels. Every trans_a/trans_b combination is crossed
// with alpha, beta in {0, 1, 0.5}. Narrow products (op(B) not transposed,
// n <= 8) take an unpacked path that must give the blocked path's bits.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <tuple>
#include <vector>

#include "tensor/convert.hpp"
#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"
#include "tensor/tensor.hpp"

namespace edgetrain::ops {
namespace {

struct GemmShape {
  std::int64_t m;
  std::int64_t n;
  std::int64_t k;
};

// Edges of the register tile (6, 16), the cache tiles (120, 256) and primes
// that divide none of them.
const std::vector<GemmShape>& shapes() {
  static const std::vector<GemmShape> kShapes = {
      {1, 1, 1},      {1, 16, 1},    {6, 16, 1},     {3, 5, 7},
      {5, 6, 7},      {7, 17, 16},   {15, 16, 17},   {17, 19, 23},
      {31, 17, 29},   {6, 32, 64},   {12, 48, 16},   {67, 129, 65},
      {119, 120, 121}, {120, 16, 256}, {121, 257, 129},
  };
  return kShapes;
}

/// Naive triple-loop reference with full alpha/beta semantics, accumulated
/// in double so it is strictly more accurate than the kernel under test.
void naive_gemm(bool ta, bool tb, std::int64_t m, std::int64_t n,
                std::int64_t k, float alpha, const float* a, const float* b,
                float beta, float* c) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        const float av = ta ? a[p * m + i] : a[i * k + p];
        const float bv = tb ? b[j * k + p] : b[p * n + j];
        acc += static_cast<double>(av) * bv;
      }
      const double prev = beta == 0.0F ? 0.0 : static_cast<double>(c[i * n + j]) * beta;
      c[i * n + j] = static_cast<float>(static_cast<double>(alpha) * acc + prev);
    }
  }
}

float tolerance(std::int64_t k) {
  // Error grows with the reduction depth; 1e-4 covers k up to a few hundred.
  return 1e-4F * std::max<std::int64_t>(1, k / 64);
}

class BlockedGemmTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(BlockedGemmTest, MatchesReferenceAcrossShapesAndScalars) {
  const auto [ta, tb] = GetParam();
  const float kScalars[] = {0.0F, 1.0F, 0.5F};
  std::mt19937 rng(97);
  for (const GemmShape& s : shapes()) {
    Tensor a = Tensor::randn(ta ? Shape{s.k, s.m} : Shape{s.m, s.k}, rng);
    Tensor b = Tensor::randn(tb ? Shape{s.n, s.k} : Shape{s.k, s.n}, rng);
    Tensor c0 = Tensor::randn(Shape{s.m, s.n}, rng);
    for (const float alpha : kScalars) {
      for (const float beta : kScalars) {
        Tensor c = c0.clone();
        Tensor ref = c0.clone();
        gemm(ta, tb, s.m, s.n, s.k, alpha, a.data(), b.data(), beta,
             c.data());
        naive_gemm(ta, tb, s.m, s.n, s.k, alpha, a.data(), b.data(), beta,
                   ref.data());
        EXPECT_LT(Tensor::max_abs_diff(c, ref), tolerance(s.k))
            << "m=" << s.m << " n=" << s.n << " k=" << s.k
            << " ta=" << ta << " tb=" << tb << " alpha=" << alpha
            << " beta=" << beta;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTransposes, BlockedGemmTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

TEST(BlockedGemm, DeepReductionCrossesMultipleKcBlocks) {
  // k = 600 spans three kKC=256 panels; checks the beta=1 continuation
  // between panels and the alpha scaling applied exactly once.
  std::mt19937 rng(5);
  const std::int64_t m = 13;
  const std::int64_t n = 33;
  const std::int64_t k = 600;
  Tensor a = Tensor::randn(Shape{m, k}, rng);
  Tensor b = Tensor::randn(Shape{k, n}, rng);
  Tensor c = Tensor::full(Shape{m, n}, 2.0F);
  Tensor ref = Tensor::full(Shape{m, n}, 2.0F);
  gemm(false, false, m, n, k, 0.5F, a.data(), b.data(), 0.5F, c.data());
  naive_gemm(false, false, m, n, k, 0.5F, a.data(), b.data(), 0.5F,
             ref.data());
  EXPECT_LT(Tensor::max_abs_diff(c, ref), tolerance(k));
}

TEST(BlockedGemm, BitForBitDeterministic) {
  // Every C tile has one writer with a fixed k order, so repeated runs must
  // agree bitwise, not just within tolerance.
  std::mt19937 rng(31);
  const std::int64_t m = 131;
  const std::int64_t n = 261;
  const std::int64_t k = 300;
  Tensor a = Tensor::randn(Shape{m, k}, rng);
  Tensor b = Tensor::randn(Shape{k, n}, rng);
  Tensor first = Tensor::zeros(Shape{m, n});
  gemm(false, false, m, n, k, 1.0F, a.data(), b.data(), 0.0F, first.data());
  for (int run = 0; run < 3; ++run) {
    Tensor again = Tensor::zeros(Shape{m, n});
    gemm(false, false, m, n, k, 1.0F, a.data(), b.data(), 0.0F,
         again.data());
    EXPECT_EQ(0, std::memcmp(first.data(), again.data(),
                             static_cast<std::size_t>(first.numel()) *
                                 sizeof(float)))
        << "run " << run;
  }
}

TEST(BlockedGemm, DegenerateKScalesCOnly) {
  Tensor c = Tensor::full(Shape{3, 4}, 3.0F);
  gemm(false, false, 3, 4, 0, 1.0F, nullptr, nullptr, 0.5F, c.data());
  for (std::int64_t i = 0; i < c.numel(); ++i) {
    EXPECT_FLOAT_EQ(c.data()[i], 1.5F);
  }
}

/// gemm for either element type: fp32 through gemm, bf16 through gemm_bf16.
void gemm_any(bool ta, std::int64_t m, std::int64_t n, std::int64_t k,
              float alpha, const float* a, const float* b, float beta,
              float* c) {
  gemm(ta, false, m, n, k, alpha, a, b, beta, c);
}
void gemm_any(bool ta, std::int64_t m, std::int64_t n, std::int64_t k,
              float alpha, const std::uint16_t* a, const std::uint16_t* b,
              float beta, float* c) {
  gemm_bf16(ta, false, m, n, k, alpha, a, b, beta, c);
}

/// Fuzzes narrow products against the blocked path with no test hook: the
/// blocked path computes every column of C in the same order whatever n
/// is, so B (k x n, n <= 8) embedded in the first n columns of a random
/// k x 16 B' must give, bit for bit, the first n columns of the n = 16
/// product (which the narrow path never takes).
template <typename T>
void fuzz_narrow_against_blocked(const std::vector<T>& a_pool,
                                 const std::vector<T>& b_wide,
                                 const std::vector<float>& c_wide0,
                                 std::mt19937& rng) {
  constexpr std::int64_t kWide = 16;
  const std::int64_t kMs[] = {1, 7, 8, 9, 15, 16, 17, 511, 512, 513};
  const std::int64_t kKs[] = {1, 4, 255, 256, 257, 600, 2304, 4608};
  const float kScalars[] = {0.0F, 1.0F, 0.5F, -2.0F};
  std::uniform_int_distribution<int> pick(0, 3);
  for (const std::int64_t m : kMs) {
    for (const std::int64_t k : kKs) {
      for (const bool ta : {false, true}) {
        for (std::int64_t n = 1; n <= 8; ++n) {
          const float alpha = kScalars[pick(rng)];
          const float beta = kScalars[pick(rng)];
          std::vector<T> b(static_cast<std::size_t>(k * n));
          for (std::int64_t p = 0; p < k; ++p) {
            for (std::int64_t j = 0; j < n; ++j) {
              b[static_cast<std::size_t>(p * n + j)] =
                  b_wide[static_cast<std::size_t>(p * kWide + j)];
            }
          }
          std::vector<float> c_wide(c_wide0.begin(),
                                    c_wide0.begin() + m * kWide);
          std::vector<float> c(static_cast<std::size_t>(m * n));
          for (std::int64_t i = 0; i < m; ++i) {
            for (std::int64_t j = 0; j < n; ++j) {
              c[static_cast<std::size_t>(i * n + j)] =
                  c_wide[static_cast<std::size_t>(i * kWide + j)];
            }
          }
          gemm_any(ta, m, kWide, k, alpha, a_pool.data(), b_wide.data(),
                   beta, c_wide.data());
          gemm_any(ta, m, n, k, alpha, a_pool.data(), b.data(), beta,
                   c.data());
          std::int64_t mismatched_rows = 0;
          for (std::int64_t i = 0; i < m; ++i) {
            if (std::memcmp(&c[static_cast<std::size_t>(i * n)],
                            &c_wide[static_cast<std::size_t>(i * kWide)],
                            static_cast<std::size_t>(n) * sizeof(float)) !=
                0) {
              ++mismatched_rows;
            }
          }
          EXPECT_EQ(mismatched_rows, 0)
              << "m=" << m << " n=" << n << " k=" << k << " ta=" << ta
              << " alpha=" << alpha << " beta=" << beta
              << " threads=" << ThreadPool::global().size();
        }
      }
    }
  }
}

TEST(BlockedGemm, NarrowNMatchesBlockedBitForBit) {
  constexpr std::int64_t kMaxM = 513;
  constexpr std::int64_t kMaxK = 4608;
  std::mt19937 rng(27);
  std::normal_distribution<float> normal;
  // A is drawn once at the largest m x k; smaller shapes read a prefix,
  // which is just as random in either layout.
  std::vector<float> a(static_cast<std::size_t>(kMaxM * kMaxK));
  std::vector<float> b_wide(static_cast<std::size_t>(kMaxK * 16));
  std::vector<float> c_wide0(static_cast<std::size_t>(kMaxM * 16));
  for (float& v : a) v = normal(rng);
  for (float& v : b_wide) v = normal(rng);
  for (float& v : c_wide0) v = normal(rng);
  std::vector<std::uint16_t> a_bf16(a.size());
  std::vector<std::uint16_t> b_wide_bf16(b_wide.size());
  convert::fp32_to_bf16(a.data(), a_bf16.data(),
                        static_cast<std::int64_t>(a.size()));
  convert::fp32_to_bf16(b_wide.data(), b_wide_bf16.data(),
                        static_cast<std::int64_t>(b_wide.size()));
  // The row-group grid depends on m alone; pool sizes 2 and 3 split it
  // unevenly and must not change a bit.
  for (const unsigned threads : {1U, 2U, 3U}) {
    ThreadPool::set_global_threads(threads);
    fuzz_narrow_against_blocked(a, b_wide, c_wide0, rng);
    fuzz_narrow_against_blocked(a_bf16, b_wide_bf16, c_wide0, rng);
  }
  ThreadPool::set_global_threads(0);
}

}  // namespace
}  // namespace edgetrain::ops

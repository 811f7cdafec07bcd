// Sparse bitmap kernel coverage: the vectorised/parallel popcount,
// compact and scatter paths against their scalar references, swept over
// densities 0%, 1%, 50%, 100% and ragged tail lengths straddling the
// 64-bit word and parallel-chunk boundaries, plus the bit-exactness
// contract (-0.0f and NaN payloads survive, zeros restore as +0.0f).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "tensor/sparse.hpp"

namespace edgetrain::sparse {
namespace {

constexpr std::int64_t kChunkElems = std::int64_t{1} << 15;

/// memcmp over n floats; n = 0 compares equal without touching the (then
/// possibly null) pointers, which memcmp does not allow.
int compare_bits(const float* a, const float* b, std::int64_t n) {
  return n == 0 ? 0
                : std::memcmp(a, b,
                              static_cast<std::size_t>(n) * sizeof(float));
}

std::vector<float> make_values(std::int64_t n, double density,
                               std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<float> dist(0.0F, 2.0F);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<float> values(static_cast<std::size_t>(n), 0.0F);
  for (float& v : values) {
    if (coin(rng) < density) {
      float x = dist(rng);
      if (x == 0.0F) x = 1.0F;
      v = x;
    }
  }
  return values;
}

// Lengths straddling the word (64) and parallel-chunk (1 << 15)
// boundaries, plus tiny and empty edge cases.
const std::int64_t kLengths[] = {0,
                                 1,
                                 2,
                                 63,
                                 64,
                                 65,
                                 1000,
                                 kChunkElems - 1,
                                 kChunkElems,
                                 kChunkElems + 1,
                                 3 * kChunkElems + 17};

TEST(SparseKernelTest, NonzeroBitmapMatchesScalarAcrossDensities) {
  for (const std::int64_t n : kLengths) {
    for (const double density : {0.0, 0.01, 0.5, 1.0}) {
      const std::vector<float> src =
          make_values(n, density, static_cast<std::uint32_t>(7 * n + 1));
      const std::size_t words =
          static_cast<std::size_t>(bitmap_words(n));
      std::vector<std::uint64_t> expected(words, ~std::uint64_t{0});
      const std::int64_t expected_nnz =
          nonzero_bitmap_scalar(src.data(), n, expected.data());
      for (const auto threading :
           {convert::Threading::Parallel, convert::Threading::Serial}) {
        std::vector<std::uint64_t> got(words, ~std::uint64_t{0});
        const std::int64_t nnz =
            nonzero_bitmap(src.data(), n, got.data(), threading);
        EXPECT_EQ(nnz, expected_nnz) << "n=" << n << " d=" << density;
        EXPECT_EQ(got, expected) << "n=" << n << " d=" << density;
        EXPECT_EQ(popcount_words(got.data(),
                                 static_cast<std::int64_t>(words), threading),
                  expected_nnz);
      }
      // Tail bits of the last word must be cleared even though the buffers
      // started all-ones.
      if (n % 64 != 0 && !expected.empty()) {
        const std::uint64_t tail_mask =
            (std::uint64_t{1} << (n % 64)) - 1;
        EXPECT_EQ(expected.back() & ~tail_mask, 0U) << "n=" << n;
      }
    }
  }
}

TEST(SparseKernelTest, CompactAndScatterMatchScalarAndRoundTrip) {
  for (const std::int64_t n : kLengths) {
    for (const double density : {0.0, 0.01, 0.5, 1.0}) {
      const std::vector<float> src =
          make_values(n, density, static_cast<std::uint32_t>(11 * n + 3));
      const std::size_t words =
          static_cast<std::size_t>(bitmap_words(n));
      std::vector<std::uint64_t> bitmap(words, 0);
      const std::int64_t nnz =
          nonzero_bitmap_scalar(src.data(), n, bitmap.data());

      std::vector<float> expected_packed(
          static_cast<std::size_t>(nnz), -1.0F);
      compact_nonzeros_scalar(src.data(), bitmap.data(), n,
                              expected_packed.data());
      std::vector<float> expected_back(static_cast<std::size_t>(n), -1.0F);
      scatter_nonzeros_scalar(expected_packed.data(), bitmap.data(), n,
                              expected_back.data());
      // The scalar pair must already round-trip bit-exactly.
      ASSERT_EQ(compare_bits(expected_back.data(), src.data(), n), 0)
          << "n=" << n << " d=" << density;

      for (const auto threading :
           {convert::Threading::Parallel, convert::Threading::Serial}) {
        std::vector<float> packed(static_cast<std::size_t>(nnz), -2.0F);
        compact_nonzeros(src.data(), bitmap.data(), n, packed.data(),
                         threading);
        EXPECT_EQ(packed, expected_packed) << "n=" << n << " d=" << density;

        std::vector<float> back(static_cast<std::size_t>(n), -2.0F);
        scatter_nonzeros(packed.data(), bitmap.data(), n, back.data(),
                         threading);
        EXPECT_EQ(compare_bits(back.data(), src.data(), n), 0)
            << "n=" << n << " d=" << density;
      }
    }
  }
}

TEST(SparseKernelTest, BitPatternContractSurvivesSpecialValues) {
  // -0.0f and NaN have nonzero bit patterns and must be treated (and
  // restored) as nonzeros, bit-exactly; +0.0f is the only zero.
  std::vector<float> src = {0.0F,
                            -0.0F,
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::denorm_min(),
                            0.0F,
                            1.0F};
  const auto n = static_cast<std::int64_t>(src.size());
  std::vector<std::uint64_t> bitmap(
      static_cast<std::size_t>(bitmap_words(n)), 0);
  const std::int64_t nnz = nonzero_bitmap(src.data(), n, bitmap.data());
  EXPECT_EQ(nnz, 6);  // all but the two +0.0f lanes
  EXPECT_EQ(bitmap[0], 0b10111110U);

  std::vector<float> packed(static_cast<std::size_t>(nnz));
  compact_nonzeros(src.data(), bitmap.data(), n, packed.data());
  std::vector<float> back(static_cast<std::size_t>(n), -1.0F);
  scatter_nonzeros(packed.data(), bitmap.data(), n, back.data());
  EXPECT_EQ(std::memcmp(back.data(), src.data(),
                        src.size() * sizeof(float)),
            0);
  // The restored zeros must be the exact +0.0f pattern.
  std::uint32_t bits = 0;
  std::memcpy(&bits, &back[0], sizeof(bits));
  EXPECT_EQ(bits, 0U);
}

TEST(SparseKernelTest, PopcountWordsMatchesScalarOnRandomWords) {
  std::mt19937_64 rng(17);
  for (const std::int64_t n_words : {0, 1, 7, 511, 512, 513, 2000}) {
    std::vector<std::uint64_t> words(static_cast<std::size_t>(n_words));
    for (auto& w : words) w = rng();
    const std::int64_t expected =
        popcount_words_scalar(words.data(), n_words);
    for (const auto threading :
         {convert::Threading::Parallel, convert::Threading::Serial}) {
      EXPECT_EQ(popcount_words(words.data(), n_words, threading), expected)
          << "n_words=" << n_words;
    }
  }
}

}  // namespace
}  // namespace edgetrain::sparse

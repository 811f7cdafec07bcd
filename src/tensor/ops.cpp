#include "tensor/ops.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "tensor/convert.hpp"
#include "tensor/guards.hpp"
#include "tensor/parallel.hpp"
#include "tensor/workspace.hpp"

namespace edgetrain::ops {

namespace {
void check(bool cond, const char* msg) {
  if (!cond) throw std::invalid_argument(msg);
}

constexpr std::int64_t ceil_div(std::int64_t a, std::int64_t b) noexcept {
  return (a + b - 1) / b;
}
}  // namespace

std::int64_t conv_out_size(std::int64_t in, std::int64_t kernel,
                           std::int64_t stride, std::int64_t pad) noexcept {
  return (in + 2 * pad - kernel) / stride + 1;
}

// ---------------------------------------------------------------------------
// GEMM: cache-blocked, packed, register-tiled (BLIS-style).
//
// op(A)/op(B) are packed into contiguous panels drawn from the per-thread
// Workspace arena -- A as column-major micro-panels of kMR rows, B as
// row-major micro-panels of kNR columns -- so the inner kernel streams two
// contiguous buffers regardless of the trans_a/trans_b combination. The
// kMR x kNR accumulator tile lives in registers (target_clones emits
// AVX-512/AVX2/SSE variants and dispatches at load time; no intrinsics).
// Work is parallelised 2-D over (M-block x N-block) tasks; each C tile is
// written by exactly one task with a fixed reduction order, so results are
// bit-for-bit reproducible for any worker count.
// ---------------------------------------------------------------------------

namespace {

constexpr std::int64_t kMR = 6;    // micro-tile rows (register blocking)
constexpr std::int64_t kNR = 16;   // micro-tile cols (one AVX-512 vector)
constexpr std::int64_t kMC = 120;  // A-block rows per task (multiple of kMR)
constexpr std::int64_t kKC = 256;  // packed panel depth (L1/L2 resident)
constexpr std::int64_t kNC = 256;  // B-block cols per task (multiple of kNR)

// Micro-architecture levels (not bare ISA bits: v3/v4 imply FMA, which the
// accumulator update contracts into) cloned per function and dispatched by
// the loader's ifunc resolver, so the standard build needs no -march flags.
//
// Sanitizer builds must NOT multi-version: the ifunc resolver runs during
// relocation, before __tsan_init/__asan_init, and gcc instruments it like
// any other function -- the first __tsan_func_entry then dereferences
// uninitialised sanitizer TLS and the binary segfaults before main.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define EDGETRAIN_KERNEL_CLONES
#elif defined(__GNUC__) && defined(__x86_64__) && !defined(__clang__)
#define EDGETRAIN_KERNEL_CLONES \
  __attribute__(                \
      (target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define EDGETRAIN_KERNEL_CLONES
#endif

// GNU vector extensions give the micro-kernel named vector accumulators the
// compiler keeps in registers for the whole k loop; a plain scalar tile
// written through a pointer gets spilled to the stack every iteration
// (load-op-store per row), which is ~40x slower. Portable across GCC/Clang
// on every target; scalar fallback for anything else.
#if defined(__GNUC__) || defined(__clang__)
#define EDGETRAIN_VECTOR_EXT 1
using Vec8f = float __attribute__((vector_size(32)));
using Vec4f = float __attribute__((vector_size(16)));
#endif

/// Packing-time element widening: fp32 operands copy through, bf16 bit
/// patterns decode (exactly -- bf16 is truncated fp32) while the panel is
/// being laid out, so the micro-kernel always consumes fp32 and both
/// precisions share one engine. The decode is inlined (same bit pattern as
/// convert::bf16_to_fp32_scalar, exhaustively cross-checked in tests) so
/// the packer loops stay call-free and vectorisable.
inline float widen(float v) { return v; }
inline float widen(std::uint16_t v) {
  return std::bit_cast<float>(static_cast<std::uint32_t>(v) << 16);
}

/// Packs op(A)[i0:i0+mc, p0:p0+kc] as ceil(mc/kMR) micro-panels; panel ir
/// holds kc columns of kMR rows each (zero-padded past the matrix edge).
template <typename TA>
void pack_a(const TA* a, bool trans, std::int64_t lda, std::int64_t i0,
            std::int64_t mc, std::int64_t p0, std::int64_t kc, float* dst) {
  for (std::int64_t ir = 0; ir < mc; ir += kMR) {
    const std::int64_t rows = std::min(kMR, mc - ir);
    if (trans) {
      // op(A)[i, p] = a[p * lda + i]: rows are contiguous in memory.
      for (std::int64_t p = 0; p < kc; ++p) {
        const TA* src = a + (p0 + p) * lda + i0 + ir;
        float* out = dst + p * kMR;
        for (std::int64_t r = 0; r < rows; ++r) out[r] = widen(src[r]);
        for (std::int64_t r = rows; r < kMR; ++r) out[r] = 0.0F;
      }
    } else {
      // a[i * lda + p]: depth is contiguous, scatter into panel slots.
      for (std::int64_t r = 0; r < kMR; ++r) {
        if (r < rows) {
          const TA* src = a + (i0 + ir + r) * lda + p0;
          for (std::int64_t p = 0; p < kc; ++p) {
            dst[p * kMR + r] = widen(src[p]);
          }
        } else {
          for (std::int64_t p = 0; p < kc; ++p) dst[p * kMR + r] = 0.0F;
        }
      }
    }
    dst += kMR * kc;
  }
}

/// Packs op(B)[p0:p0+kc, j0:j0+nc] as ceil(nc/kNR) micro-panels; panel jr
/// holds kc rows of kNR columns each (zero-padded past the matrix edge).
template <typename TB>
void pack_b(const TB* b, bool trans, std::int64_t ldb, std::int64_t p0,
            std::int64_t kc, std::int64_t j0, std::int64_t nc, float* dst) {
  for (std::int64_t jr = 0; jr < nc; jr += kNR) {
    const std::int64_t cols = std::min(kNR, nc - jr);
    if (trans) {
      // op(B)[p, j] = b[j * ldb + p]: depth is contiguous per column.
      for (std::int64_t j = 0; j < kNR; ++j) {
        if (j < cols) {
          const TB* src = b + (j0 + jr + j) * ldb + p0;
          for (std::int64_t p = 0; p < kc; ++p) {
            dst[p * kNR + j] = widen(src[p]);
          }
        } else {
          for (std::int64_t p = 0; p < kc; ++p) dst[p * kNR + j] = 0.0F;
        }
      }
    } else {
      // b[p * ldb + j]: columns are contiguous per depth step.
      for (std::int64_t p = 0; p < kc; ++p) {
        const TB* src = b + (p0 + p) * ldb + j0 + jr;
        float* out = dst + p * kNR;
        for (std::int64_t j = 0; j < cols; ++j) out[j] = widen(src[j]);
        for (std::int64_t j = cols; j < kNR; ++j) out[j] = 0.0F;
      }
    }
    dst += kNR * kc;
  }
}

/// acc[kMR, kNR] = sum_p ap[p, :] (outer) bp[p, :]. The hot loop: both
/// panels stream contiguously while the 6x16 accumulator tile lives in
/// twelve 8-wide vector registers for the entire depth loop.
EDGETRAIN_KERNEL_CLONES
void micro_kernel(std::int64_t kc, const float* __restrict ap,
                  const float* __restrict bp, float* __restrict acc) {
#if defined(EDGETRAIN_VECTOR_EXT)
  Vec8f c[kMR][2] = {};
  for (std::int64_t p = 0; p < kc; ++p) {
    Vec8f b0;
    Vec8f b1;
    std::memcpy(&b0, bp, sizeof b0);
    std::memcpy(&b1, bp + 8, sizeof b1);
#pragma GCC unroll 6
    for (std::int64_t i = 0; i < kMR; ++i) {
      const float av = ap[i];
      const Vec8f avv = {av, av, av, av, av, av, av, av};
      c[i][0] += avv * b0;
      c[i][1] += avv * b1;
    }
    ap += kMR;
    bp += kNR;
  }
  for (std::int64_t i = 0; i < kMR; ++i) {
    std::memcpy(acc + i * kNR, &c[i][0], sizeof(Vec8f));
    std::memcpy(acc + i * kNR + 8, &c[i][1], sizeof(Vec8f));
  }
#else
  float c[kMR * kNR] = {};
  for (std::int64_t p = 0; p < kc; ++p) {
    for (std::int64_t i = 0; i < kMR; ++i) {
      const float av = ap[i];
      for (std::int64_t j = 0; j < kNR; ++j) c[i * kNR + j] += av * bp[j];
    }
    ap += kMR;
    bp += kNR;
  }
  std::memcpy(acc, c, sizeof c);
#endif
}

/// c[rows, cols] = alpha * acc + beta * c (beta folds the previous value;
/// rows/cols clip the zero-padded accumulator at the matrix edge). Not
/// cloned: every path writes C back through this one function, so no v3/v4
/// clone can contract the write-back into an FMA for one path only.
void apply_tile(const float* acc, float* c, std::int64_t ldc,
                std::int64_t rows, std::int64_t cols, float alpha,
                float beta) {
  for (std::int64_t i = 0; i < rows; ++i) {
    const float* src = acc + i * kNR;
    float* dst = c + i * ldc;
    if (beta == 0.0F) {
      for (std::int64_t j = 0; j < cols; ++j) dst[j] = alpha * src[j];
    } else if (beta == 1.0F) {
      for (std::int64_t j = 0; j < cols; ++j) dst[j] += alpha * src[j];
    } else {
      for (std::int64_t j = 0; j < cols; ++j) {
        dst[j] = alpha * src[j] + beta * dst[j];
      }
    }
  }
}

/// C *= beta for the degenerate k == 0 / alpha == 0 cases.
void scale_c(float* c, std::int64_t m, std::int64_t n, float beta) {
  if (beta == 1.0F) return;
  parallel_for(0, m, 64, [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t i = r0; i < r1; ++i) {
      float* row = c + i * n;
      if (beta == 0.0F) {
        std::memset(row, 0, static_cast<std::size_t>(n) * sizeof(float));
      } else {
        for (std::int64_t j = 0; j < n; ++j) row[j] *= beta;
      }
    }
  });
}

// Narrow-n path. At batch 1 a late conv is a skinny GEMM -- ResNet-18's
// layer 4 at 64x64 input is m=512, n=4, k=4608 forward and m=4608, n=4,
// k=512 for the input gradient -- and packing all of op(A) on every call
// costs several times the multiply. When op(B) is not transposed and
// n <= kNarrowN, op(A) is streamed in place instead and op(B) (k x n, a few
// tens of KB) is read straight from its rows. Each C element keeps the
// blocked path's arithmetic exactly: per kKC block, a chain from 0.0f in p
// order in the same `c += a * b` vector form under the same clones as
// micro_kernel, then the same apply_tile write-back. So the two paths agree
// bit for bit, and the row-group grid below depends on m alone.
constexpr std::int64_t kNarrowN = 8;       // widest n the narrow path takes
constexpr std::int64_t kNarrowRows = 8;    // A rows in flight, lanes over n
constexpr std::int64_t kNarrowLanes = 16;  // op(A) rows per group, lanes over m

#if defined(EDGETRAIN_VECTOR_EXT)
/// One accumulator row of N lanes: n = 4 (the batch-1 2x2 conv) then loads
/// a B row with one 16-byte load and wastes no lanes.
template <int N>
using NarrowVec = std::conditional_t<(N <= 4), Vec4f, Vec8f>;
#endif

/// acc[r, 0:N] = sum_p rows[r][p] * b[p, 0:N] for kNarrowRows rows of a
/// non-transposed A (depth contiguous per row): each A element is
/// broadcast against one N-lane row of B. acc rows lie kNR apart, the
/// layout apply_tile reads.
template <int N, typename TA, typename TB>
EDGETRAIN_KERNEL_CLONES void narrow_kernel_rows(std::int64_t kc,
                                                const TA* const* rows,
                                                const TB* b,
                                                float* __restrict acc) {
#if defined(EDGETRAIN_VECTOR_EXT)
  NarrowVec<N> c[kNarrowRows] = {};
  for (std::int64_t p = 0; p < kc; ++p) {
    NarrowVec<N> bv = {};
    if constexpr (std::is_same_v<TB, float> && sizeof bv == N * sizeof(float)) {
      std::memcpy(&bv, b + p * N, sizeof bv);
    } else {
      for (int j = 0; j < N; ++j) bv[j] = widen(b[p * N + j]);
    }
#pragma GCC unroll 8
    for (std::int64_t r = 0; r < kNarrowRows; ++r) {
      c[r] += widen(rows[r][p]) * bv;
    }
  }
  for (std::int64_t r = 0; r < kNarrowRows; ++r) {
    for (int j = 0; j < N; ++j) acc[r * kNR + j] = c[r][j];
  }
#else
  float c[kNarrowRows * kNR] = {};
  for (std::int64_t p = 0; p < kc; ++p) {
    for (std::int64_t r = 0; r < kNarrowRows; ++r) {
      const float av = widen(rows[r][p]);
      for (int j = 0; j < N; ++j) c[r * kNR + j] += av * widen(b[p * N + j]);
    }
  }
  std::memcpy(acc, c, sizeof c);
#endif
}

/// acc[r, 0:N] = sum_p a[p * lda + r] * b[p, 0:N] for kNarrowLanes rows of
/// a transposed A (rows contiguous: one cache line per p); each B element
/// is broadcast against the 16 row lanes. Full = all 16 rows lie inside
/// the matrix; the fringe group loads only @p rows of them.
template <int N, bool Full, typename TA, typename TB>
EDGETRAIN_KERNEL_CLONES void narrow_kernel_lanes(std::int64_t kc, const TA* a,
                                                 std::int64_t lda,
                                                 std::int64_t rows,
                                                 const TB* b,
                                                 float* __restrict acc) {
#if defined(EDGETRAIN_VECTOR_EXT)
  Vec8f c[kNarrowN][2] = {};  // only the first N are live
  for (std::int64_t p = 0; p < kc; ++p) {
    float lanes[kNarrowLanes] = {};
    const TA* src = a + p * lda;
    for (std::int64_t r = 0; r < (Full ? kNarrowLanes : rows); ++r) {
      lanes[r] = widen(src[r]);
    }
    Vec8f a0;
    Vec8f a1;
    std::memcpy(&a0, lanes, sizeof a0);
    std::memcpy(&a1, lanes + 8, sizeof a1);
    for (int j = 0; j < N; ++j) {
      const float bv = widen(b[p * N + j]);
      const Vec8f bvv = {bv, bv, bv, bv, bv, bv, bv, bv};
      c[j][0] += a0 * bvv;
      c[j][1] += a1 * bvv;
    }
  }
  for (std::int64_t r = 0; r < kNarrowLanes; ++r) {
    for (int j = 0; j < N; ++j) acc[r * kNR + j] = c[j][r / 8][r % 8];
  }
#else
  float c[kNarrowLanes * kNR] = {};
  for (std::int64_t p = 0; p < kc; ++p) {
    for (std::int64_t r = 0; r < (Full ? kNarrowLanes : rows); ++r) {
      const float av = widen(a[p * lda + r]);
      for (int j = 0; j < N; ++j) c[r * kNR + j] += av * widen(b[p * N + j]);
    }
  }
  std::memcpy(acc, c, sizeof c);
#endif
}

/// C[m, n] = alpha * op(A) * B + beta * C for n <= N, B not transposed
/// (ldb = n). Recurses down to the compile-time lane count equal to n: a
/// runtime-width row copy runs slower than packing.
template <int N, typename TA, typename TB>
void gemm_narrow(bool trans_a, std::int64_t m, std::int64_t n, std::int64_t k,
                 float alpha, const TA* a, const TB* b, float beta, float* c) {
  if constexpr (N > 1) {
    if (n < N) {
      gemm_narrow<N - 1>(trans_a, m, n, k, alpha, a, b, beta, c);
      return;
    }
  }
  const std::int64_t group = trans_a ? kNarrowLanes : kNarrowRows;
  // Chunks of at least ~64K A elements, so small products stay inline.
  const std::int64_t grain = std::max<std::int64_t>(1, 65536 / (group * k));
  parallel_for(0, ceil_div(m, group), grain, [&](std::int64_t g0,
                                                 std::int64_t g1) {
    for (std::int64_t g = g0; g < g1; ++g) {
      const std::int64_t i0 = g * group;
      const std::int64_t rows = std::min(group, m - i0);
      for (std::int64_t p0 = 0; p0 < k; p0 += kKC) {
        const std::int64_t kc = std::min(kKC, k - p0);
        alignas(64) float acc[kNarrowLanes * kNR];
        if (trans_a) {
          const TA* ap = a + p0 * m + i0;
          if (rows == kNarrowLanes) {
            narrow_kernel_lanes<N, true>(kc, ap, m, rows, b + p0 * N, acc);
          } else {
            narrow_kernel_lanes<N, false>(kc, ap, m, rows, b + p0 * N, acc);
          }
        } else {
          // Rows past the matrix edge alias the last row; apply_tile
          // drops their results.
          const TA* row_ptrs[kNarrowRows];
          for (std::int64_t r = 0; r < kNarrowRows; ++r) {
            row_ptrs[r] = a + std::min(i0 + r, m - 1) * k + p0;
          }
          narrow_kernel_rows<N>(kc, row_ptrs, b + p0 * N, acc);
        }
        apply_tile(acc, c + i0 * N, N, rows, N, alpha,
                   p0 == 0 ? beta : 1.0F);
      }
    }
  });
}

/// Shared blocked driver: fp32 and bf16 gemm differ only in the element
/// type the packers widen from, so the task grid, workspace use and
/// accumulation order -- hence the determinism guarantees -- are one piece
/// of code. Callers have already handled degenerate shapes and guards.
/// Shape alone routes a narrow, non-transposed op(B) to gemm_narrow, which
/// packs nothing and gives the same bits.
template <typename TA, typename TB>
void gemm_blocked(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
                  std::int64_t k, float alpha, const TA* a, const TB* b,
                  float beta, float* c) {
  if (!trans_b && n <= kNarrowN) {
    gemm_narrow<kNarrowN>(trans_a, m, n, k, alpha, a, b, beta, c);
    return;
  }
  // Row-major: A is m x k (lda=k) or, transposed, stored k x m (lda=m).
  const std::int64_t lda = trans_a ? m : k;
  const std::int64_t ldb = trans_b ? k : n;

  // 2-D task grid over (M-block x N-block). When the natural kMC blocking
  // yields fewer tasks than workers, M-blocks shrink (to a kMR multiple) so
  // every worker gets a disjoint slab of C. The grid depends only on the
  // shapes and the pool size, and each C tile has a single writer with a
  // fixed k-accumulation order: results are deterministic.
  const std::int64_t n_blocks = ceil_div(n, kNC);
  const auto threads = static_cast<std::int64_t>(ThreadPool::global().size());
  std::int64_t m_blocks = ceil_div(m, kMC);
  const std::int64_t max_m_blocks = ceil_div(m, kMR);
  if (m_blocks * n_blocks < threads) {
    m_blocks = std::min(max_m_blocks, ceil_div(threads, n_blocks));
  }
  const std::int64_t mc_max = ceil_div(ceil_div(m, m_blocks), kMR) * kMR;
  m_blocks = ceil_div(m, mc_max);

  parallel_for(0, m_blocks * n_blocks, 1, [&](std::int64_t t0,
                                              std::int64_t t1) {
    Workspace& ws = Workspace::tls();
    const WorkspaceScope scope(ws);
    float* packed_a = ws.alloc(mc_max * kKC);
    float* packed_b = ws.alloc(kKC * kNC);
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t i0 = (t % m_blocks) * mc_max;
      const std::int64_t j0 = (t / m_blocks) * kNC;
      const std::int64_t mc = std::min(mc_max, m - i0);
      const std::int64_t nc = std::min(kNC, n - j0);
      for (std::int64_t p0 = 0; p0 < k; p0 += kKC) {
        const std::int64_t kc = std::min(kKC, k - p0);
        pack_a(a, trans_a, lda, i0, mc, p0, kc, packed_a);
        pack_b(b, trans_b, ldb, p0, kc, j0, nc, packed_b);
        const float beta_eff = p0 == 0 ? beta : 1.0F;
        for (std::int64_t jr = 0; jr < nc; jr += kNR) {
          for (std::int64_t ir = 0; ir < mc; ir += kMR) {
            alignas(64) float acc[kMR * kNR];
            micro_kernel(kc, packed_a + ir * kc, packed_b + jr * kc, acc);
            apply_tile(acc, c + (i0 + ir) * n + j0 + jr, n,
                       std::min(kMR, mc - ir), std::min(kNR, nc - jr), alpha,
                       beta_eff);
          }
        }
      }
    }
  });
}

// Per-thread gemm compute mode. thread_local (not global) so a bf16-scoped
// training step never changes what a concurrently running fp32 caller sees;
// pool workers never call gemm themselves, so the mode of the thread that
// *enters* gemm is the one that applies to the whole operation.
thread_local GemmPrecision tls_gemm_precision = GemmPrecision::Fp32;

}  // namespace

void set_gemm_precision(GemmPrecision mode) noexcept {
  tls_gemm_precision = mode;
}

GemmPrecision gemm_precision() noexcept { return tls_gemm_precision; }

void gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float* a, const float* b,
          float beta, float* c) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0 || alpha == 0.0F) {
    scale_c(c, m, n, beta);
    return;
  }
  if (tls_gemm_precision == GemmPrecision::Bf16) {
    // Mixed-precision mode: round both operands to bf16 in workspace
    // scratch and run the bf16 engine (fp32 accumulate). C (and beta's
    // read of it) stays full fp32 -- that is the master-weight contract.
    Workspace& ws = Workspace::tls();
    const WorkspaceScope scope(ws);
    auto* ab = reinterpret_cast<std::uint16_t*>(ws.alloc((m * k + 1) / 2));
    auto* bb = reinterpret_cast<std::uint16_t*>(ws.alloc((k * n + 1) / 2));
    convert::fp32_to_bf16(a, ab, m * k);
    convert::fp32_to_bf16(b, bb, k * n);
    gemm_bf16(trans_a, trans_b, m, n, k, alpha, ab, bb, beta, c);
    return;
  }

  // C tiles are written by concurrent workers that read A and B unsynchronised;
  // an in-place gemm would race.
  EDGETRAIN_GUARD_DISJOINT("gemm", {a, m * k}, {b, k * n}, {c, m * n});

  gemm_blocked(trans_a, trans_b, m, n, k, alpha, a, b, beta, c);
}

void gemm_bf16(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
               std::int64_t k, float alpha, const std::uint16_t* a,
               const std::uint16_t* b, float beta, float* c) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0 || alpha == 0.0F) {
    scale_c(c, m, n, beta);
    return;
  }
  EDGETRAIN_GUARD_DISJOINT("gemm_bf16",
                           {reinterpret_cast<const float*>(a), (m * k + 1) / 2},
                           {reinterpret_cast<const float*>(b), (k * n + 1) / 2},
                           {c, m * n});
  gemm_blocked(trans_a, trans_b, m, n, k, alpha, a, b, beta, c);
}

// ---------------------------------------------------------------------------
// Convolution
// ---------------------------------------------------------------------------

void im2col(const float* x, std::int64_t channels, std::int64_t h,
            std::int64_t w, std::int64_t kh, std::int64_t kw,
            const ConvParams& p, float* col) {
  const std::int64_t ho = conv_out_size(h, kh, p.stride, p.pad);
  const std::int64_t wo = conv_out_size(w, kw, p.stride, p.pad);
  const std::int64_t out_area = ho * wo;
  for (std::int64_t c = 0; c < channels; ++c) {
    for (std::int64_t ki = 0; ki < kh; ++ki) {
      for (std::int64_t kj = 0; kj < kw; ++kj) {
        const std::int64_t row = (c * kh + ki) * kw + kj;
        float* dst = col + row * out_area;
        if (p.stride == 1) {
          // Fast path: ix = ox - pad + kj walks in lockstep with ox, so the
          // valid span [ox_lo, ox_hi) is one contiguous memcpy per output
          // row, with memset fringes for the padding (bounds hoisted out of
          // the inner loop).
          const std::int64_t ox_lo = std::max<std::int64_t>(0, p.pad - kj);
          const std::int64_t ox_hi = std::min(wo, w + p.pad - kj);
          const std::int64_t run = ox_hi - ox_lo;
          for (std::int64_t oy = 0; oy < ho; ++oy) {
            const std::int64_t iy = oy - p.pad + ki;
            float* drow = dst + oy * wo;
            if (iy < 0 || iy >= h || run <= 0) {
              std::memset(drow, 0, static_cast<std::size_t>(wo) * sizeof(float));
              continue;
            }
            const float* src_row = x + (c * h + iy) * w + kj - p.pad;
            if (ox_lo > 0) {
              std::memset(drow, 0, static_cast<std::size_t>(ox_lo) * sizeof(float));
            }
            std::memcpy(drow + ox_lo, src_row + ox_lo,
                        static_cast<std::size_t>(run) * sizeof(float));
            if (ox_hi < wo) {
              std::memset(drow + ox_hi, 0,
                          static_cast<std::size_t>(wo - ox_hi) * sizeof(float));
            }
          }
          continue;
        }
        for (std::int64_t oy = 0; oy < ho; ++oy) {
          const std::int64_t iy = oy * p.stride - p.pad + ki;
          if (iy < 0 || iy >= h) {
            std::memset(dst + oy * wo, 0,
                        static_cast<std::size_t>(wo) * sizeof(float));
            continue;
          }
          const float* src_row = x + (c * h + iy) * w;
          for (std::int64_t ox = 0; ox < wo; ++ox) {
            const std::int64_t ix = ox * p.stride - p.pad + kj;
            dst[oy * wo + ox] =
                (ix >= 0 && ix < w) ? src_row[ix] : 0.0F;
          }
        }
      }
    }
  }
}

void col2im(const float* col, std::int64_t channels, std::int64_t h,
            std::int64_t w, std::int64_t kh, std::int64_t kw,
            const ConvParams& p, float* x) {
  const std::int64_t ho = conv_out_size(h, kh, p.stride, p.pad);
  const std::int64_t wo = conv_out_size(w, kw, p.stride, p.pad);
  const std::int64_t out_area = ho * wo;
  for (std::int64_t c = 0; c < channels; ++c) {
    for (std::int64_t ki = 0; ki < kh; ++ki) {
      for (std::int64_t kj = 0; kj < kw; ++kj) {
        const std::int64_t row = (c * kh + ki) * kw + kj;
        const float* src = col + row * out_area;
        if (p.stride == 1) {
          // Fast path mirror of im2col: one contiguous accumulate run per
          // output row, no per-pixel bounds checks.
          const std::int64_t ox_lo = std::max<std::int64_t>(0, p.pad - kj);
          const std::int64_t ox_hi = std::min(wo, w + p.pad - kj);
          if (ox_hi <= ox_lo) continue;
          for (std::int64_t oy = 0; oy < ho; ++oy) {
            const std::int64_t iy = oy - p.pad + ki;
            if (iy < 0 || iy >= h) continue;
            float* dst_row = x + (c * h + iy) * w + kj - p.pad;
            const float* srow = src + oy * wo;
            for (std::int64_t ox = ox_lo; ox < ox_hi; ++ox) {
              dst_row[ox] += srow[ox];
            }
          }
          continue;
        }
        for (std::int64_t oy = 0; oy < ho; ++oy) {
          const std::int64_t iy = oy * p.stride - p.pad + ki;
          if (iy < 0 || iy >= h) continue;
          float* dst_row = x + (c * h + iy) * w;
          for (std::int64_t ox = 0; ox < wo; ++ox) {
            const std::int64_t ix = ox * p.stride - p.pad + kj;
            if (ix >= 0 && ix < w) dst_row[ix] += src[oy * wo + ox];
          }
        }
      }
    }
  }
}

Tensor conv2d_forward(const Tensor& x, const Tensor& w, const Tensor& bias,
                      const ConvParams& p) {
  check(x.shape().rank() == 4, "conv2d: x must be NCHW");
  check(w.shape().rank() == 4, "conv2d: w must be [Cout,Cin,kh,kw]");
  const std::int64_t n = x.shape()[0];
  const std::int64_t cin = x.shape()[1];
  const std::int64_t h = x.shape()[2];
  const std::int64_t wd = x.shape()[3];
  const std::int64_t cout = w.shape()[0];
  check(w.shape()[1] == cin, "conv2d: channel mismatch");
  const std::int64_t kh = w.shape()[2];
  const std::int64_t kw = w.shape()[3];
  const std::int64_t ho = conv_out_size(h, kh, p.stride, p.pad);
  const std::int64_t wo = conv_out_size(wd, kw, p.stride, p.pad);
  check(ho > 0 && wo > 0, "conv2d: empty output");

  Tensor y = Tensor::empty(Shape{n, cout, ho, wo});
  const std::int64_t col_rows = cin * kh * kw;
  const std::int64_t out_area = ho * wo;
  Workspace& ws = Workspace::tls();
  const WorkspaceScope scope(ws);
  float* col = ws.alloc(col_rows * out_area);

  for (std::int64_t img = 0; img < n; ++img) {
    im2col(x.data() + img * cin * h * wd, cin, h, wd, kh, kw, p, col);
    // y[img] = W[cout, col_rows] * col
    gemm(false, false, cout, out_area, col_rows, 1.0F, w.data(), col,
         0.0F, y.data() + img * cout * out_area);
    if (bias.defined()) {
      float* yp = y.data() + img * cout * out_area;
      for (std::int64_t c = 0; c < cout; ++c) {
        const float b = bias.data()[c];
        for (std::int64_t i = 0; i < out_area; ++i) yp[c * out_area + i] += b;
      }
    }
  }
  return y;
}

Tensor conv2d_backward_acc(const Tensor& grad_y, const Tensor& x,
                           const Tensor& w, const ConvParams& p,
                           Tensor& grad_w_acc, Tensor* grad_b_acc) {
  const std::int64_t n = x.shape()[0];
  const std::int64_t cin = x.shape()[1];
  const std::int64_t h = x.shape()[2];
  const std::int64_t wd = x.shape()[3];
  const std::int64_t cout = w.shape()[0];
  const std::int64_t kh = w.shape()[2];
  const std::int64_t kw = w.shape()[3];
  const std::int64_t ho = grad_y.shape()[2];
  const std::int64_t wo = grad_y.shape()[3];
  const std::int64_t out_area = ho * wo;
  const std::int64_t col_rows = cin * kh * kw;
  check(grad_w_acc.shape() == w.shape(), "conv2d_backward: grad_w shape");

  Tensor grad_x = Tensor::zeros(x.shape());

  Workspace& ws = Workspace::tls();
  const WorkspaceScope scope(ws);
  float* col = ws.alloc(col_rows * out_area);
  float* col_grad = ws.alloc(col_rows * out_area);

  for (std::int64_t img = 0; img < n; ++img) {
    const float* gy = grad_y.data() + img * cout * out_area;
    // grad_w += gy[cout, area] * col^T -> [cout, col_rows]
    im2col(x.data() + img * cin * h * wd, cin, h, wd, kh, kw, p, col);
    gemm(false, true, cout, col_rows, out_area, 1.0F, gy, col, 1.0F,
         grad_w_acc.data());
    // col_grad = W^T[col_rows, cout] * gy
    gemm(true, false, col_rows, out_area, cout, 1.0F, w.data(), gy, 0.0F,
         col_grad);
    col2im(col_grad, cin, h, wd, kh, kw, p,
           grad_x.data() + img * cin * h * wd);
    if (grad_b_acc != nullptr) {
      float* gb = grad_b_acc->data();
      for (std::int64_t c = 0; c < cout; ++c) {
        double acc = 0.0;
        for (std::int64_t i = 0; i < out_area; ++i) acc += gy[c * out_area + i];
        gb[c] += static_cast<float>(acc);
      }
    }
  }
  return grad_x;
}

Conv2dGrads conv2d_backward(const Tensor& grad_y, const Tensor& x,
                            const Tensor& w, const ConvParams& p,
                            bool with_bias) {
  Conv2dGrads grads;
  grads.grad_w = Tensor::zeros(w.shape());
  if (with_bias) grads.grad_b = Tensor::zeros(Shape{w.shape()[0]});
  grads.grad_x =
      conv2d_backward_acc(grad_y, x, w, p, grads.grad_w,
                          with_bias ? &grads.grad_b : nullptr);
  return grads;
}

// ---------------------------------------------------------------------------
// Activation / pooling
// ---------------------------------------------------------------------------

Tensor relu_forward(const Tensor& x) {
  Tensor y = Tensor::empty(x.shape());
  const float* xp = x.data();
  float* yp = y.data();
  const std::int64_t n = x.numel();
  EDGETRAIN_GUARD_DISJOINT("relu_forward", {xp, n}, {yp, n});
  parallel_for(0, n, 1 << 16, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) yp[i] = xp[i] > 0.0F ? xp[i] : 0.0F;
  });
  return y;
}

Tensor relu_backward(const Tensor& grad_y, const Tensor& y) {
  check(grad_y.shape() == y.shape(), "relu_backward: shape mismatch");
  Tensor gx = Tensor::empty(y.shape());
  const float* gy = grad_y.data();
  const float* yp = y.data();
  float* gp = gx.data();
  const std::int64_t n = y.numel();
  EDGETRAIN_GUARD_DISJOINT("relu_backward", {gy, n}, {yp, n}, {gp, n});
  parallel_for(0, n, 1 << 16, [&](std::int64_t b, std::int64_t e) {
    // gy is loaded whether or not it is used: a load under the branch
    // keeps the loop scalar and mispredicting on a half-positive y.
    for (std::int64_t i = b; i < e; ++i) {
      const float g = gy[i];
      gp[i] = yp[i] > 0.0F ? g : 0.0F;
    }
  });
  return gx;
}

namespace {
/// One pooling tap across output columns [ox0, ox1) of a row: best[ox]
/// takes row[ox * s + off] (input offset idx0 + ox * s + off) where that is
/// strictly greater. Mask selects instead of branches, so the loop
/// vectorises: a branch on half-random data mispredicts half the time.
void maxpool_tap(const float* __restrict row, std::int64_t s,
                 std::int64_t off, std::int64_t idx0, std::int64_t ox0,
                 std::int64_t ox1, float* __restrict best,
                 std::int32_t* __restrict best_idx) {
  for (std::int64_t ox = ox0; ox < ox1; ++ox) {
    const std::int64_t ix = ox * s + off;
    const float v = row[ix];
    const float cur = best[ox];
    const std::int32_t wins = -static_cast<std::int32_t>(v > cur);
    best[ox] = std::bit_cast<float>((std::bit_cast<std::int32_t>(v) & wins) |
                                    (std::bit_cast<std::int32_t>(cur) & ~wins));
    best_idx[ox] = (static_cast<std::int32_t>(idx0 + ix) & wins) |
                   (best_idx[ox] & ~wins);
  }
}
}  // namespace

MaxPoolResult maxpool2d_forward(const Tensor& x, std::int64_t k,
                                const ConvParams& p) {
  const std::int64_t n = x.shape()[0];
  const std::int64_t c = x.shape()[1];
  const std::int64_t h = x.shape()[2];
  const std::int64_t w = x.shape()[3];
  const std::int64_t ho = conv_out_size(h, k, p.stride, p.pad);
  const std::int64_t wo = conv_out_size(w, k, p.stride, p.pad);

  MaxPoolResult result;
  result.y = Tensor::empty(Shape{n, c, ho, wo});
  result.argmax.resize(static_cast<std::size_t>(n * c * ho * wo));

  const float* xp = x.data();
  float* yp = result.y.data();
  std::int32_t* am = result.argmax.data();

  // Output columns [ox_lo, ox_hi) have every tap inside the input row and
  // skip the per-tap bounds check.
  const std::int64_t s = p.stride;
  const std::int64_t right = w + p.pad - k;
  const std::int64_t ox_lo = std::min(wo, ceil_div(p.pad, s));
  const std::int64_t ox_hi =
      std::max(ox_lo, right < 0 ? 0 : std::min(wo, right / s + 1));

  for (std::int64_t plane = 0; plane < n * c; ++plane) {
    const float* in = xp + plane * h * w;
    for (std::int64_t oy = 0; oy < ho; ++oy) {
      float* best = yp + (plane * ho + oy) * wo;
      std::int32_t* best_idx = am + (plane * ho + oy) * wo;
      const std::int64_t iy0 = oy * s - p.pad;
      // A window whose taps are all -inf or NaN keeps its first in-bounds
      // tap, so its gradient stays inside the window.
      for (std::int64_t ox = 0; ox < wo; ++ox) {
        best[ox] = -std::numeric_limits<float>::infinity();
        best_idx[ox] = static_cast<std::int32_t>(
            std::clamp<std::int64_t>(iy0, 0, h - 1) * w +
            std::clamp<std::int64_t>(ox * s - p.pad, 0, w - 1));
      }
      // Taps in (ki, kj) order with a strict >, as a per-window scan visits
      // them: ties go to the first tap and NaN never wins.
      for (std::int64_t ki = 0; ki < k; ++ki) {
        const std::int64_t iy = iy0 + ki;
        if (iy < 0 || iy >= h) continue;
        const float* row = in + iy * w;
        for (std::int64_t kj = 0; kj < k; ++kj) {
          const std::int64_t off = kj - p.pad;
          const auto visit_edge = [&](std::int64_t ox) {
            const std::int64_t ix = ox * s + off;
            if (ix >= 0 && ix < w) {
              maxpool_tap(row, s, off, iy * w, ox, ox + 1, best, best_idx);
            }
          };
          for (std::int64_t ox = 0; ox < ox_lo; ++ox) visit_edge(ox);
          maxpool_tap(row, s, off, iy * w, ox_lo, ox_hi, best, best_idx);
          for (std::int64_t ox = ox_hi; ox < wo; ++ox) visit_edge(ox);
        }
      }
    }
  }
  return result;
}

Tensor maxpool2d_backward(const Tensor& grad_y,
                          const std::vector<std::int32_t>& argmax,
                          const Shape& x_shape) {
  Tensor gx = Tensor::zeros(x_shape);
  const std::int64_t n = grad_y.shape()[0];
  const std::int64_t c = grad_y.shape()[1];
  const std::int64_t area_out = grad_y.shape()[2] * grad_y.shape()[3];
  const std::int64_t area_in = x_shape[2] * x_shape[3];
  const float* gy = grad_y.data();
  float* gp = gx.data();
  for (std::int64_t plane = 0; plane < n * c; ++plane) {
    const float* gy_plane = gy + plane * area_out;
    float* gx_plane = gp + plane * area_in;
    const std::int32_t* am = argmax.data() + plane * area_out;
    for (std::int64_t i = 0; i < area_out; ++i) {
      gx_plane[am[i]] += gy_plane[i];
    }
  }
  return gx;
}

Tensor global_avgpool_forward(const Tensor& x) {
  const std::int64_t n = x.shape()[0];
  const std::int64_t c = x.shape()[1];
  const std::int64_t area = x.shape()[2] * x.shape()[3];
  Tensor y = Tensor::empty(Shape{n, c});
  const float* xp = x.data();
  float* yp = y.data();
  for (std::int64_t plane = 0; plane < n * c; ++plane) {
    double acc = 0.0;
    const float* src = xp + plane * area;
    for (std::int64_t i = 0; i < area; ++i) acc += src[i];
    yp[plane] = static_cast<float>(acc / static_cast<double>(area));
  }
  return y;
}

Tensor global_avgpool_backward(const Tensor& grad_y, const Shape& x_shape) {
  const std::int64_t n = x_shape[0];
  const std::int64_t c = x_shape[1];
  const std::int64_t area = x_shape[2] * x_shape[3];
  Tensor gx = Tensor::empty(x_shape);
  const float* gy = grad_y.data();
  float* gp = gx.data();
  const float inv_area = 1.0F / static_cast<float>(area);
  for (std::int64_t plane = 0; plane < n * c; ++plane) {
    const float g = gy[plane] * inv_area;
    float* dst = gp + plane * area;
    for (std::int64_t i = 0; i < area; ++i) dst[i] = g;
  }
  return gx;
}

namespace {
/// SplitMix64: high-quality counter-based hash; uniform in [0, 1).
inline float unit_hash(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return static_cast<float>(z >> 40) * (1.0F / 16777216.0F);
}
}  // namespace

Tensor dropout_forward(const Tensor& x, float rate, std::uint64_t seed) {
  check(rate >= 0.0F && rate < 1.0F, "dropout: rate must be in [0,1)");
  Tensor y = Tensor::empty(x.shape());
  const float* xp = x.data();
  float* yp = y.data();
  const float scale = 1.0F / (1.0F - rate);
  const std::int64_t n = x.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    yp[i] = unit_hash(seed, static_cast<std::uint64_t>(i)) >= rate
                ? xp[i] * scale
                : 0.0F;
  }
  return y;
}

Tensor dropout_backward(const Tensor& grad_y, float rate, std::uint64_t seed) {
  Tensor gx = Tensor::empty(grad_y.shape());
  const float* gy = grad_y.data();
  float* gp = gx.data();
  const float scale = 1.0F / (1.0F - rate);
  const std::int64_t n = grad_y.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    gp[i] = unit_hash(seed, static_cast<std::uint64_t>(i)) >= rate
                ? gy[i] * scale
                : 0.0F;
  }
  return gx;
}

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

Tensor linear_forward(const Tensor& x, const Tensor& w, const Tensor& b) {
  check(x.shape().rank() == 2, "linear: x must be [N,in]");
  const std::int64_t n = x.shape()[0];
  const std::int64_t in = x.shape()[1];
  const std::int64_t out = w.shape()[0];
  check(w.shape()[1] == in, "linear: dim mismatch");
  Tensor y = Tensor::empty(Shape{n, out});
  // y = x[n,in] * w^T[in,out]
  gemm(false, true, n, out, in, 1.0F, x.data(), w.data(), 0.0F, y.data());
  if (b.defined()) {
    float* yp = y.data();
    const float* bp = b.data();
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < out; ++j) yp[i * out + j] += bp[j];
    }
  }
  return y;
}

Tensor linear_backward_acc(const Tensor& grad_y, const Tensor& x,
                           const Tensor& w, Tensor& grad_w_acc,
                           Tensor* grad_b_acc) {
  const std::int64_t n = x.shape()[0];
  const std::int64_t in = x.shape()[1];
  const std::int64_t out = w.shape()[0];
  check(grad_w_acc.shape() == w.shape(), "linear_backward: grad_w shape");
  Tensor grad_x = Tensor::empty(Shape{n, in});
  // grad_x = gy[n,out] * w[out,in]
  gemm(false, false, n, in, out, 1.0F, grad_y.data(), w.data(), 0.0F,
       grad_x.data());
  // grad_w += gy^T[out,n] * x[n,in]
  gemm(true, false, out, in, n, 1.0F, grad_y.data(), x.data(), 1.0F,
       grad_w_acc.data());
  if (grad_b_acc != nullptr) {
    float* gb = grad_b_acc->data();
    const float* gy = grad_y.data();
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < out; ++j) gb[j] += gy[i * out + j];
    }
  }
  return grad_x;
}

LinearGrads linear_backward(const Tensor& grad_y, const Tensor& x,
                            const Tensor& w, bool with_bias) {
  LinearGrads grads;
  grads.grad_w = Tensor::zeros(w.shape());
  if (with_bias) grads.grad_b = Tensor::zeros(Shape{w.shape()[0]});
  grads.grad_x = linear_backward_acc(grad_y, x, w, grads.grad_w,
                                     with_bias ? &grads.grad_b : nullptr);
  return grads;
}

// ---------------------------------------------------------------------------
// Batch normalisation
// ---------------------------------------------------------------------------

BatchNormState batchnorm2d_forward(const Tensor& x, const Tensor& gamma,
                                   const Tensor& beta, Tensor& running_mean,
                                   Tensor& running_var, float momentum,
                                   float eps, bool update_running) {
  const std::int64_t n = x.shape()[0];
  const std::int64_t c = x.shape()[1];
  const std::int64_t area = x.shape()[2] * x.shape()[3];
  const std::int64_t count = n * area;

  BatchNormState state;
  state.y = Tensor::empty(x.shape());
  state.mean = Tensor::empty(Shape{c});
  state.inv_std = Tensor::empty(Shape{c});

  const float* xp = x.data();
  float* yp = state.y.data();
  float* mean = state.mean.data();
  float* inv_std = state.inv_std.data();
  const float* g = gamma.data();
  const float* bt = beta.data();

  EDGETRAIN_GUARD_DISJOINT("batchnorm2d_forward", {xp, n * c * area},
                           {yp, n * c * area}, {mean, c}, {inv_std, c});
  parallel_for(0, c, 1, [&](std::int64_t c0, std::int64_t c1) {
    for (std::int64_t ch = c0; ch < c1; ++ch) {
      double sum = 0.0;
      double sumsq = 0.0;
      for (std::int64_t img = 0; img < n; ++img) {
        const float* plane = xp + (img * c + ch) * area;
        for (std::int64_t i = 0; i < area; ++i) {
          sum += plane[i];
          sumsq += static_cast<double>(plane[i]) * plane[i];
        }
      }
      const double mu = sum / static_cast<double>(count);
      const double var = sumsq / static_cast<double>(count) - mu * mu;
      const double istd = 1.0 / std::sqrt(std::max(var, 0.0) + eps);
      mean[ch] = static_cast<float>(mu);
      inv_std[ch] = static_cast<float>(istd);
      const float scale = static_cast<float>(istd) * g[ch];
      const float shift = bt[ch] - static_cast<float>(mu) * scale;
      for (std::int64_t img = 0; img < n; ++img) {
        const float* src = xp + (img * c + ch) * area;
        float* dst = yp + (img * c + ch) * area;
        for (std::int64_t i = 0; i < area; ++i) dst[i] = src[i] * scale + shift;
      }
      if (update_running) {
        running_mean.data()[ch] = (1.0F - momentum) * running_mean.data()[ch] +
                                  momentum * static_cast<float>(mu);
        running_var.data()[ch] = (1.0F - momentum) * running_var.data()[ch] +
                                 momentum * static_cast<float>(var);
      }
    }
  });
  return state;
}

Tensor batchnorm2d_infer(const Tensor& x, const Tensor& gamma,
                         const Tensor& beta, const Tensor& running_mean,
                         const Tensor& running_var, float eps) {
  const std::int64_t n = x.shape()[0];
  const std::int64_t c = x.shape()[1];
  const std::int64_t area = x.shape()[2] * x.shape()[3];
  Tensor y = Tensor::empty(x.shape());
  const float* xp = x.data();
  float* yp = y.data();
  for (std::int64_t ch = 0; ch < c; ++ch) {
    const float istd =
        1.0F / std::sqrt(running_var.data()[ch] + eps);
    const float scale = istd * gamma.data()[ch];
    const float shift = beta.data()[ch] - running_mean.data()[ch] * scale;
    for (std::int64_t img = 0; img < n; ++img) {
      const float* src = xp + (img * c + ch) * area;
      float* dst = yp + (img * c + ch) * area;
      for (std::int64_t i = 0; i < area; ++i) dst[i] = src[i] * scale + shift;
    }
  }
  return y;
}

BatchNormGrads batchnorm2d_backward(const Tensor& grad_y, const Tensor& x,
                                    const Tensor& gamma,
                                    const BatchNormState& state) {
  const std::int64_t n = x.shape()[0];
  const std::int64_t c = x.shape()[1];
  const std::int64_t area = x.shape()[2] * x.shape()[3];
  const std::int64_t count = n * area;

  BatchNormGrads grads;
  grads.grad_x = Tensor::empty(x.shape());
  grads.grad_gamma = Tensor::zeros(Shape{c});
  grads.grad_beta = Tensor::zeros(Shape{c});

  const float* xp = x.data();
  const float* gy = grad_y.data();
  float* gx = grads.grad_x.data();
  float* gg = grads.grad_gamma.data();
  float* gb = grads.grad_beta.data();

  EDGETRAIN_GUARD_DISJOINT("batchnorm2d_backward", {xp, n * c * area},
                           {gy, n * c * area}, {gx, n * c * area}, {gg, c},
                           {gb, c});
  parallel_for(0, c, 1, [&](std::int64_t c0, std::int64_t c1) {
    for (std::int64_t ch = c0; ch < c1; ++ch) {
      const float mu = state.mean.data()[ch];
      const float istd = state.inv_std.data()[ch];
      const float g = gamma.data()[ch];
      double sum_gy = 0.0;
      double sum_gy_xhat = 0.0;
      for (std::int64_t img = 0; img < n; ++img) {
        const float* src = xp + (img * c + ch) * area;
        const float* gsrc = gy + (img * c + ch) * area;
        for (std::int64_t i = 0; i < area; ++i) {
          const float xhat = (src[i] - mu) * istd;
          sum_gy += gsrc[i];
          sum_gy_xhat += static_cast<double>(gsrc[i]) * xhat;
        }
      }
      gg[ch] = static_cast<float>(sum_gy_xhat);
      gb[ch] = static_cast<float>(sum_gy);
      const float mean_gy =
          static_cast<float>(sum_gy / static_cast<double>(count));
      const float mean_gy_xhat =
          static_cast<float>(sum_gy_xhat / static_cast<double>(count));
      for (std::int64_t img = 0; img < n; ++img) {
        const float* src = xp + (img * c + ch) * area;
        const float* gsrc = gy + (img * c + ch) * area;
        float* dst = gx + (img * c + ch) * area;
        for (std::int64_t i = 0; i < area; ++i) {
          const float xhat = (src[i] - mu) * istd;
          dst[i] = g * istd * (gsrc[i] - mean_gy - xhat * mean_gy_xhat);
        }
      }
    }
  });
  return grads;
}

// ---------------------------------------------------------------------------
// Loss
// ---------------------------------------------------------------------------

SoftmaxXentResult softmax_xent_forward(const Tensor& logits,
                                       const std::vector<std::int32_t>& labels) {
  const std::int64_t n = logits.shape()[0];
  const std::int64_t k = logits.shape()[1];
  check(static_cast<std::int64_t>(labels.size()) == n,
        "softmax_xent: label count mismatch");
  SoftmaxXentResult result;
  result.probs = Tensor::empty(logits.shape());
  const float* lp = logits.data();
  float* pp = result.probs.data();
  double loss = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = lp + i * k;
    float* prow = pp + i * k;
    float mx = row[0];
    for (std::int64_t j = 1; j < k; ++j) mx = std::max(mx, row[j]);
    double denom = 0.0;
    for (std::int64_t j = 0; j < k; ++j) {
      prow[j] = std::exp(row[j] - mx);
      denom += prow[j];
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (std::int64_t j = 0; j < k; ++j) prow[j] *= inv;
    const std::int32_t label = labels[static_cast<std::size_t>(i)];
    check(label >= 0 && label < k, "softmax_xent: label out of range");
    loss -= std::log(std::max(static_cast<double>(prow[label]), 1e-12));
  }
  result.loss = static_cast<float>(loss / static_cast<double>(n));
  return result;
}

Tensor softmax_xent_backward(const Tensor& probs,
                             const std::vector<std::int32_t>& labels) {
  const std::int64_t n = probs.shape()[0];
  const std::int64_t k = probs.shape()[1];
  Tensor grad = probs.clone();
  float* gp = grad.data();
  const float inv_n = 1.0F / static_cast<float>(n);
  for (std::int64_t i = 0; i < n; ++i) {
    gp[i * k + labels[static_cast<std::size_t>(i)]] -= 1.0F;
    for (std::int64_t j = 0; j < k; ++j) gp[i * k + j] *= inv_n;
  }
  return grad;
}

std::vector<std::int32_t> argmax_rows(const Tensor& logits) {
  const std::int64_t n = logits.shape()[0];
  const std::int64_t k = logits.shape()[1];
  std::vector<std::int32_t> out(static_cast<std::size_t>(n));
  const float* lp = logits.data();
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = lp + i * k;
    std::int32_t best = 0;
    for (std::int64_t j = 1; j < k; ++j) {
      if (row[j] > row[best]) best = static_cast<std::int32_t>(j);
    }
    out[static_cast<std::size_t>(i)] = best;
  }
  return out;
}

Tensor softmax_rows(const Tensor& logits, float temperature) {
  check(temperature > 0.0F, "softmax_rows: temperature must be > 0");
  const std::int64_t n = logits.shape()[0];
  const std::int64_t k = logits.shape()[1];
  Tensor probs = Tensor::empty(logits.shape());
  const float* lp = logits.data();
  float* pp = probs.data();
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = lp + i * k;
    float* prow = pp + i * k;
    float mx = row[0];
    for (std::int64_t j = 1; j < k; ++j) mx = std::max(mx, row[j]);
    double denom = 0.0;
    for (std::int64_t j = 0; j < k; ++j) {
      prow[j] = std::exp((row[j] - mx) / temperature);
      denom += prow[j];
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (std::int64_t j = 0; j < k; ++j) prow[j] *= inv;
  }
  return probs;
}

DistillResult distill_loss(const Tensor& student_logits,
                           const Tensor& teacher_logits,
                           const std::vector<std::int32_t>& labels,
                           float alpha, float temperature) {
  check(student_logits.shape() == teacher_logits.shape(),
        "distill: logits shape mismatch");
  check(alpha >= 0.0F && alpha <= 1.0F, "distill: alpha must be in [0,1]");
  const std::int64_t n = student_logits.shape()[0];
  const std::int64_t k = student_logits.shape()[1];

  DistillResult result;
  result.grad_student_logits = Tensor::zeros(student_logits.shape());
  float* grad = result.grad_student_logits.data();
  double loss = 0.0;
  const float inv_n = 1.0F / static_cast<float>(n);

  // Hard-label term.
  if (alpha > 0.0F) {
    const SoftmaxXentResult hard =
        softmax_xent_forward(student_logits, labels);
    loss += static_cast<double>(alpha) * hard.loss;
    const float* p = hard.probs.data();
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < k; ++j) {
        const float onehot =
            j == labels[static_cast<std::size_t>(i)] ? 1.0F : 0.0F;
        grad[i * k + j] += alpha * (p[i * k + j] - onehot) * inv_n;
      }
    }
  }

  // Soft-label term: T^2 * KL(p_teacher^T || p_student^T); gradient
  // T^2 * (1/T) * (ps - pt) = T * (ps - pt).
  if (alpha < 1.0F) {
    const Tensor ps = softmax_rows(student_logits, temperature);
    const Tensor pt = softmax_rows(teacher_logits, temperature);
    const float t2 = temperature * temperature;
    const float soft_weight = 1.0F - alpha;
    double kl = 0.0;
    for (std::int64_t i = 0; i < n * k; ++i) {
      const double teacher_p = std::max<double>(pt.data()[i], 1e-12);
      const double student_p = std::max<double>(ps.data()[i], 1e-12);
      kl += teacher_p * std::log(teacher_p / student_p);
      grad[i] += soft_weight * temperature *
                 (ps.data()[i] - pt.data()[i]) * inv_n;
    }
    loss += static_cast<double>(soft_weight) * t2 * kl /
            static_cast<double>(n);
  }

  result.loss = static_cast<float>(loss);
  return result;
}

}  // namespace edgetrain::ops

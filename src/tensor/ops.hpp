// edgetrain: CNN compute kernels (forward and backward).
//
// All kernels operate on NCHW float tensors and are free functions so that
// layers stay thin. Convolution uses im2col + GEMM; GEMM, conv and batch
// norm parallelise over the global thread pool. Backward kernels implement
// the exact adjoints of the forwards (validated by numerical grad-checks in
// tests/nn/gradcheck_test.cpp).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "tensor/tensor.hpp"

namespace edgetrain::ops {

/// Output spatial size of a conv/pool: floor((in + 2*pad - kernel)/stride)+1.
[[nodiscard]] std::int64_t conv_out_size(std::int64_t in, std::int64_t kernel,
                                         std::int64_t stride,
                                         std::int64_t pad) noexcept;

// ---------------------------------------------------------------------------
// GEMM
// ---------------------------------------------------------------------------

/// C[M,N] = alpha * op(A) * op(B) + beta * C, row-major.
/// op(A) is A[M,K] if !trans_a, else A[K,M] read transposed (same for B).
///
/// Cache-blocked and packed: op(A)/op(B) panels are copied into contiguous
/// tiles in the per-thread Workspace arena and consumed by a register-tiled
/// micro-kernel; work is parallelised 2-D over (M-block x N-block) tasks on
/// the global ThreadPool. Every C tile has exactly one writer with a fixed
/// k-accumulation order, so output is bit-for-bit reproducible across runs
/// and worker counts. Steady state allocates nothing (arena reuse).
void gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float* a, const float* b,
          float beta, float* c);

/// gemm with bfloat16 operands and fp32 accumulation: both panels widen to
/// fp32 during packing and run through the *same* blocked micro-kernel as
/// the fp32 gemm, so the result is bit-identical to ops::gemm called on
/// pre-widened copies of a and b -- and inherits its determinism across
/// thread counts. a/b hold bf16 bit patterns (see tensor/convert.hpp).
void gemm_bf16(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
               std::int64_t k, float alpha, const std::uint16_t* a,
               const std::uint16_t* b, float beta, float* c);

/// Compute precision of ops::gemm on the *calling thread*. In Bf16 mode
/// every gemm call rounds both operands to bfloat16 (round-to-nearest-even,
/// into Workspace scratch) and accumulates in fp32 -- the mixed-precision
/// recipe for master-weight training: parameters and optimizer state stay
/// fp32, only the GEMM operands are rounded. Conv and linear layers (and
/// their backwards) all funnel through gemm, so scoping a training step
/// switches the whole chain.
enum class GemmPrecision : std::uint8_t { Fp32, Bf16 };

void set_gemm_precision(GemmPrecision mode) noexcept;
[[nodiscard]] GemmPrecision gemm_precision() noexcept;

/// RAII scope for GemmPrecision; restores the previous mode on exit.
class ScopedGemmPrecision {
 public:
  explicit ScopedGemmPrecision(GemmPrecision mode) noexcept
      : previous_(gemm_precision()) {
    set_gemm_precision(mode);
  }
  ~ScopedGemmPrecision() { set_gemm_precision(previous_); }
  ScopedGemmPrecision(const ScopedGemmPrecision&) = delete;
  ScopedGemmPrecision& operator=(const ScopedGemmPrecision&) = delete;

 private:
  GemmPrecision previous_;
};

// ---------------------------------------------------------------------------
// Convolution (im2col + GEMM)
// ---------------------------------------------------------------------------

struct ConvParams {
  std::int64_t stride = 1;
  std::int64_t pad = 0;
};

/// x[N,Cin,H,W] (*) w[Cout,Cin,kh,kw] + bias[Cout] -> y[N,Cout,Ho,Wo].
/// @p bias may be undefined (no bias).
[[nodiscard]] Tensor conv2d_forward(const Tensor& x, const Tensor& w,
                                    const Tensor& bias, const ConvParams& p);

struct Conv2dGrads {
  Tensor grad_x;
  Tensor grad_w;
  Tensor grad_b;  // undefined when the forward had no bias
};

/// Adjoint of conv2d_forward. @p with_bias selects whether grad_b is formed.
[[nodiscard]] Conv2dGrads conv2d_backward(const Tensor& grad_y,
                                          const Tensor& x, const Tensor& w,
                                          const ConvParams& p, bool with_bias);

/// Adjoint of conv2d_forward that *accumulates* parameter gradients in
/// place: grad_w_acc += dL/dw and, when non-null, grad_b_acc += dL/db.
/// Returns dL/dx. Skips the temporary grad_w tensor (and the extra add
/// pass) that the struct-returning overload pays per step; all scratch is
/// drawn from the per-thread Workspace.
[[nodiscard]] Tensor conv2d_backward_acc(const Tensor& grad_y, const Tensor& x,
                                         const Tensor& w, const ConvParams& p,
                                         Tensor& grad_w_acc,
                                         Tensor* grad_b_acc);

/// Lowers one image x[C,H,W] into col[C*kh*kw, Ho*Wo]; exposed for tests.
void im2col(const float* x, std::int64_t channels, std::int64_t h,
            std::int64_t w, std::int64_t kh, std::int64_t kw,
            const ConvParams& p, float* col);

/// Adjoint of im2col: accumulates col back into x (x must be pre-zeroed).
void col2im(const float* col, std::int64_t channels, std::int64_t h,
            std::int64_t w, std::int64_t kh, std::int64_t kw,
            const ConvParams& p, float* x);

// ---------------------------------------------------------------------------
// Activation / pooling
// ---------------------------------------------------------------------------

/// y = max(x, 0).
[[nodiscard]] Tensor relu_forward(const Tensor& x);
/// grad_x = grad_y * (y > 0). Uses the *output* (valid since y>0 iff x>0).
[[nodiscard]] Tensor relu_backward(const Tensor& grad_y, const Tensor& y);

struct MaxPoolResult {
  Tensor y;
  std::vector<std::int32_t> argmax;  // flat input offset per output element
};

/// Max pooling with kernel @p k, stride and pad from @p p; -inf padding.
[[nodiscard]] MaxPoolResult maxpool2d_forward(const Tensor& x, std::int64_t k,
                                              const ConvParams& p);
[[nodiscard]] Tensor maxpool2d_backward(const Tensor& grad_y,
                                        const std::vector<std::int32_t>& argmax,
                                        const Shape& x_shape);

/// Global average pool: x[N,C,H,W] -> y[N,C].
[[nodiscard]] Tensor global_avgpool_forward(const Tensor& x);
[[nodiscard]] Tensor global_avgpool_backward(const Tensor& grad_y,
                                             const Shape& x_shape);

/// Inverted dropout driven by a counter-based generator: element i keeps
/// its value (scaled by 1/(1-rate)) iff hash(seed, i) maps above rate.
/// Deterministic in (seed, i): recomputation with the same seed reproduces
/// the identical mask, which is what checkpointed training requires.
[[nodiscard]] Tensor dropout_forward(const Tensor& x, float rate,
                                     std::uint64_t seed);
[[nodiscard]] Tensor dropout_backward(const Tensor& grad_y, float rate,
                                      std::uint64_t seed);

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

/// y[N,out] = x[N,in] * w[out,in]^T + b[out] (b optional).
[[nodiscard]] Tensor linear_forward(const Tensor& x, const Tensor& w,
                                    const Tensor& b);

struct LinearGrads {
  Tensor grad_x;
  Tensor grad_w;
  Tensor grad_b;
};

[[nodiscard]] LinearGrads linear_backward(const Tensor& grad_y,
                                          const Tensor& x, const Tensor& w,
                                          bool with_bias);

/// Like linear_backward but accumulates grad_w_acc += dL/dw (and optionally
/// grad_b_acc += dL/db) in place; returns dL/dx.
[[nodiscard]] Tensor linear_backward_acc(const Tensor& grad_y, const Tensor& x,
                                         const Tensor& w, Tensor& grad_w_acc,
                                         Tensor* grad_b_acc);

// ---------------------------------------------------------------------------
// Batch normalisation (2d, per-channel)
// ---------------------------------------------------------------------------

struct BatchNormState {
  Tensor y;
  Tensor mean;     // [C] batch mean used in the forward
  Tensor inv_std;  // [C] 1/sqrt(var + eps)
};

/// Training-mode forward: normalises with batch statistics.
/// When @p update_running is true, running_mean/var (shape [C]) are updated
/// in place with @p momentum; recomputation passes set it false so that
/// re-forwarding does not double-update the statistics.
[[nodiscard]] BatchNormState batchnorm2d_forward(
    const Tensor& x, const Tensor& gamma, const Tensor& beta, Tensor& running_mean,
    Tensor& running_var, float momentum, float eps, bool update_running);

/// Inference-mode forward: normalises with running statistics.
[[nodiscard]] Tensor batchnorm2d_infer(const Tensor& x, const Tensor& gamma,
                                       const Tensor& beta,
                                       const Tensor& running_mean,
                                       const Tensor& running_var, float eps);

struct BatchNormGrads {
  Tensor grad_x;
  Tensor grad_gamma;
  Tensor grad_beta;
};

[[nodiscard]] BatchNormGrads batchnorm2d_backward(const Tensor& grad_y,
                                                  const Tensor& x,
                                                  const Tensor& gamma,
                                                  const BatchNormState& state);

// ---------------------------------------------------------------------------
// Loss
// ---------------------------------------------------------------------------

struct SoftmaxXentResult {
  float loss = 0.0F;  // mean over the batch
  Tensor probs;       // [N,K] softmax probabilities (saved for backward)
};

/// Mean softmax cross-entropy of logits[N,K] against integer labels[N].
[[nodiscard]] SoftmaxXentResult softmax_xent_forward(
    const Tensor& logits, const std::vector<std::int32_t>& labels);

/// grad_logits = (probs - onehot(labels)) / N.
[[nodiscard]] Tensor softmax_xent_backward(
    const Tensor& probs, const std::vector<std::int32_t>& labels);

/// Row-wise argmax of logits[N,K].
[[nodiscard]] std::vector<std::int32_t> argmax_rows(const Tensor& logits);

/// Row-wise softmax with temperature: softmax(logits / T).
[[nodiscard]] Tensor softmax_rows(const Tensor& logits, float temperature);

struct DistillResult {
  float loss = 0.0F;  ///< alpha * CE + (1-alpha) * T^2 * KL
  Tensor grad_student_logits;
};

/// Hinton-style knowledge distillation (the paper's citation [7] uses the
/// same student-teacher loss family): combines hard-label cross-entropy
/// with the KL divergence to the teacher's temperature-softened
/// distribution, with the standard T^2 gradient scaling.
[[nodiscard]] DistillResult distill_loss(const Tensor& student_logits,
                                         const Tensor& teacher_logits,
                                         const std::vector<std::int32_t>& labels,
                                         float alpha, float temperature);

}  // namespace edgetrain::ops

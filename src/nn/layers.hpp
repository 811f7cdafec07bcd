// edgetrain: concrete layers (conv, batch norm, activations, pooling,
// linear) and the ResNet residual blocks used as chain steps.
//
// Weight initialisation follows He et al. (fan-in scaled normal) so that
// small CNNs train from scratch in the tests and the in-situ pipeline.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <vector>

#include "nn/layer.hpp"
#include "tensor/ops.hpp"

namespace edgetrain::nn {

/// 2-D convolution, NCHW, square kernel. Bias optional (ResNet convs are
/// bias-free because batch norm follows).
class Conv2d final : public Layer {
 public:
  Conv2d(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel, std::int64_t stride, std::int64_t pad,
         bool with_bias, std::mt19937& rng);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] Tensor forward(const Tensor& x, const RunContext& ctx) override;
  [[nodiscard]] Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<ParamRef>& out) override;
  [[nodiscard]] Shape output_shape(const Shape& in) const override;
  void clear_saved() override { saved_x_.reset(); }

  // Read-only structure accessors: the post-training-quantized teacher path
  // (insitu/quant_classifier.cpp) rebuilds the layer's arithmetic outside
  // the Layer interface, so it needs the geometry and parameters.
  [[nodiscard]] const Tensor& weight() const noexcept { return w_; }
  [[nodiscard]] const Tensor& bias() const noexcept { return b_; }
  [[nodiscard]] bool has_bias() const noexcept { return with_bias_; }
  [[nodiscard]] std::int64_t kernel() const noexcept { return kernel_; }
  [[nodiscard]] const ops::ConvParams& conv_params() const noexcept {
    return params_;
  }

 private:
  std::int64_t in_channels_;
  std::int64_t out_channels_;
  std::int64_t kernel_;
  ops::ConvParams params_;
  bool with_bias_;
  Tensor w_, gw_;
  Tensor b_, gb_;
  Tensor saved_x_;
};

/// Per-channel batch normalisation with running statistics.
class BatchNorm2d final : public Layer {
 public:
  explicit BatchNorm2d(std::int64_t channels, float momentum = 0.1F,
                       float eps = 1e-5F);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] Tensor forward(const Tensor& x, const RunContext& ctx) override;
  [[nodiscard]] Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<ParamRef>& out) override;
  void collect_buffers(std::vector<BufferRef>& out) override;
  [[nodiscard]] Shape output_shape(const Shape& in) const override;
  void clear_saved() override;

  [[nodiscard]] const Tensor& running_mean() const noexcept {
    return running_mean_;
  }
  [[nodiscard]] const Tensor& running_var() const noexcept {
    return running_var_;
  }
  [[nodiscard]] const Tensor& gamma() const noexcept { return gamma_; }
  [[nodiscard]] const Tensor& beta() const noexcept { return beta_; }
  [[nodiscard]] float eps() const noexcept { return eps_; }

 private:
  std::int64_t channels_;
  float momentum_;
  float eps_;
  Tensor gamma_, ggamma_;
  Tensor beta_, gbeta_;
  Tensor running_mean_, running_var_;
  Tensor saved_x_;
  std::optional<ops::BatchNormState> saved_state_;
};

class ReLU final : public Layer {
 public:
  ReLU() = default;
  [[nodiscard]] std::string name() const override { return "relu"; }
  [[nodiscard]] Tensor forward(const Tensor& x, const RunContext& ctx) override;
  [[nodiscard]] Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] Shape output_shape(const Shape& in) const override { return in; }
  void clear_saved() override { saved_y_.reset(); }

 private:
  Tensor saved_y_;
};

class MaxPool2d final : public Layer {
 public:
  MaxPool2d(std::int64_t kernel, std::int64_t stride, std::int64_t pad);
  [[nodiscard]] std::string name() const override { return "maxpool2d"; }
  [[nodiscard]] Tensor forward(const Tensor& x, const RunContext& ctx) override;
  [[nodiscard]] Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] Shape output_shape(const Shape& in) const override;
  void clear_saved() override;

  [[nodiscard]] std::int64_t kernel() const noexcept { return kernel_; }
  [[nodiscard]] const ops::ConvParams& pool_params() const noexcept {
    return params_;
  }

 private:
  std::int64_t kernel_;
  ops::ConvParams params_;
  std::vector<std::int32_t> saved_argmax_;
  Shape saved_x_shape_;
  bool has_saved_ = false;
};

/// Global average pooling: [N,C,H,W] -> [N,C].
class GlobalAvgPool final : public Layer {
 public:
  GlobalAvgPool() = default;
  [[nodiscard]] std::string name() const override { return "global_avgpool"; }
  [[nodiscard]] Tensor forward(const Tensor& x, const RunContext& ctx) override;
  [[nodiscard]] Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] Shape output_shape(const Shape& in) const override;
  void clear_saved() override { has_saved_ = false; }

 private:
  Shape saved_x_shape_;
  bool has_saved_ = false;
};

/// Inverted dropout whose mask is a pure function of (layer seed,
/// pass_token): checkpointed recomputation of the same pass regenerates
/// the identical mask, so gradients stay bit-identical to full storage
/// (tested in tests/core/executor_test.cpp). Identity in Eval phase.
class Dropout final : public Layer {
 public:
  explicit Dropout(float rate, std::uint64_t seed = 0x9E3779B9ULL);
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] Tensor forward(const Tensor& x, const RunContext& ctx) override;
  [[nodiscard]] Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] Shape output_shape(const Shape& in) const override { return in; }
  void clear_saved() override { has_saved_ = false; }

 private:
  float rate_;
  std::uint64_t seed_;
  std::uint64_t saved_pass_seed_ = 0;
  bool has_saved_ = false;
};

/// Reshapes [N, ...] to [N, prod(...)]; backward restores the shape.
class Flatten final : public Layer {
 public:
  Flatten() = default;
  [[nodiscard]] std::string name() const override { return "flatten"; }
  [[nodiscard]] Tensor forward(const Tensor& x, const RunContext& ctx) override;
  [[nodiscard]] Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] Shape output_shape(const Shape& in) const override;
  void clear_saved() override { has_saved_ = false; }

 private:
  Shape saved_x_shape_;
  bool has_saved_ = false;
};

class Linear final : public Layer {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features, bool with_bias,
         std::mt19937& rng);
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] Tensor forward(const Tensor& x, const RunContext& ctx) override;
  [[nodiscard]] Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<ParamRef>& out) override;
  [[nodiscard]] Shape output_shape(const Shape& in) const override;
  void clear_saved() override { saved_x_.reset(); }

  [[nodiscard]] const Tensor& weight() const noexcept { return w_; }
  [[nodiscard]] const Tensor& bias() const noexcept { return b_; }
  [[nodiscard]] bool has_bias() const noexcept { return with_bias_; }

 private:
  std::int64_t in_features_;
  std::int64_t out_features_;
  bool with_bias_;
  Tensor w_, gw_;
  Tensor b_, gb_;
  Tensor saved_x_;
};

/// ResNet basic block: conv3x3-bn-relu-conv3x3-bn (+ projection shortcut
/// when shape changes) followed by relu. One chain step in the executable
/// ResNets; its internals are several tensors, which is exactly why block-
/// level checkpointing pays off.
class BasicBlock final : public Layer {
 public:
  BasicBlock(std::int64_t in_channels, std::int64_t out_channels,
             std::int64_t stride, std::mt19937& rng);
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] Tensor forward(const Tensor& x, const RunContext& ctx) override;
  [[nodiscard]] Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<ParamRef>& out) override;
  void collect_buffers(std::vector<BufferRef>& out) override;
  [[nodiscard]] Shape output_shape(const Shape& in) const override;
  void clear_saved() override;

 private:
  std::unique_ptr<Conv2d> conv1_;
  std::unique_ptr<BatchNorm2d> bn1_;
  std::unique_ptr<ReLU> relu1_;
  std::unique_ptr<Conv2d> conv2_;
  std::unique_ptr<BatchNorm2d> bn2_;
  std::unique_ptr<Conv2d> proj_conv_;   // nullptr for identity shortcuts
  std::unique_ptr<BatchNorm2d> proj_bn_;
  std::unique_ptr<ReLU> relu_out_;
};

/// ResNet bottleneck block: conv1x1-bn-relu-conv3x3-bn-relu-conv1x1-bn
/// (+ projection shortcut) followed by relu.
class Bottleneck final : public Layer {
 public:
  /// @p mid_channels is the squeezed width; output is 4 * mid_channels.
  Bottleneck(std::int64_t in_channels, std::int64_t mid_channels,
             std::int64_t stride, std::mt19937& rng);
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] Tensor forward(const Tensor& x, const RunContext& ctx) override;
  [[nodiscard]] Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<ParamRef>& out) override;
  void collect_buffers(std::vector<BufferRef>& out) override;
  [[nodiscard]] Shape output_shape(const Shape& in) const override;
  void clear_saved() override;

 private:
  std::unique_ptr<Conv2d> conv1_;
  std::unique_ptr<BatchNorm2d> bn1_;
  std::unique_ptr<ReLU> relu1_;
  std::unique_ptr<Conv2d> conv2_;
  std::unique_ptr<BatchNorm2d> bn2_;
  std::unique_ptr<ReLU> relu2_;
  std::unique_ptr<Conv2d> conv3_;
  std::unique_ptr<BatchNorm2d> bn3_;
  std::unique_ptr<Conv2d> proj_conv_;
  std::unique_ptr<BatchNorm2d> proj_bn_;
  std::unique_ptr<ReLU> relu_out_;
};

}  // namespace edgetrain::nn

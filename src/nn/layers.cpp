#include "nn/layers.hpp"

#include <cmath>
#include <stdexcept>

namespace edgetrain::nn {

namespace {
Tensor he_normal(const Shape& shape, std::int64_t fan_in, std::mt19937& rng) {
  const float stddev = std::sqrt(2.0F / static_cast<float>(fan_in));
  return Tensor::randn(shape, rng, stddev);
}
}  // namespace

// ---------------------------------------------------------------------------
// Conv2d
// ---------------------------------------------------------------------------

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t pad,
               bool with_bias, std::mt19937& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      params_{stride, pad},
      with_bias_(with_bias) {
  const Shape wshape{out_channels, in_channels, kernel, kernel};
  w_ = he_normal(wshape, in_channels * kernel * kernel, rng);
  gw_ = Tensor::zeros(wshape);
  if (with_bias_) {
    b_ = Tensor::zeros(Shape{out_channels});
    gb_ = Tensor::zeros(Shape{out_channels});
  }
}

std::string Conv2d::name() const {
  return "conv" + std::to_string(kernel_) + "x" + std::to_string(kernel_) +
         "(" + std::to_string(in_channels_) + "->" +
         std::to_string(out_channels_) + ",s" +
         std::to_string(params_.stride) + ")";
}

Tensor Conv2d::forward(const Tensor& x, const RunContext& ctx) {
  if (ctx.save_for_backward) {
    saved_x_ = x;
  } else {
    saved_x_.reset();
  }
  return ops::conv2d_forward(x, w_, b_, params_);
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  if (!saved_x_.defined()) no_saved_state();
  // Accumulate straight into the layer's grad buffers: no temporary grad_w
  // tensor and no extra add pass in the training hot loop.
  Tensor grad_x = ops::conv2d_backward_acc(grad_out, saved_x_, w_, params_,
                                           gw_, with_bias_ ? &gb_ : nullptr);
  saved_x_.reset();
  return grad_x;
}

void Conv2d::collect_params(std::vector<ParamRef>& out) {
  out.push_back({name() + ".weight", &w_, &gw_});
  if (with_bias_) out.push_back({name() + ".bias", &b_, &gb_});
}

Shape Conv2d::output_shape(const Shape& in) const {
  return Shape{in[0], out_channels_,
               ops::conv_out_size(in[2], kernel_, params_.stride, params_.pad),
               ops::conv_out_size(in[3], kernel_, params_.stride, params_.pad)};
}

// ---------------------------------------------------------------------------
// BatchNorm2d
// ---------------------------------------------------------------------------

BatchNorm2d::BatchNorm2d(std::int64_t channels, float momentum, float eps)
    : channels_(channels), momentum_(momentum), eps_(eps) {
  gamma_ = Tensor::full(Shape{channels}, 1.0F);
  ggamma_ = Tensor::zeros(Shape{channels});
  beta_ = Tensor::zeros(Shape{channels});
  gbeta_ = Tensor::zeros(Shape{channels});
  running_mean_ = Tensor::zeros(Shape{channels});
  running_var_ = Tensor::full(Shape{channels}, 1.0F);
}

std::string BatchNorm2d::name() const {
  return "bn(" + std::to_string(channels_) + ")";
}

Tensor BatchNorm2d::forward(const Tensor& x, const RunContext& ctx) {
  if (ctx.phase == Phase::Eval) {
    clear_saved();
    return ops::batchnorm2d_infer(x, gamma_, beta_, running_mean_,
                                  running_var_, eps_);
  }
  const bool update_running = ctx.first_visit;
  ops::BatchNormState state = ops::batchnorm2d_forward(
      x, gamma_, beta_, running_mean_, running_var_, momentum_, eps_,
      update_running);
  Tensor y = state.y;
  if (ctx.save_for_backward) {
    saved_x_ = x;
    saved_state_ = std::move(state);
    saved_state_->y.reset();  // the output is not needed for backward
  } else {
    clear_saved();
  }
  return y;
}

Tensor BatchNorm2d::backward(const Tensor& grad_out) {
  if (!saved_x_.defined() || !saved_state_.has_value()) no_saved_state();
  ops::BatchNormGrads grads =
      ops::batchnorm2d_backward(grad_out, saved_x_, gamma_, *saved_state_);
  ggamma_.add_(grads.grad_gamma);
  gbeta_.add_(grads.grad_beta);
  clear_saved();
  return std::move(grads.grad_x);
}

void BatchNorm2d::collect_params(std::vector<ParamRef>& out) {
  out.push_back({name() + ".gamma", &gamma_, &ggamma_});
  out.push_back({name() + ".beta", &beta_, &gbeta_});
}

void BatchNorm2d::collect_buffers(std::vector<BufferRef>& out) {
  out.push_back({name() + ".running_mean", &running_mean_});
  out.push_back({name() + ".running_var", &running_var_});
}

Shape BatchNorm2d::output_shape(const Shape& in) const { return in; }

void BatchNorm2d::clear_saved() {
  saved_x_.reset();
  saved_state_.reset();
}

// ---------------------------------------------------------------------------
// ReLU / pooling / flatten
// ---------------------------------------------------------------------------

Tensor ReLU::forward(const Tensor& x, const RunContext& ctx) {
  Tensor y = ops::relu_forward(x);
  if (ctx.save_for_backward) {
    saved_y_ = y;
  } else {
    saved_y_.reset();
  }
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  if (!saved_y_.defined()) no_saved_state();
  Tensor gx = ops::relu_backward(grad_out, saved_y_);
  saved_y_.reset();
  return gx;
}

MaxPool2d::MaxPool2d(std::int64_t kernel, std::int64_t stride, std::int64_t pad)
    : kernel_(kernel), params_{stride, pad} {}

Tensor MaxPool2d::forward(const Tensor& x, const RunContext& ctx) {
  ops::MaxPoolResult result = ops::maxpool2d_forward(x, kernel_, params_);
  if (ctx.save_for_backward) {
    saved_argmax_ = std::move(result.argmax);
    saved_x_shape_ = x.shape();
    has_saved_ = true;
  } else {
    clear_saved();
  }
  return result.y;
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  if (!has_saved_) no_saved_state();
  Tensor gx = ops::maxpool2d_backward(grad_out, saved_argmax_, saved_x_shape_);
  clear_saved();
  return gx;
}

Shape MaxPool2d::output_shape(const Shape& in) const {
  return Shape{in[0], in[1],
               ops::conv_out_size(in[2], kernel_, params_.stride, params_.pad),
               ops::conv_out_size(in[3], kernel_, params_.stride, params_.pad)};
}

void MaxPool2d::clear_saved() {
  saved_argmax_.clear();
  saved_argmax_.shrink_to_fit();
  has_saved_ = false;
}

Tensor GlobalAvgPool::forward(const Tensor& x, const RunContext& ctx) {
  if (ctx.save_for_backward) {
    saved_x_shape_ = x.shape();
    has_saved_ = true;
  } else {
    has_saved_ = false;
  }
  return ops::global_avgpool_forward(x);
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  if (!has_saved_) no_saved_state();
  has_saved_ = false;
  return ops::global_avgpool_backward(grad_out, saved_x_shape_);
}

Shape GlobalAvgPool::output_shape(const Shape& in) const {
  return Shape{in[0], in[1]};
}

Dropout::Dropout(float rate, std::uint64_t seed) : rate_(rate), seed_(seed) {
  if (rate < 0.0F || rate >= 1.0F) {
    throw std::invalid_argument("Dropout: rate must be in [0,1)");
  }
}

std::string Dropout::name() const {
  return "dropout(" + std::to_string(rate_) + ")";
}

Tensor Dropout::forward(const Tensor& x, const RunContext& ctx) {
  if (ctx.phase == Phase::Eval || rate_ == 0.0F) {
    has_saved_ = ctx.save_for_backward;
    saved_pass_seed_ = 0;  // identity mask
    return x;
  }
  // Derive the pass seed deterministically: recomputation visits of the
  // same pass regenerate the same mask.
  const std::uint64_t pass_seed =
      seed_ ^ (0x9E3779B97F4A7C15ULL * (ctx.pass_token + 1));
  if (ctx.save_for_backward) {
    saved_pass_seed_ = pass_seed;
    has_saved_ = true;
  } else {
    has_saved_ = false;
  }
  return ops::dropout_forward(x, rate_, pass_seed);
}

Tensor Dropout::backward(const Tensor& grad_out) {
  if (!has_saved_) no_saved_state();
  has_saved_ = false;
  if (saved_pass_seed_ == 0) return grad_out;  // eval/identity
  return ops::dropout_backward(grad_out, rate_, saved_pass_seed_);
}

Tensor Flatten::forward(const Tensor& x, const RunContext& ctx) {
  if (ctx.save_for_backward) {
    saved_x_shape_ = x.shape();
    has_saved_ = true;
  } else {
    has_saved_ = false;
  }
  return x.reshaped(output_shape(x.shape()));
}

Tensor Flatten::backward(const Tensor& grad_out) {
  if (!has_saved_) no_saved_state();
  has_saved_ = false;
  return grad_out.reshaped(saved_x_shape_);
}

Shape Flatten::output_shape(const Shape& in) const {
  return Shape{in[0], in.numel() / in[0]};
}

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

Linear::Linear(std::int64_t in_features, std::int64_t out_features,
               bool with_bias, std::mt19937& rng)
    : in_features_(in_features),
      out_features_(out_features),
      with_bias_(with_bias) {
  w_ = he_normal(Shape{out_features, in_features}, in_features, rng);
  gw_ = Tensor::zeros(Shape{out_features, in_features});
  if (with_bias_) {
    b_ = Tensor::zeros(Shape{out_features});
    gb_ = Tensor::zeros(Shape{out_features});
  }
}

std::string Linear::name() const {
  return "linear(" + std::to_string(in_features_) + "->" +
         std::to_string(out_features_) + ")";
}

Tensor Linear::forward(const Tensor& x, const RunContext& ctx) {
  if (ctx.save_for_backward) {
    saved_x_ = x;
  } else {
    saved_x_.reset();
  }
  return ops::linear_forward(x, w_, b_);
}

Tensor Linear::backward(const Tensor& grad_out) {
  if (!saved_x_.defined()) no_saved_state();
  Tensor grad_x = ops::linear_backward_acc(grad_out, saved_x_, w_, gw_,
                                           with_bias_ ? &gb_ : nullptr);
  saved_x_.reset();
  return grad_x;
}

void Linear::collect_params(std::vector<ParamRef>& out) {
  out.push_back({name() + ".weight", &w_, &gw_});
  if (with_bias_) out.push_back({name() + ".bias", &b_, &gb_});
}

Shape Linear::output_shape(const Shape& in) const {
  return Shape{in[0], out_features_};
}

// ---------------------------------------------------------------------------
// BasicBlock
// ---------------------------------------------------------------------------

BasicBlock::BasicBlock(std::int64_t in_channels, std::int64_t out_channels,
                       std::int64_t stride, std::mt19937& rng) {
  conv1_ = std::make_unique<Conv2d>(in_channels, out_channels, 3, stride, 1,
                                    false, rng);
  bn1_ = std::make_unique<BatchNorm2d>(out_channels);
  relu1_ = std::make_unique<ReLU>();
  conv2_ = std::make_unique<Conv2d>(out_channels, out_channels, 3, 1, 1, false,
                                    rng);
  bn2_ = std::make_unique<BatchNorm2d>(out_channels);
  if (stride != 1 || in_channels != out_channels) {
    proj_conv_ = std::make_unique<Conv2d>(in_channels, out_channels, 1, stride,
                                          0, false, rng);
    proj_bn_ = std::make_unique<BatchNorm2d>(out_channels);
  }
  relu_out_ = std::make_unique<ReLU>();
}

std::string BasicBlock::name() const { return "basic_block"; }

Tensor BasicBlock::forward(const Tensor& x, const RunContext& ctx) {
  Tensor h = conv1_->forward(x, ctx);
  h = bn1_->forward(h, ctx);
  h = relu1_->forward(h, ctx);
  h = conv2_->forward(h, ctx);
  h = bn2_->forward(h, ctx);
  Tensor shortcut = x;
  if (proj_conv_) {
    shortcut = proj_conv_->forward(x, ctx);
    shortcut = proj_bn_->forward(shortcut, ctx);
  }
  h.add_(shortcut);
  return relu_out_->forward(h, ctx);
}

Tensor BasicBlock::backward(const Tensor& grad_out) {
  Tensor g = relu_out_->backward(grad_out);
  // g flows to both the residual branch and the shortcut.
  Tensor g_branch = bn2_->backward(g);
  g_branch = conv2_->backward(g_branch);
  g_branch = relu1_->backward(g_branch);
  g_branch = bn1_->backward(g_branch);
  g_branch = conv1_->backward(g_branch);
  Tensor g_short = g;
  if (proj_conv_) {
    g_short = proj_bn_->backward(g_short);
    g_short = proj_conv_->backward(g_short);
  }
  g_branch.add_(g_short);
  return g_branch;
}

void BasicBlock::collect_params(std::vector<ParamRef>& out) {
  conv1_->collect_params(out);
  bn1_->collect_params(out);
  conv2_->collect_params(out);
  bn2_->collect_params(out);
  if (proj_conv_) {
    proj_conv_->collect_params(out);
    proj_bn_->collect_params(out);
  }
}

void BasicBlock::collect_buffers(std::vector<BufferRef>& out) {
  bn1_->collect_buffers(out);
  bn2_->collect_buffers(out);
  if (proj_bn_) proj_bn_->collect_buffers(out);
}

Shape BasicBlock::output_shape(const Shape& in) const {
  return conv1_->output_shape(in);
}

void BasicBlock::clear_saved() {
  conv1_->clear_saved();
  bn1_->clear_saved();
  relu1_->clear_saved();
  conv2_->clear_saved();
  bn2_->clear_saved();
  if (proj_conv_) {
    proj_conv_->clear_saved();
    proj_bn_->clear_saved();
  }
  relu_out_->clear_saved();
}

// ---------------------------------------------------------------------------
// Bottleneck
// ---------------------------------------------------------------------------

Bottleneck::Bottleneck(std::int64_t in_channels, std::int64_t mid_channels,
                       std::int64_t stride, std::mt19937& rng) {
  const std::int64_t out_channels = mid_channels * 4;
  conv1_ = std::make_unique<Conv2d>(in_channels, mid_channels, 1, 1, 0, false,
                                    rng);
  bn1_ = std::make_unique<BatchNorm2d>(mid_channels);
  relu1_ = std::make_unique<ReLU>();
  conv2_ = std::make_unique<Conv2d>(mid_channels, mid_channels, 3, stride, 1,
                                    false, rng);
  bn2_ = std::make_unique<BatchNorm2d>(mid_channels);
  relu2_ = std::make_unique<ReLU>();
  conv3_ = std::make_unique<Conv2d>(mid_channels, out_channels, 1, 1, 0, false,
                                    rng);
  bn3_ = std::make_unique<BatchNorm2d>(out_channels);
  if (stride != 1 || in_channels != out_channels) {
    proj_conv_ = std::make_unique<Conv2d>(in_channels, out_channels, 1, stride,
                                          0, false, rng);
    proj_bn_ = std::make_unique<BatchNorm2d>(out_channels);
  }
  relu_out_ = std::make_unique<ReLU>();
}

std::string Bottleneck::name() const { return "bottleneck"; }

Tensor Bottleneck::forward(const Tensor& x, const RunContext& ctx) {
  Tensor h = conv1_->forward(x, ctx);
  h = bn1_->forward(h, ctx);
  h = relu1_->forward(h, ctx);
  h = conv2_->forward(h, ctx);
  h = bn2_->forward(h, ctx);
  h = relu2_->forward(h, ctx);
  h = conv3_->forward(h, ctx);
  h = bn3_->forward(h, ctx);
  Tensor shortcut = x;
  if (proj_conv_) {
    shortcut = proj_conv_->forward(x, ctx);
    shortcut = proj_bn_->forward(shortcut, ctx);
  }
  h.add_(shortcut);
  return relu_out_->forward(h, ctx);
}

Tensor Bottleneck::backward(const Tensor& grad_out) {
  Tensor g = relu_out_->backward(grad_out);
  Tensor g_branch = bn3_->backward(g);
  g_branch = conv3_->backward(g_branch);
  g_branch = relu2_->backward(g_branch);
  g_branch = bn2_->backward(g_branch);
  g_branch = conv2_->backward(g_branch);
  g_branch = relu1_->backward(g_branch);
  g_branch = bn1_->backward(g_branch);
  g_branch = conv1_->backward(g_branch);
  Tensor g_short = g;
  if (proj_conv_) {
    g_short = proj_bn_->backward(g_short);
    g_short = proj_conv_->backward(g_short);
  }
  g_branch.add_(g_short);
  return g_branch;
}

void Bottleneck::collect_params(std::vector<ParamRef>& out) {
  conv1_->collect_params(out);
  bn1_->collect_params(out);
  conv2_->collect_params(out);
  bn2_->collect_params(out);
  conv3_->collect_params(out);
  bn3_->collect_params(out);
  if (proj_conv_) {
    proj_conv_->collect_params(out);
    proj_bn_->collect_params(out);
  }
}

void Bottleneck::collect_buffers(std::vector<BufferRef>& out) {
  bn1_->collect_buffers(out);
  bn2_->collect_buffers(out);
  bn3_->collect_buffers(out);
  if (proj_bn_) proj_bn_->collect_buffers(out);
}

Shape Bottleneck::output_shape(const Shape& in) const {
  const Shape mid = conv2_->output_shape(
      Shape{in[0], conv1_->output_shape(in)[1], in[2], in[3]});
  return conv3_->output_shape(mid);
}

void Bottleneck::clear_saved() {
  conv1_->clear_saved();
  bn1_->clear_saved();
  relu1_->clear_saved();
  conv2_->clear_saved();
  bn2_->clear_saved();
  relu2_->clear_saved();
  conv3_->clear_saved();
  bn3_->clear_saved();
  if (proj_conv_) {
    proj_conv_->clear_saved();
    proj_bn_->clear_saved();
  }
  relu_out_->clear_saved();
}

}  // namespace edgetrain::nn

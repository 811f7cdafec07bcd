// edgetrain: optimizers.
//
// The fixed training footprint the paper's tables imply is about 4x the
// weight bytes: weights + gradients + two Adam moments. SGD (with optional
// momentum) and Adam are provided; their state tensors go through the
// tracked allocator so the 4x shows up in measurements too.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layer.hpp"

namespace edgetrain::nn {

/// Mutable view of an optimizer's durable state, in a stable order, for
/// snapshot/restore (persist/). `step_counter` points at the update count
/// for optimizers whose trajectory depends on it (Adam bias correction);
/// nullptr otherwise.
struct OptimizerState {
  std::vector<Tensor*> tensors;
  std::int64_t* step_counter = nullptr;
};

class Optimizer {
 public:
  explicit Optimizer(std::vector<ParamRef> params)
      : params_(std::move(params)) {}
  virtual ~Optimizer() = default;
  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  /// Applies one update from the accumulated gradients.
  virtual void step() = 0;

  /// Zeroes all gradients.
  void zero_grad();

  /// Bytes of optimizer state (momentum/moment tensors).
  [[nodiscard]] virtual std::size_t state_bytes() const = 0;

  /// Durable state for suspend/resume; restoring every tensor (and the
  /// step counter, when present) reproduces the update trajectory exactly.
  [[nodiscard]] virtual OptimizerState mutable_state() = 0;

 protected:
  std::vector<ParamRef> params_;
};

/// Stochastic gradient descent with optional momentum and weight decay.
class SGD final : public Optimizer {
 public:
  SGD(std::vector<ParamRef> params, float lr, float momentum = 0.0F,
      float weight_decay = 0.0F);
  void step() override;
  [[nodiscard]] std::size_t state_bytes() const override;
  [[nodiscard]] OptimizerState mutable_state() override;

  [[nodiscard]] float lr() const noexcept { return lr_; }

 private:
  float lr_;
  float momentum_;
  float weight_decay_;
  std::vector<Tensor> velocity_;  // empty when momentum == 0
};

/// Adam (Kingma & Ba) with bias correction.
class Adam final : public Optimizer {
 public:
  Adam(std::vector<ParamRef> params, float lr, float beta1 = 0.9F,
       float beta2 = 0.999F, float eps = 1e-8F, float weight_decay = 0.0F);
  void step() override;
  [[nodiscard]] std::size_t state_bytes() const override;
  [[nodiscard]] OptimizerState mutable_state() override;

  [[nodiscard]] float lr() const noexcept { return lr_; }

 private:
  float lr_;
  float beta1_;
  float beta2_;
  float eps_;
  float weight_decay_;
  std::int64_t t_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

}  // namespace edgetrain::nn

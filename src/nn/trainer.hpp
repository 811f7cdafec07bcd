// edgetrain: high-level training loop.
//
// Bundles the pieces every caller was wiring by hand -- optimizer, chain
// runner, checkpointing schedule, slot store, loss head -- behind one
// configuration struct. The strategy enum covers every scheduler in the
// library, so switching from full storage to Revolve (or compressing or
// spilling checkpoints to disk) is a one-line change.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "core/slot_codec.hpp"
#include "nn/chain.hpp"
#include "nn/chain_runner.hpp"
#include "nn/optim.hpp"

namespace edgetrain::nn {

enum class CheckpointStrategy : std::uint8_t {
  FullStorage,  ///< rho = 1, maximal memory
  Revolve,      ///< optimal binomial checkpointing
  Sequential,   ///< PyTorch checkpoint_sequential (free_slots+1 segments)
  Periodic,     ///< uniform-stride checkpoints
};

enum class OptimizerKind : std::uint8_t {
  Sgd,   ///< SGD with optional momentum (momentum/weight_decay options)
  Adam,  ///< Adam with bias correction (adam_* options)
};

struct TrainerOptions {
  CheckpointStrategy strategy = CheckpointStrategy::FullStorage;
  int free_slots = 2;          ///< checkpoint budget (ignored for FullStorage)
  /// Checkpoint codec (core/slot_codec.hpp): None keeps shared handles,
  /// Lossless/Bitmap are bit-exact, Fp16/Bf16/Int8 trade a small gradient
  /// error for 2x/4x fewer bytes. Applies to the spill files when
  /// spill_directory is set, else to the RAM slots.
  core::SlotCodec slot_codec = core::SlotCodec::None;
  /// Non-empty: every non-input slot spills to files in this directory
  /// (write-behind, prefetched restores). Empty: checkpoints stay in RAM.
  std::string spill_directory;
  OptimizerKind optimizer = OptimizerKind::Sgd;
  float lr = 0.05F;
  float momentum = 0.9F;
  float weight_decay = 0.0F;
  float adam_beta1 = 0.9F;
  float adam_beta2 = 0.999F;
  float adam_eps = 1e-8F;
};

struct StepStats {
  float loss = 0.0F;
  std::size_t peak_bytes = 0;       ///< tracked peak over the step
  std::int64_t advances = 0;        ///< recomputation forwards
};

/// Owns the optimizer, runner, schedule and slot store for one network.
/// Not copyable; the chain must outlive the trainer.
class Trainer {
 public:
  Trainer(LayerChain& chain, const TrainerOptions& options);

  /// One optimisation step on a batch with integer labels (softmax
  /// cross-entropy head).
  StepStats step(const Tensor& x, const std::vector<std::int32_t>& labels);

  /// One optimisation step with a caller-supplied loss gradient.
  StepStats step_with_loss(const Tensor& x, const core::LossGradFn& loss_grad);

  /// The schedule in force (for inspection/reporting).
  [[nodiscard]] const core::Schedule& schedule() const noexcept {
    return schedule_;
  }
  [[nodiscard]] Optimizer& optimizer() noexcept { return *optimizer_; }
  [[nodiscard]] LayerChain& chain() noexcept { return chain_; }

  /// Executor hooks threaded through every subsequent step (in-flight
  /// schedule position reporting / mid-step abort injection).
  void set_hooks(core::ExecutorHooks hooks) { hooks_ = std::move(hooks); }

  /// Pass counter of the underlying runner; persist/ saves and restores it
  /// so per-pass randomness (dropout) continues its stream after resume.
  [[nodiscard]] std::uint64_t pass_token() const noexcept {
    return runner_.pass_token();
  }
  void set_pass_token(std::uint64_t token) noexcept {
    runner_.set_pass_token(token);
  }

 private:
  LayerChain& chain_;
  TrainerOptions options_;
  core::Schedule schedule_;
  std::unique_ptr<core::SlotStore> store_;
  std::unique_ptr<Optimizer> optimizer_;
  LayerChainRunner runner_;
  core::ScheduleExecutor executor_;
  core::ExecutorHooks hooks_;
  float last_loss_ = 0.0F;
};

}  // namespace edgetrain::nn

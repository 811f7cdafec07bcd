#include "nn/trainer.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/periodic.hpp"
#include "core/revolve.hpp"
#include "core/sequential.hpp"
#include "core/tiered_slot_store.hpp"
#include "tensor/ops.hpp"

namespace edgetrain::nn {

namespace {

core::Schedule build_schedule(int num_steps, const TrainerOptions& options) {
  const int slots = std::clamp(options.free_slots, 0,
                               std::max(num_steps - 1, 0));
  switch (options.strategy) {
    case CheckpointStrategy::FullStorage:
      return core::full_storage_schedule(num_steps);
    case CheckpointStrategy::Revolve:
      return core::revolve::make_schedule(num_steps, slots);
    case CheckpointStrategy::Sequential:
      return core::seq::make_schedule(
          num_steps, std::clamp(slots + 1, 1, num_steps));
    case CheckpointStrategy::Periodic:
      return core::periodic::make_schedule(num_steps, slots);
  }
  throw std::invalid_argument("Trainer: unknown strategy");
}

std::unique_ptr<core::SlotStore> build_store(const core::Schedule& schedule,
                                             const TrainerOptions& options) {
  if (options.spill_directory.empty()) {
    return std::make_unique<core::TieredSlotStore>(schedule.num_slots(),
                                                   options.slot_codec);
  }
  core::AsyncDiskSlotStoreOptions store_options;
  store_options.codec = options.slot_codec;
  return std::make_unique<core::TieredSlotStore>(
      schedule.num_slots(), /*first_disk_slot=*/1, options.spill_directory,
      std::move(store_options));
}

std::unique_ptr<Optimizer> build_optimizer(LayerChain& chain,
                                           const TrainerOptions& options) {
  switch (options.optimizer) {
    case OptimizerKind::Sgd:
      return std::make_unique<SGD>(chain.params(), options.lr,
                                   options.momentum, options.weight_decay);
    case OptimizerKind::Adam:
      return std::make_unique<Adam>(chain.params(), options.lr,
                                    options.adam_beta1, options.adam_beta2,
                                    options.adam_eps, options.weight_decay);
  }
  throw std::invalid_argument("Trainer: unknown optimizer");
}

}  // namespace

Trainer::Trainer(LayerChain& chain, const TrainerOptions& options)
    : chain_(chain),
      options_(options),
      schedule_(build_schedule(chain.size(), options)),
      store_(build_store(schedule_, options)),
      optimizer_(build_optimizer(chain, options)),
      runner_(chain, Phase::Train) {}

StepStats Trainer::step(const Tensor& x,
                        const std::vector<std::int32_t>& labels) {
  return step_with_loss(x, [this, &labels](const Tensor& logits) {
    const ops::SoftmaxXentResult result =
        ops::softmax_xent_forward(logits, labels);
    last_loss_ = result.loss;
    return ops::softmax_xent_backward(result.probs, labels);
  });
}

StepStats Trainer::step_with_loss(const Tensor& x,
                                  const core::LossGradFn& loss_grad) {
  optimizer_->zero_grad();
  runner_.begin_pass();
  last_loss_ = 0.0F;
  const core::ExecutionResult result =
      executor_.run(runner_, schedule_, x, loss_grad, *store_, hooks_);
  optimizer_->step();

  StepStats stats;
  stats.loss = last_loss_;
  stats.peak_bytes = result.peak_tracked_bytes - result.baseline_bytes;
  stats.advances = result.stats.advances;
  return stats;
}

}  // namespace edgetrain::nn

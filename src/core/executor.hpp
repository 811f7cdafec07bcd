// edgetrain: schedule executor.
//
// Replays a Schedule against any ChainRunner (typically a neural network
// split into chain steps, see nn/chain_runner.hpp). The executor owns the
// checkpoint slots, enforces the slot bound, seeds the output gradient the
// first time the adjoint is needed, and reports the peak tracked memory of
// the run, so tests and benches can verify that a schedule's *measured*
// footprint matches the planner's analytic model.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/schedule.hpp"
#include "core/slot_store.hpp"
#include "tensor/tensor.hpp"

namespace edgetrain::core {

/// Abstraction of an l-step chain the executor drives.
///
/// Implementations must be replay-safe: forward(step, x, save) may be called
/// several times per run (recomputation); side effects that must happen only
/// once per training pass (e.g. batch-norm running statistics) are the
/// implementation's responsibility to guard (see nn::LayerChainRunner).
class ChainRunner {
 public:
  virtual ~ChainRunner() = default;

  [[nodiscard]] virtual int num_steps() const = 0;

  /// Runs step `step` on `input`, returning the step's output. When `save`
  /// is true the step must retain whatever it needs for one backward(step)
  /// call; when false it must retain nothing.
  [[nodiscard]] virtual Tensor forward(int step, const Tensor& input,
                                       bool save) = 0;

  /// Adjoint of step `step`; consumes the state saved by the most recent
  /// forward(step, ..., true) and returns the gradient w.r.t. the input.
  [[nodiscard]] virtual Tensor backward(int step, const Tensor& grad_output) = 0;
};

/// Computes the gradient of the loss w.r.t. the chain output. Called exactly
/// once per execution, with the chain output (state_l).
using LossGradFn = std::function<Tensor(const Tensor& output)>;

/// Observation/abort hook threaded through a run. When set, on_action is
/// invoked with the in-flight schedule position immediately before each
/// action executes. It may throw to abandon the pass: the executor holds no
/// state between runs, so an abandoned pass updates nothing and the step
/// can simply be replayed from its boundary (the paper's abandon-and-rerun
/// preemption model; persist/fault.hpp uses this to kill training mid-step).
struct ExecutorHooks {
  std::function<void(std::int64_t action_index, const Action& action)>
      on_action;
};

struct ExecutionResult {
  Tensor input_grad;               ///< d loss / d chain-input
  Tensor output;                   ///< chain output (state_l), from the sweep
  ScheduleStats stats;             ///< replayed action counts
  std::size_t peak_tracked_bytes = 0;  ///< high-water mark during the run
  std::size_t baseline_bytes = 0;      ///< live bytes when the run started
  std::int64_t actions_executed = 0;   ///< schedule actions replayed
};

/// Replays schedules; stateless between runs.
class ScheduleExecutor {
 public:
  /// Executes `schedule` on `runner` starting from `input`, keeping
  /// checkpoints in a RAM-only TieredSlotStore.
  /// Throws std::logic_error on schedule/runner disagreement (the schedule
  /// should have been validate()d first; the executor still guards).
  [[nodiscard]] ExecutionResult run(ChainRunner& runner,
                                    const Schedule& schedule,
                                    const Tensor& input,
                                    const LossGradFn& loss_grad) const;

  /// Same, with caller-provided checkpoint storage (disk spill, quantised
  /// checkpoints, ...). The store must cover schedule.num_slots() slots.
  [[nodiscard]] ExecutionResult run(ChainRunner& runner,
                                    const Schedule& schedule,
                                    const Tensor& input,
                                    const LossGradFn& loss_grad,
                                    SlotStore& store) const;

  /// Same, additionally reporting the in-flight schedule position through
  /// @p hooks before every action.
  [[nodiscard]] ExecutionResult run(ChainRunner& runner,
                                    const Schedule& schedule,
                                    const Tensor& input,
                                    const LossGradFn& loss_grad,
                                    SlotStore& store,
                                    const ExecutorHooks& hooks) const;

  /// Convenience: full-storage execution (ForwardSave every step, then
  /// backward), the rho = 1 baseline.
  [[nodiscard]] ExecutionResult run_full_storage(ChainRunner& runner,
                                                 const Tensor& input,
                                                 const LossGradFn& loss_grad) const;
};

/// Builds the full-storage schedule for an l-step chain (slot 0 holds the
/// input; every step ForwardSaves; backwards run off live intermediates).
[[nodiscard]] Schedule full_storage_schedule(int num_steps);

}  // namespace edgetrain::core

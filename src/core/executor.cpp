#include "core/executor.hpp"

#include <stdexcept>
#include <string>

#include "core/tiered_slot_store.hpp"
#include "tensor/alloc.hpp"

namespace edgetrain::core {

namespace {
[[noreturn]] void die(const std::string& what) {
  throw std::logic_error("ScheduleExecutor: " + what);
}
}  // namespace

ExecutionResult ScheduleExecutor::run(ChainRunner& runner,
                                      const Schedule& schedule,
                                      const Tensor& input,
                                      const LossGradFn& loss_grad) const {
  TieredSlotStore store(schedule.num_slots());
  return run(runner, schedule, input, loss_grad, store);
}

ExecutionResult ScheduleExecutor::run(ChainRunner& runner,
                                      const Schedule& schedule,
                                      const Tensor& input,
                                      const LossGradFn& loss_grad,
                                      SlotStore& store) const {
  return run(runner, schedule, input, loss_grad, store, ExecutorHooks{});
}

ExecutionResult ScheduleExecutor::run(ChainRunner& runner,
                                      const Schedule& schedule,
                                      const Tensor& input,
                                      const LossGradFn& loss_grad,
                                      SlotStore& store,
                                      const ExecutorHooks& hooks) const {
  if (runner.num_steps() != schedule.num_steps()) {
    die("runner has " + std::to_string(runner.num_steps()) +
        " steps but schedule was built for " +
        std::to_string(schedule.num_steps()));
  }
  const int num_steps = schedule.num_steps();

  ScopedPeakProbe probe;
  ExecutionResult result;
  result.baseline_bytes = probe.baseline_bytes();

  // Hand the store the full action tape so lookahead-capable backends
  // (TieredSlotStore) can prefetch upcoming restores during recompute.
  // RAII so end_replay fires on every exit path, including the throws the
  // fault-injection tests drive through the middle of a replay.
  struct ReplayScope {
    SlotStore& store;
    ReplayScope(SlotStore& s, const Schedule& sched) : store(s) {
      store.begin_replay(sched);
    }
    ~ReplayScope() { store.end_replay(); }
  } replay_scope(store, schedule);

  Tensor current = input;
  std::int32_t current_state = 0;
  Tensor grad;
  bool seeded = false;

  for (const Action& a : schedule.actions()) {
    if (hooks.on_action) hooks.on_action(result.actions_executed, a);
    store.on_replay_position(result.actions_executed);
    ++result.actions_executed;
    switch (a.type) {
      case ActionType::Forward:
      case ActionType::ForwardSave: {
        if (current_state != a.index) {
          die("forward of step " + std::to_string(a.index) +
              " from state " + std::to_string(current_state));
        }
        Tensor next =
            runner.forward(a.index, current, a.type == ActionType::ForwardSave);
        current = std::move(next);
        current_state = a.index + 1;
        if (current_state == num_steps && !result.output.defined()) {
          result.output = current;
        }
        break;
      }
      case ActionType::Backward: {
        if (!seeded) {
          if (a.index != num_steps - 1) {
            die("first backward must be the last step");
          }
          if (current_state != num_steps) {
            die("output gradient seeded before the chain output exists");
          }
          grad = loss_grad(current);
          seeded = true;
          // The frontier activation is consumed by the loss; release our
          // handle so peak accounting reflects the executor's true state.
          current.reset();
          current_state = -1;
        }
        grad = runner.backward(a.index, grad);
        break;
      }
      case ActionType::Store: {
        if (current_state != a.index) {
          die("store of state " + std::to_string(a.index) + " from state " +
              std::to_string(current_state));
        }
        store.put(a.slot, current);
        break;
      }
      case ActionType::Restore: {
        current = store.get(a.slot);
        current_state = a.index;
        break;
      }
      case ActionType::Free: {
        store.drop(a.slot);
        break;
      }
    }
  }

  if (!seeded) die("schedule never reached the output");
  result.input_grad = std::move(grad);
  result.stats = schedule.stats();
  result.peak_tracked_bytes = probe.peak_bytes();
  return result;
}

ExecutionResult ScheduleExecutor::run_full_storage(
    ChainRunner& runner, const Tensor& input,
    const LossGradFn& loss_grad) const {
  return run(runner, full_storage_schedule(runner.num_steps()), input,
             loss_grad);
}

Schedule full_storage_schedule(int num_steps) {
  Schedule sched(num_steps, 1);
  sched.store(0, 0);
  for (std::int32_t i = 0; i < num_steps; ++i) sched.forward_save(i);
  for (std::int32_t i = num_steps - 1; i >= 0; --i) sched.backward(i);
  sched.free(0);
  return sched;
}

}  // namespace edgetrain::core

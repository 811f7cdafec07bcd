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
  // One symbolic replay proves the schedule safe before the network or the
  // store sees any of it, and supplies the result's stats.
  const Report replay = interpret(schedule);
  if (const auto error = replay.first_error()) die(*error);
  const int last_step = schedule.num_steps() - 1;

  ScopedPeakProbe probe;
  ExecutionResult result;
  result.baseline_bytes = probe.baseline_bytes();
  result.stats = replay.facts;

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
  Tensor grad;
  bool seeded = false;

  for (const Action& a : schedule.actions()) {
    if (hooks.on_action) hooks.on_action(result.actions_executed, a);
    store.on_replay_position(result.actions_executed);
    ++result.actions_executed;
    switch (a.type) {
      case ActionType::Forward:
      case ActionType::ForwardSave: {
        current =
            runner.forward(a.index, current, a.type == ActionType::ForwardSave);
        if (a.index == last_step && !result.output.defined()) {
          result.output = current;
        }
        break;
      }
      case ActionType::Backward: {
        // The replay proved the first Backward runs at the chain output.
        if (!seeded) {
          grad = loss_grad(current);
          seeded = true;
          // The frontier activation is consumed by the loss; release our
          // handle so peak accounting reflects the executor's true state.
          current.reset();
        }
        grad = runner.backward(a.index, grad);
        break;
      }
      case ActionType::Store:
        store.put(a.slot, current);
        break;
      case ActionType::Restore:
        current = store.get(a.slot);
        break;
      case ActionType::Free:
        store.drop(a.slot);
        break;
    }
  }

  result.input_grad = std::move(grad);
  result.peak_tracked_bytes = probe.peak_bytes();
  return result;
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

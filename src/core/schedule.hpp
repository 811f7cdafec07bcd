// edgetrain: checkpointing schedule intermediate representation.
//
// Every scheduler in this library (binomial Revolve, PyTorch-style uniform
// segmentation, heterogeneous DP, two-level disk Revolve) emits the same
// Schedule IR: a linear program of typed actions over an l-step chain and a
// bounded set of checkpoint slots. The executor replays the IR against a
// real neural network; core/replay.hpp replays it symbolically and checks
// well-formedness, so scheduler bugs are caught without running tensor code.
//
// Chain model (the paper's LinearResNet formulation):
//   state_0 --step 0--> state_1 --step 1--> ... --step l-1--> state_l
// Reversing step i requires the step's internal intermediates, which are
// produced by running the step forward in "saving" mode (ForwardSave).
// Storing a boundary state into a checkpoint slot costs one activation unit
// of memory; so does keeping one step's saved intermediates live. Full
// storage = ForwardSave every step during the sweep (l live units, no
// recomputation); Revolve = store a few boundary states and re-advance.
//
// Cost accounting. The paper counts work in forward/backward units where a
// Backward unit *includes* re-materialising the step's internals from its
// input, so a ForwardSave immediately consumed by its Backward is free under
// the paper's convention. The paper's recompute factor rho is therefore an
// analytic quantity of the scheduler's DP cost model (see core/revolve.hpp);
// ScheduleStats reports the strict executed-operation counts.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/replay.hpp"

namespace edgetrain::core {

/// One primitive operation of a checkpointing schedule.
enum class ActionType : std::uint8_t {
  /// Run step `index` forward without saving intermediates ("advance").
  Forward,
  /// Run step `index` forward, keeping its intermediates live for a later
  /// Backward of the same step. Multiple steps may have live intermediates
  /// simultaneously (that is what full storage does).
  ForwardSave,
  /// Run the adjoint of step `index`; consumes the live intermediates of
  /// that step and moves the adjoint frontier from index+1 to index.
  Backward,
  /// Copy the current state (which must be state_index) into `slot`.
  Store,
  /// Load `slot` into the current state; the slot must hold state_index.
  Restore,
  /// Free `slot` (bookkeeping; lets the executor release memory eagerly).
  Free,
};

[[nodiscard]] std::string to_string(ActionType type);

struct Action {
  ActionType type{ActionType::Forward};
  /// Step index for Forward/ForwardSave/Backward; state index for
  /// Store/Restore (the state the slot holds); unused for Free.
  std::int32_t index{0};
  /// Slot number for Store/Restore/Free; -1 otherwise.
  std::int32_t slot{-1};

  [[nodiscard]] bool operator==(const Action&) const = default;
};

/// A validated-on-demand checkpointing schedule for an l-step chain.
class Schedule {
 public:
  Schedule() = default;
  Schedule(std::int32_t num_steps, std::int32_t num_slots)
      : num_steps_(num_steps), num_slots_(num_slots) {}

  [[nodiscard]] std::int32_t num_steps() const noexcept { return num_steps_; }
  [[nodiscard]] std::int32_t num_slots() const noexcept { return num_slots_; }
  [[nodiscard]] const std::vector<Action>& actions() const noexcept {
    return actions_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return actions_.size(); }

  void push(Action action) { actions_.push_back(action); }
  void forward(std::int32_t step) { push({ActionType::Forward, step, -1}); }
  void forward_save(std::int32_t step) {
    push({ActionType::ForwardSave, step, -1});
  }
  void backward(std::int32_t step) { push({ActionType::Backward, step, -1}); }
  void store(std::int32_t state, std::int32_t slot) {
    push({ActionType::Store, state, slot});
  }
  void restore(std::int32_t state, std::int32_t slot) {
    push({ActionType::Restore, state, slot});
  }
  void free(std::int32_t slot) { push({ActionType::Free, 0, slot}); }

  /// The facts of a replay under the default cost model (every slot in
  /// RAM): action counts, peak slot occupancy and peak activation units.
  [[nodiscard]] ScheduleStats stats() const;

  /// Returns std::nullopt when a bound-free replay finds no error: the
  /// schedule is a well-formed full reversal (every step backward exactly
  /// once, in order l-1..0, the first at the chain output, intermediates
  /// live when consumed, forwards and stores only from the matching current
  /// state, restores of the state the slot holds, slot bounds respected).
  /// Otherwise the first error, as "action N: detail".
  [[nodiscard]] std::optional<std::string> validate() const;

  /// Multi-line human-readable dump (for debugging and docs).
  [[nodiscard]] std::string to_string() const;

 private:
  std::int32_t num_steps_ = 0;
  std::int32_t num_slots_ = 0;
  std::vector<Action> actions_;
};

std::ostream& operator<<(std::ostream& os, const Schedule& schedule);

/// One decision of a split dynamic program (Revolve, heterogeneous, two-level
/// disk) for a segment [a, b): advance to state `split`, store it in a slot
/// from free pool `pool`, solve [split, b) under `inner_budget`, then
/// restore state a and reverse [a, split) under the segment's own budget.
/// A split at b - 1 stores nothing: the last step is reversed where the
/// advance leaves it. split == 0 selects the slot-less base: re-advance
/// from the segment input for every step.
struct SplitChoice {
  std::int32_t split = 0;
  int pool = 0;
  int inner_budget = 0;
};

/// The DP's decision for segment [a, b) (b - a >= 2) under @p budget. @p sweep
/// selects the full-pass problem (loss-computing sweep, then reversal) over
/// the reversal-only one. @p level is the pool the segment input was stored
/// in (0 for the chain input).
using SplitChooser = std::function<SplitChoice(bool sweep, int a, int b,
                                               int budget, int level)>;

/// Emits the executor-dialect schedule of a split DP. Slot 0 holds the chain
/// input; pool k owns the next pool_sizes[k] slot ids, drawn lowest first and
/// reused LIFO, so the schedule has 1 + sum(pool_sizes) slots. Every Backward
/// is preceded by its re-materialising ForwardSave. Throws std::logic_error
/// when @p choose names an exhausted pool, also for a split at b - 1.
[[nodiscard]] Schedule emit_split_schedule(std::int32_t num_steps,
                                           const std::vector<int>& pool_sizes,
                                           int budget,
                                           const SplitChooser& choose);

}  // namespace edgetrain::core

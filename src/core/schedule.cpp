#include "core/schedule.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_set>
#include <utility>

namespace edgetrain::core {

std::string to_string(ActionType type) {
  switch (type) {
    case ActionType::Forward: return "Forward";
    case ActionType::ForwardSave: return "ForwardSave";
    case ActionType::Backward: return "Backward";
    case ActionType::Store: return "Store";
    case ActionType::Restore: return "Restore";
    case ActionType::Free: return "Free";
  }
  return "?";
}

ScheduleStats Schedule::stats() const {
  ScheduleStats stats;
  int slots_in_use = 0;
  int live_saves = 0;
  std::vector<bool> occupied(static_cast<std::size_t>(std::max(num_slots_, 0)),
                             false);
  std::vector<bool> saved(static_cast<std::size_t>(std::max(num_steps_, 0)),
                          false);
  auto update_peaks = [&] {
    stats.peak_slots_in_use = std::max(stats.peak_slots_in_use, slots_in_use);
    // Discount one unit for the stored chain input (state_0): it lives in
    // the data buffer and is not an activation the paper's tables count.
    stats.peak_memory_units =
        std::max(stats.peak_memory_units, slots_in_use + live_saves - 1);
  };
  for (const Action& action : actions_) {
    switch (action.type) {
      case ActionType::Forward:
        ++stats.advances;
        break;
      case ActionType::ForwardSave:
        ++stats.forward_saves;
        if (action.index >= 0 && action.index < num_steps_ &&
            !saved[static_cast<std::size_t>(action.index)]) {
          saved[static_cast<std::size_t>(action.index)] = true;
          ++live_saves;
        }
        break;
      case ActionType::Backward:
        ++stats.backwards;
        if (action.index >= 0 && action.index < num_steps_ &&
            saved[static_cast<std::size_t>(action.index)]) {
          saved[static_cast<std::size_t>(action.index)] = false;
          --live_saves;
        }
        break;
      case ActionType::Store:
        ++stats.stores;
        if (action.slot >= 0 &&
            action.slot < static_cast<std::int32_t>(occupied.size()) &&
            !occupied[static_cast<std::size_t>(action.slot)]) {
          occupied[static_cast<std::size_t>(action.slot)] = true;
          ++slots_in_use;
        }
        break;
      case ActionType::Restore:
        ++stats.restores;
        break;
      case ActionType::Free:
        if (action.slot >= 0 &&
            action.slot < static_cast<std::int32_t>(occupied.size()) &&
            occupied[static_cast<std::size_t>(action.slot)]) {
          occupied[static_cast<std::size_t>(action.slot)] = false;
          --slots_in_use;
        }
        break;
    }
    update_peaks();
  }
  return stats;
}

std::optional<std::string> Schedule::validate() const {
  constexpr std::int32_t kNoState = -1;
  std::int32_t current_state = 0;  // we begin holding state_0 (the input)
  std::int32_t adjoint_frontier = num_steps_;  // next Backward must be this-1
  std::vector<bool> saved(static_cast<std::size_t>(num_steps_), false);
  std::vector<std::int32_t> slots(static_cast<std::size_t>(num_slots_),
                                  kNoState);
  std::vector<bool> reversed(static_cast<std::size_t>(num_steps_), false);

  auto fail = [&](std::size_t pos, const std::string& why) {
    std::ostringstream os;
    os << "action " << pos << ": " << why;
    return os.str();
  };

  for (std::size_t pos = 0; pos < actions_.size(); ++pos) {
    const Action& a = actions_[pos];
    switch (a.type) {
      case ActionType::Forward:
      case ActionType::ForwardSave: {
        if (a.index < 0 || a.index >= num_steps_) {
          return fail(pos, "forward step out of range");
        }
        if (current_state != a.index) {
          return fail(pos, "forward of step " + std::to_string(a.index) +
                               " but current state is " +
                               std::to_string(current_state));
        }
        if (a.type == ActionType::ForwardSave) {
          if (saved[static_cast<std::size_t>(a.index)]) {
            return fail(pos, "ForwardSave of step " + std::to_string(a.index) +
                                 " whose intermediates are already live");
          }
          saved[static_cast<std::size_t>(a.index)] = true;
        }
        current_state = a.index + 1;
        break;
      }
      case ActionType::Backward: {
        if (a.index != adjoint_frontier - 1) {
          return fail(pos, "backward of step " + std::to_string(a.index) +
                               " out of order (expected " +
                               std::to_string(adjoint_frontier - 1) + ")");
        }
        if (!saved[static_cast<std::size_t>(a.index)]) {
          return fail(pos, "backward of step " + std::to_string(a.index) +
                               " without live intermediates");
        }
        saved[static_cast<std::size_t>(a.index)] = false;
        reversed[static_cast<std::size_t>(a.index)] = true;
        adjoint_frontier = a.index;
        break;
      }
      case ActionType::Store: {
        if (a.slot < 0 || a.slot >= num_slots_) {
          return fail(pos, "store to slot out of range");
        }
        if (current_state != a.index) {
          return fail(pos, "store of state " + std::to_string(a.index) +
                               " but current state is " +
                               std::to_string(current_state));
        }
        slots[static_cast<std::size_t>(a.slot)] = a.index;
        break;
      }
      case ActionType::Restore: {
        if (a.slot < 0 || a.slot >= num_slots_) {
          return fail(pos, "restore from slot out of range");
        }
        const std::int32_t held = slots[static_cast<std::size_t>(a.slot)];
        if (held == kNoState) {
          return fail(pos,
                      "restore from empty slot " + std::to_string(a.slot));
        }
        if (held != a.index) {
          return fail(pos, "restore expected state " + std::to_string(a.index) +
                               " but slot holds " + std::to_string(held));
        }
        current_state = held;
        break;
      }
      case ActionType::Free: {
        if (a.slot < 0 || a.slot >= num_slots_) {
          return fail(pos, "free of slot out of range");
        }
        slots[static_cast<std::size_t>(a.slot)] = kNoState;
        break;
      }
    }
  }

  if (adjoint_frontier != 0) {
    return "incomplete reversal: adjoint frontier stopped at " +
           std::to_string(adjoint_frontier);
  }
  for (std::int32_t i = 0; i < num_steps_; ++i) {
    if (!reversed[static_cast<std::size_t>(i)]) {
      return "step " + std::to_string(i) + " never reversed";
    }
  }
  return std::nullopt;
}

std::string Schedule::to_string() const {
  std::ostringstream os;
  os << "Schedule(l=" << num_steps_ << ", slots=" << num_slots_ << ")\n";
  for (const Action& a : actions_) {
    os << "  " << edgetrain::core::to_string(a.type);
    if (a.type == ActionType::Store || a.type == ActionType::Restore) {
      os << " state=" << a.index << " slot=" << a.slot;
    } else if (a.type == ActionType::Free) {
      os << " slot=" << a.slot;
    } else {
      os << " step=" << a.index;
    }
    os << '\n';
  }
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Schedule& schedule) {
  return os << schedule.to_string();
}

namespace {

class SplitEmitter {
 public:
  SplitEmitter(std::int32_t num_steps, const std::vector<int>& pool_sizes,
               const SplitChooser& choose)
      : choose_(choose) {
    std::int32_t next = 1;
    pools_.reserve(pool_sizes.size());
    for (const int size : pool_sizes) {
      std::vector<std::int32_t>& pool = pools_.emplace_back();
      pool.reserve(static_cast<std::size_t>(std::max(size, 0)));
      for (std::int32_t slot = next + size - 1; slot >= next; --slot) {
        pool.push_back(slot);
      }
      next += size;
    }
    schedule_ = Schedule(num_steps, next);
  }

  Schedule build(int budget) {
    schedule_.store(0, 0);
    solve(true, 0, schedule_.num_steps(), budget, 0, 0);
    schedule_.free(0);
    return std::move(schedule_);
  }

 private:
  void reverse_one(std::int32_t step) {
    schedule_.forward_save(step);
    schedule_.backward(step);
  }

  /// Pre: current state == a, state a stored in input_slot.
  void solve(bool sweep, std::int32_t a, std::int32_t b, int budget,
             int level, std::int32_t input_slot) {
    if (b - a == 1) {
      reverse_one(a);
      return;
    }
    const SplitChoice choice = choose_(sweep, a, b, budget, level);
    if (choice.split == 0) {
      // Slot-less base. The sweep's advance to the last step and the
      // reversal's first re-advance are the same actions, so both problems
      // emit: reverse the last step, then re-advance from the input for
      // every remaining one.
      for (std::int32_t i = b - 1; i >= a; --i) {
        if (i != b - 1) schedule_.restore(a, input_slot);
        for (std::int32_t k = a; k < i; ++k) schedule_.forward(k);
        reverse_one(i);
      }
      return;
    }
    const std::int32_t j = choice.split;
    for (std::int32_t i = a; i < j; ++i) schedule_.forward(i);
    std::vector<std::int32_t>& pool =
        pools_.at(static_cast<std::size_t>(choice.pool));
    if (pool.empty()) {
      throw std::logic_error("emit_split_schedule: slot pool " +
                             std::to_string(choice.pool) + " exhausted");
    }
    const std::int32_t slot = pool.back();
    pool.pop_back();
    schedule_.store(j, slot);
    solve(sweep, j, b, choice.inner_budget, choice.pool, slot);
    schedule_.free(slot);
    pool.push_back(slot);
    schedule_.restore(a, input_slot);
    solve(false, a, j, budget, level, input_slot);
  }

  const SplitChooser& choose_;
  std::vector<std::vector<std::int32_t>> pools_;
  Schedule schedule_;
};

}  // namespace

Schedule emit_split_schedule(std::int32_t num_steps,
                             const std::vector<int>& pool_sizes, int budget,
                             const SplitChooser& choose) {
  return SplitEmitter(num_steps, pool_sizes, choose).build(budget);
}

}  // namespace edgetrain::core

#include "core/schedule.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <stdexcept>
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

ScheduleStats Schedule::stats() const { return interpret(*this).facts; }

std::optional<std::string> Schedule::validate() const {
  return interpret(*this).first_error();
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
    if (j == b - 1) {
      // A one-step right segment is reversed where it is computed; storing
      // its input would be a checkpoint nothing ever restores.
      reverse_one(j);
      schedule_.restore(a, input_slot);
      solve(false, a, j, budget, level, input_slot);
      return;
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

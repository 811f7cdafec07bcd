#include "core/replay.hpp"

#include <algorithm>
#include <deque>
#include <sstream>

#include "core/schedule.hpp"

namespace edgetrain::core {

namespace {
constexpr std::int32_t kNoState = -1;
}  // namespace

std::string to_string(Check check) {
  switch (check) {
    case Check::StepRange: return "step-range";
    case Check::ForwardState: return "forward-state";
    case Check::SaveAlreadyLive: return "save-already-live";
    case Check::BackwardOrder: return "backward-order";
    case Check::BackwardLiveness: return "backward-liveness";
    case Check::SeedState: return "seed-state";
    case Check::SlotRange: return "slot-range";
    case Check::StoreState: return "store-state";
    case Check::RestoreEmpty: return "restore-empty";
    case Check::RestoreState: return "restore-state";
    case Check::FreeOrphan: return "free-orphan";
    case Check::Completion: return "completion";
    case Check::MemoryBound: return "memory-bound";
    case Check::WeightedMemoryBound: return "weighted-memory-bound";
    case Check::SlotBound: return "slot-bound";
    case Check::WorkBound: return "work-bound";
    case Check::RedundantFree: return "redundant-free";
    case Check::DeadStore: return "dead-store";
  }
  return "?";
}

std::string Report::summary() const {
  std::ostringstream os;
  for (const Finding& f : findings) {
    os << (f.severity == Severity::Error ? "error" : "warning") << " ["
       << to_string(f.check) << "] at action " << f.position << ": "
       << f.detail << '\n';
  }
  return os.str();
}

std::optional<std::string> Report::first_error() const {
  for (const Finding& f : findings) {
    if (f.severity != Severity::Error) continue;
    if (f.position < 0) return f.detail;
    return "action " + std::to_string(f.position) + ": " + f.detail;
  }
  return std::nullopt;
}

namespace {

/// Per-Free liveness verdicts and per-Store deadness, from one backward
/// pass: slot k is "needed" at position p when some action after p Restores
/// k before any Store overwrites it.
struct LivenessFacts {
  std::vector<bool> free_orphans;  ///< indexed by action position
  std::vector<bool> dead_stores;   ///< indexed by action position
};

LivenessFacts liveness_pass(const Schedule& schedule) {
  const std::vector<Action>& actions = schedule.actions();
  LivenessFacts facts;
  facts.free_orphans.assign(actions.size(), false);
  facts.dead_stores.assign(actions.size(), false);
  const std::size_t num_slots =
      static_cast<std::size_t>(std::max(schedule.num_slots(), 0));
  std::vector<bool> needed(num_slots, false);
  for (std::size_t pos = actions.size(); pos-- > 0;) {
    const Action& a = actions[pos];
    if (a.slot < 0 || a.slot >= schedule.num_slots()) continue;
    const auto slot = static_cast<std::size_t>(a.slot);
    switch (a.type) {
      case ActionType::Restore:
        needed[slot] = true;
        break;
      case ActionType::Store:
        facts.dead_stores[pos] = !needed[slot];
        needed[slot] = false;
        break;
      case ActionType::Free:
        facts.free_orphans[pos] = needed[slot];
        break;
      default:
        break;
    }
  }
  return facts;
}

class Interpreter {
 public:
  Interpreter(const Schedule& schedule, const CostModel& cost,
              const Bounds& bounds)
      : schedule_(schedule),
        cost_(cost),
        bounds_(bounds),
        num_steps_(schedule.num_steps()),
        num_slots_(schedule.num_slots()),
        adjoint_frontier_(schedule.num_steps()),
        saved_(static_cast<std::size_t>(std::max(num_steps_, 0)), false),
        reversed_(static_cast<std::size_t>(std::max(num_steps_, 0)), false),
        slots_(static_cast<std::size_t>(std::max(num_slots_, 0)), kNoState) {}

  Report run() {
    const LivenessFacts liveness = liveness_pass(schedule_);
    const std::vector<Action>& actions = schedule_.actions();
    for (std::size_t pos = 0; pos < actions.size(); ++pos) {
      step(pos, actions[pos], liveness);
      update_peaks();
    }
    finish();
    return std::move(report_);
  }

 private:
  void error(std::size_t pos, Check check, std::string detail) {
    report_.findings.push_back(Finding{Severity::Error, check,
                                       static_cast<std::int64_t>(pos),
                                       std::move(detail)});
  }
  void warn(std::size_t pos, Check check, std::string detail) {
    report_.findings.push_back(Finding{Severity::Warning, check,
                                       static_cast<std::int64_t>(pos),
                                       std::move(detail)});
  }
  void error_at_end(Check check, std::string detail) {
    report_.findings.push_back(
        Finding{Severity::Error, check, -1, std::move(detail)});
  }

  [[nodiscard]] bool step_in_range(std::int32_t step) const {
    return step >= 0 && step < num_steps_;
  }
  [[nodiscard]] bool slot_in_range(std::int32_t slot) const {
    return slot >= 0 && slot < num_slots_;
  }

  void step(std::size_t pos, const Action& a,
            const LivenessFacts& liveness) {
    switch (a.type) {
      case ActionType::Forward:
      case ActionType::ForwardSave: {
        if (!step_in_range(a.index)) {
          error(pos, Check::StepRange,
                "forward of step " + std::to_string(a.index) +
                    " outside [0, " + std::to_string(num_steps_) + ")");
          return;
        }
        if (current_state_ != a.index) {
          error(pos, Check::ForwardState,
                "forward of step " + std::to_string(a.index) +
                    " but current state is " + std::to_string(current_state_));
        }
        double charged = 0.0;
        if (a.type == ActionType::ForwardSave) {
          ++report_.facts.forward_saves;
          if (saved_[static_cast<std::size_t>(a.index)]) {
            error(pos, Check::SaveAlreadyLive,
                  "ForwardSave of step " + std::to_string(a.index) +
                      " whose intermediates are already live");
          } else {
            saved_[static_cast<std::size_t>(a.index)] = true;
            ++live_saves_;
          }
          // A save executed with the gradient already waiting at its output
          // is the re-materialisation the paper folds into the Backward
          // unit; every scheduler DP prices it at zero (R(1, s) = 0).
          if (adjoint_frontier_ == a.index + 1) {
            ++report_.facts.absorbed_saves;
          } else {
            charged = cost_.step_cost(a.index);
          }
        } else {
          ++report_.facts.advances;
          charged = cost_.step_cost(a.index);
        }
        report_.facts.forward_cost += charged;
        advance_clock(charged);
        current_state_ = a.index + 1;
        break;
      }
      case ActionType::Backward: {
        ++report_.facts.backwards;
        if (!step_in_range(a.index)) {
          error(pos, Check::StepRange,
                "backward of step " + std::to_string(a.index) +
                    " outside [0, " + std::to_string(num_steps_) + ")");
          return;
        }
        report_.facts.backward_cost += cost_.step_cost(a.index);
        advance_clock(cost_.step_cost(a.index));
        if (a.index != adjoint_frontier_ - 1) {
          error(pos, Check::BackwardOrder,
                "backward of step " + std::to_string(a.index) +
                    " out of order (expected " +
                    std::to_string(adjoint_frontier_ - 1) + ")");
        }
        if (!saved_[static_cast<std::size_t>(a.index)]) {
          error(pos, Check::BackwardLiveness,
                "backward of step " + std::to_string(a.index) +
                    " without live intermediates");
        } else {
          saved_[static_cast<std::size_t>(a.index)] = false;
          --live_saves_;
        }
        reversed_[static_cast<std::size_t>(a.index)] = true;
        adjoint_frontier_ = a.index;
        // The first Backward seeds the loss gradient from the current state,
        // which the loss consumes: the executor holds no state after it.
        if (report_.facts.backwards == 1) {
          if (current_state_ != num_steps_) {
            error(pos, Check::SeedState,
                  "loss seeded from state " + std::to_string(current_state_) +
                      " instead of the chain output " +
                      std::to_string(num_steps_));
          }
          current_state_ = kNoState;
        }
        break;
      }
      case ActionType::Store: {
        ++report_.facts.stores;
        if (!slot_in_range(a.slot)) {
          error(pos, Check::SlotRange,
                "store to slot " + std::to_string(a.slot) + " outside [0, " +
                    std::to_string(num_slots_) + ")");
          return;
        }
        if (current_state_ != a.index) {
          error(pos, Check::StoreState,
                "store of state " + std::to_string(a.index) +
                    " but current state is " + std::to_string(current_state_));
        }
        if (liveness.dead_stores[pos]) {
          warn(pos, Check::DeadStore,
               "state " + std::to_string(a.index) + " stored to slot " +
                   std::to_string(a.slot) + " is never restored");
        }
        if (slots_[static_cast<std::size_t>(a.slot)] == kNoState) {
          occupy(a.slot, +1);
        }
        slots_[static_cast<std::size_t>(a.slot)] = a.index;
        if (cost_.is_disk_slot(a.slot)) {
          if (cost_.overlapped_io) {
            model_overlapped_write(cost_.pricing.slot_ratio(a.slot));
          } else {
            report_.facts.io_cost += cost_.disk_write_cost;
          }
        }
        break;
      }
      case ActionType::Restore: {
        ++report_.facts.restores;
        if (!slot_in_range(a.slot)) {
          error(pos, Check::SlotRange,
                "restore from slot " + std::to_string(a.slot) +
                    " outside [0, " + std::to_string(num_slots_) + ")");
          return;
        }
        const std::int32_t held = slots_[static_cast<std::size_t>(a.slot)];
        if (held == kNoState) {
          error(pos, Check::RestoreEmpty,
                "restore from empty slot " + std::to_string(a.slot));
        } else if (held != a.index) {
          error(pos, Check::RestoreState,
                "restore expected state " + std::to_string(a.index) +
                    " but slot " + std::to_string(a.slot) + " holds " +
                    std::to_string(held));
        }
        if (cost_.is_disk_slot(a.slot)) {
          if (cost_.overlapped_io) {
            model_overlapped_read();
          } else {
            report_.facts.io_cost += cost_.disk_read_cost;
          }
        }
        // Adopt the claimed state: downstream checks then diagnose against
        // the schedule's own intent rather than cascading this defect.
        current_state_ = a.index;
        break;
      }
      case ActionType::Free: {
        ++report_.facts.frees;
        if (!slot_in_range(a.slot)) {
          error(pos, Check::SlotRange,
                "free of slot " + std::to_string(a.slot) + " outside [0, " +
                    std::to_string(num_slots_) + ")");
          return;
        }
        if (liveness.free_orphans[pos]) {
          error(pos, Check::FreeOrphan,
                "free of slot " + std::to_string(a.slot) +
                    " orphans state " +
                    std::to_string(slots_[static_cast<std::size_t>(a.slot)]) +
                    " still needed by a later restore");
        }
        if (slots_[static_cast<std::size_t>(a.slot)] == kNoState) {
          warn(pos, Check::RedundantFree,
               "free of already-empty slot " + std::to_string(a.slot));
        } else {
          occupy(a.slot, -1);
          slots_[static_cast<std::size_t>(a.slot)] = kNoState;
        }
        break;
      }
    }
  }

  // --- Overlapped-IO pipeline model (cost_.overlapped_io only) ------------
  //
  // One FIFO background worker, one clock. Compute advances the clock;
  // transfers occupy the worker back to back. A Store stalls the clock only
  // when the write-staging budget is exhausted (the async store's put()
  // back-pressure); a Restore stalls only for the part of its read that the
  // prefetcher could not finish before consumption. Every stall happens
  // while the worker is busy, so accumulated stalls never exceed
  // io_busy_cost: the modeled wall-clock (total_cost) is bounded by the
  // serial model's compute + full IO, and below by the pure compute.
  // Prefetch issue times are optimistic (the worker picks the read up the
  // moment it is free); the lookahead window of the real store is not
  // modeled, so this is the best wall-clock the staging budgets permit.

  void advance_clock(double compute) {
    if (!cost_.overlapped_io) return;
    clock_ += compute;
    retire_writes();
  }

  void retire_writes() {
    while (!outstanding_writes_.empty() &&
           outstanding_writes_.front().completion <= clock_ + 1e-12) {
      outstanding_writes_.pop_front();
    }
  }

  void model_overlapped_write(double slot_ratio) {
    const double w = cost_.disk_write_cost;
    retire_writes();
    const auto budget =
        static_cast<std::size_t>(std::max(cost_.write_staging_slots, 1));
    if (outstanding_writes_.size() >= budget) {
      const double wait_until = outstanding_writes_.front().completion;
      if (wait_until > clock_) {
        report_.facts.io_cost += wait_until - clock_;
        clock_ = wait_until;
      }
      retire_writes();
    }
    const double completion = std::max(clock_, io_free_at_) + w;
    io_free_at_ = completion;
    outstanding_writes_.push_back(StagedWrite{completion, slot_ratio});
    report_.facts.io_busy_cost += w;
    note_staged(static_cast<int>(outstanding_writes_.size()));
  }

  void model_overlapped_read() {
    const double r = cost_.disk_read_cost;
    report_.facts.io_busy_cost += r;
    // Prefetched reads are issued as soon as the worker frees up (which is
    // never before the slot's own write completed -- FIFO); unprefetched
    // reads cannot start before the Restore reaches them.
    const double start = cost_.read_staging_slots > 0
                             ? io_free_at_
                             : std::max(clock_, io_free_at_);
    const double completion = start + r;
    io_free_at_ = completion;
    note_staged(static_cast<int>(outstanding_writes_.size()) +
                (cost_.read_staging_slots > 0 ? 1 : 0));
    if (completion > clock_) {
      report_.facts.io_cost += completion - clock_;
      clock_ = completion;
    }
    retire_writes();
  }

  void note_staged(int staged) {
    report_.facts.peak_staged_slots =
        std::max(report_.facts.peak_staged_slots, staged);
  }

  void occupy(std::int32_t slot, int delta) {
    slots_in_use_ += delta;
    if (cost_.is_disk_slot(slot)) {
      disk_slots_in_use_ += delta;
    } else {
      ram_slots_in_use_ += delta;
      // Weighted occupancy; the chain-input slot 0 is the data buffer and
      // prices at 0 (the "- 1" of peak_memory_units).
      weighted_ram_units_ += delta * cost_.pricing.slot_ratio(slot);
    }
  }

  void update_peaks() {
    ScheduleStats& f = report_.facts;
    f.peak_slots_in_use = std::max(f.peak_slots_in_use, slots_in_use_);
    f.peak_ram_slots_in_use =
        std::max(f.peak_ram_slots_in_use, ram_slots_in_use_);
    f.peak_disk_slots_in_use =
        std::max(f.peak_disk_slots_in_use, disk_slots_in_use_);
    f.peak_live_saves = std::max(f.peak_live_saves, live_saves_);
    // RAM units only: a disk checkpoint is the point of the two-level
    // schedule -- it does not occupy device RAM. Minus one for the chain
    // input, matching ScheduleStats::peak_memory_units. Under the
    // overlapped-IO model the async store's write-behind staging buffers
    // (spills accepted but not yet flushed) are real RAM and count on top;
    // prefetched-read buffers are transient at the consuming Restore and
    // tracked by peak_staged_slots instead.
    const int staged = cost_.overlapped_io
                           ? static_cast<int>(outstanding_writes_.size())
                           : 0;
    f.peak_memory_units = std::max(
        f.peak_memory_units, ram_slots_in_use_ + live_saves_ - 1 + staged);
    // Weighted variant: resting checkpoints (occupied slots other than the
    // input; staged write-behind blobs) rest encoded at their slot's ratio,
    // live intermediates stay plaintext.
    double resting = weighted_ram_units_;
    for (const StagedWrite& write : outstanding_writes_) {
      resting += write.ratio;
    }
    f.peak_weighted_units = std::max(
        f.peak_weighted_units, static_cast<double>(live_saves_) + resting);
  }

  void finish() {
    if (adjoint_frontier_ != 0) {
      error_at_end(Check::Completion,
                   "incomplete reversal: adjoint frontier stopped at " +
                       std::to_string(adjoint_frontier_));
    }
    for (std::int32_t i = 0; i < num_steps_; ++i) {
      if (!reversed_[static_cast<std::size_t>(i)]) {
        error_at_end(Check::Completion,
                     "step " + std::to_string(i) + " never reversed");
      }
    }
    const ScheduleStats& f = report_.facts;
    if (bounds_.max_memory_units &&
        f.peak_memory_units > *bounds_.max_memory_units) {
      error_at_end(Check::MemoryBound,
                   "peak memory units " + std::to_string(f.peak_memory_units) +
                       " exceed the analytic bound " +
                       std::to_string(*bounds_.max_memory_units));
    }
    if (bounds_.max_weighted_units &&
        f.peak_weighted_units > *bounds_.max_weighted_units + 1e-9) {
      error_at_end(Check::WeightedMemoryBound,
                   "codec-weighted peak units " +
                       std::to_string(f.peak_weighted_units) +
                       " exceed the planner bound " +
                       std::to_string(*bounds_.max_weighted_units));
    }
    if (bounds_.max_ram_slots &&
        f.peak_ram_slots_in_use > *bounds_.max_ram_slots) {
      error_at_end(Check::SlotBound,
                   "peak RAM slots " + std::to_string(f.peak_ram_slots_in_use) +
                       " exceed the bound " +
                       std::to_string(*bounds_.max_ram_slots));
    }
    if (bounds_.max_total_cost &&
        f.total_cost() > *bounds_.max_total_cost + 1e-9) {
      error_at_end(Check::WorkBound,
                   "total cost " + std::to_string(f.total_cost()) +
                       " exceeds the budget " +
                       std::to_string(*bounds_.max_total_cost));
    }
  }

  const Schedule& schedule_;
  const CostModel& cost_;
  const Bounds& bounds_;
  const std::int32_t num_steps_;
  const std::int32_t num_slots_;

  std::int32_t current_state_ = 0;
  std::int32_t adjoint_frontier_ = 0;  // set to num_steps in the constructor
  std::vector<bool> saved_;
  std::vector<bool> reversed_;
  std::vector<std::int32_t> slots_;
  int live_saves_ = 0;
  int slots_in_use_ = 0;
  int ram_slots_in_use_ = 0;
  int disk_slots_in_use_ = 0;
  /// Sum of CostModel::pricing ratios over the occupied RAM slots.
  double weighted_ram_units_ = 0.0;

  // Overlapped-IO pipeline state (unused under the serial model).
  struct StagedWrite {
    double completion;  ///< clock time the background flush finishes
    double ratio;       ///< resting ratio of the blob's target slot
  };
  double clock_ = 0.0;       ///< compute timeline position
  double io_free_at_ = 0.0;  ///< when the background worker frees up
  std::deque<StagedWrite> outstanding_writes_;  ///< FIFO, completion order

  Report report_;
};

}  // namespace

Report interpret(const Schedule& schedule, const CostModel& cost,
                 const Bounds& bounds) {
  Interpreter interp(schedule, cost, bounds);
  return interp.run();
}

}  // namespace edgetrain::core

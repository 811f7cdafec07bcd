#include "core/disk_revolve.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/slot_pricing.hpp"

namespace edgetrain::core::disk {

DiskRevolveSolver::DiskRevolveSolver(int num_steps,
                                     const DiskRevolveOptions& options)
    : num_steps_(num_steps), options_(options) {
  if (num_steps < 1) throw std::invalid_argument("DiskRevolve: l < 1");
  if (options_.ram_slots < 0) {
    throw std::invalid_argument("DiskRevolve: ram_slots < 0");
  }
  if (options_.write_cost < 0.0 || options_.read_cost < 0.0) {
    throw std::invalid_argument("DiskRevolve: negative IO cost");
  }
  // The spill ratio obeys the slot-pricing domain (0, 1].
  const double spill_ratio = SlotPricing(options_.spill_bytes_ratio).fill();
  options_.ram_slots = std::min(options_.ram_slots, std::max(num_steps - 1, 0));

  const std::size_t size = static_cast<std::size_t>(num_steps + 1) *
                           static_cast<std::size_t>(options_.ram_slots + 1) * 2;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  fwd_.assign(size, kInf);
  rev_.assign(size, kInf);
  fwd_choice_.assign(size, Choice{});
  rev_choice_.assign(size, Choice{});

  // IO time is proportional to bytes moved, so the codec ratio scales the
  // calibrated per-checkpoint costs directly.
  const double read[2] = {0.0, options_.read_cost * spill_ratio};
  const double write[2] = {0.0, options_.write_cost * spill_ratio};
  // Overlap pricing (async store): a restore issued behind @p window forward
  // units of guaranteed compute only bills the part the pipeline cannot
  // hide. Serial pricing is the window = 0 special case.
  const auto eff_read = [&](std::size_t li, double window) {
    return options_.overlap_io ? std::max(read[li] - window, 0.0) : read[li];
  };

  // Convention (matches the schedule emitter): every recursion enters with
  // the current state positioned at the segment input; restores are charged
  // where the emitter issues them (re-positioning after the right
  // sub-segment, and per backward in the slot-less base case). The one
  // exception is a split at j = len - 1: the write is charged, but the
  // emitter reverses that last step without storing it, so the table is an
  // upper bound on the emitted schedule's cost. The sweep cost F is counted
  // analytically: the paper's Backward unit absorbs its own
  // re-materialisation, so F(1) = 1 (the sweep through the step).
  for (int c = 0; c <= options_.ram_slots; ++c) {
    for (const Level level : {Level::Ram, Level::Disk}) {
      fwd_[idx(1, c, level)] = 1.0;
      rev_[idx(1, c, level)] = 0.0;
    }
  }

  for (int len = 2; len <= num_steps; ++len) {
    for (int c = 0; c <= options_.ram_slots; ++c) {
      for (const Level level : {Level::Ram, Level::Disk}) {
        const auto li = static_cast<std::size_t>(level);
        double best_f = kInf;
        double best_r = kInf;
        Choice cf;
        Choice cr;
        for (int j = 1; j < len; ++j) {
          for (const Level m : {Level::Ram, Level::Disk}) {
            if (m == Level::Ram && c == 0) continue;
            if (m == Level::Disk && !options_.allow_disk) continue;
            const auto mi = static_cast<std::size_t>(m);
            const int c_inner = m == Level::Ram ? c - 1 : c;
            // advance j + write checkpoint, recurse right, re-position to
            // the segment input (one read at this level), recurse left.
            // Overlapped: the write-behind store hides under the advance
            // (max instead of sum) and the re-positioning read prefetches
            // under the right sub-segment's reversal, which performs at
            // least its len - j backwards before the restore is consumed.
            const double rev_left =
                eff_read(li, static_cast<double>(len - j)) +
                rev_[idx(j, c, level)];
            const double common =
                options_.overlap_io
                    ? std::max(static_cast<double>(j), write[mi])
                    : static_cast<double>(j) + write[mi];
            const double f = common + fwd_[idx(len - j, c_inner, m)] + rev_left;
            if (f < best_f) {
              best_f = f;
              cf = Choice{static_cast<std::int32_t>(j), m};
            }
            const double r = common + rev_[idx(len - j, c_inner, m)] + rev_left;
            if (r < best_r) {
              best_r = r;
              cr = Choice{static_cast<std::int32_t>(j), m};
            }
          }
        }
        // Slot-less fallback: re-advance from the segment input every time.
        {
          const double readvance =
              static_cast<double>(len) * (len - 1) / 2.0;
          // Overlapped: the restore before the k-step re-advance prefetches
          // under the previous iteration's k+1 advances and one backward.
          double repositions = 0.0;
          for (int k = 0; k <= len - 2; ++k) {
            repositions += eff_read(li, static_cast<double>(k + 2));
          }
          const double r0 = readvance + repositions;
          // A sweep additionally pays one more reposition: after reaching
          // the chain end, the first backward's re-advance starts with a
          // restore of the segment input (the reversal base enters with the
          // input already current, the sweep leaves the end current). Its
          // prefetch window is the whole len-step sweep.
          const double f0 = static_cast<double>(len) + r0 +
                            eff_read(li, static_cast<double>(len));
          if (f0 < best_f) {
            best_f = f0;
            cf = Choice{0, level};
          }
          if (r0 < best_r) {
            best_r = r0;
            cr = Choice{0, level};
          }
        }
        fwd_[idx(len, c, level)] = best_f;
        rev_[idx(len, c, level)] = best_r;
        fwd_choice_[idx(len, c, level)] = cf;
        rev_choice_[idx(len, c, level)] = cr;
      }
    }
  }
}

double DiskRevolveSolver::forward_cost() const {
  return fwd_[idx(num_steps_, options_.ram_slots, Level::Ram)];
}

double DiskRevolveSolver::recompute_factor() const {
  return (forward_cost() + static_cast<double>(num_steps_)) /
         (2.0 * static_cast<double>(num_steps_));
}

Schedule DiskRevolveSolver::make_schedule() const {
  // Pool 0 is RAM (slot ids 1..ram_slots), pool 1 is disk (ids from
  // ram_slots+1, at most one per state); Level doubles as the pool index.
  return emit_split_schedule(
      num_steps_, {options_.ram_slots, num_steps_}, options_.ram_slots,
      [this](bool sweep, int a, int b, int c, int level) {
        const Choice choice = (sweep ? fwd_choice_ : rev_choice_)[idx(
            b - a, c, static_cast<Level>(level))];
        if (choice.split == 0) return SplitChoice{};
        const bool ram = choice.store_level == Level::Ram;
        return SplitChoice{a + choice.split,
                           static_cast<int>(choice.store_level),
                           ram ? c - 1 : c};
      });
}

int DiskRevolveSolver::peak_disk_slots() const {
  CostModel levels;
  levels.first_disk_slot = options_.ram_slots + 1;
  return interpret(make_schedule(), levels).facts.peak_disk_slots_in_use;
}

}  // namespace edgetrain::core::disk

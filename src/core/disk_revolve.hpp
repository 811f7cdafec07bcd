// edgetrain: two-level (RAM + SD-card) checkpointing.
//
// Waggle nodes carry flash storage that is orders of magnitude larger than
// their 2 GB RAM but slow to access. The paper cites INRIA's disk-revolve
// ([1] in the paper); this module implements the two-level dynamic program:
// checkpoints may be written to RAM (free, but only `c` slots) or to disk
// (unlimited slots, but each write costs `write_cost` and each read
// `read_cost` forward-step units).
//
// DP over (segment length, free RAM slots, level of the segment input):
//   F_L(1, c) = 1 + r_L
//   R_L(1, c) = r_L
//   F_L(n, c) = min_{j,m} [ j + w_m + F_m(n-j, c-[m=ram]) + R_L(j, c) ]
//   R_L(n, c) = r_L + min_{j,m} [ j + w_m + R_m(n-j, c-[m=ram]) + R_L(j, c) ]
// where L, m range over {ram, disk}, r_ram = w_ram = 0, and the m = ram
// branch requires c > 0. With disk disabled this reduces exactly to
// core/revolve.hpp (property-tested).
#pragma once

#include <cstdint>
#include <vector>

#include "core/schedule.hpp"

namespace edgetrain::core::disk {

/// Storage level of a checkpoint.
enum class Level : std::uint8_t { Ram = 0, Disk = 1 };

struct DiskRevolveOptions {
  int ram_slots = 1;        ///< free RAM checkpoint slots (input not counted)
  double write_cost = 2.0;  ///< disk write, in forward-step units
  double read_cost = 2.0;   ///< disk read, in forward-step units
  /// Encoded bytes per plaintext byte for spilled checkpoints, in (0, 1]
  /// (core::planning_bytes_ratio). Disk IO time is bytes moved / bandwidth,
  /// so the DP prices each write/read at cost * ratio: a 0.5 codec halves
  /// the IO penalty, shifting the optimal splits toward more disk
  /// checkpoints at the same write_cost calibration. With measured spill
  /// ratios, pass their mean (calib::priced_disk_options does): the DP's
  /// state space does not track which disk ordinal a checkpoint lands in,
  /// and the replay's per-slot WeightedMemoryBound enforces each slot's
  /// own ratio downstream.
  double spill_bytes_ratio = 1.0;
  bool allow_disk = true;   ///< disable to recover single-level Revolve
  /// Price disk IO as overlapped with recompute instead of serial, matching
  /// TieredSlotStore: a write is hidden under the advance it trails
  /// (max(j, w) instead of j + w) and a restore is discounted by the
  /// guaranteed compute of the sub-segment reversed while it prefetches
  /// (max(r - window, 0) instead of r). This shifts the DP's splits toward
  /// more disk checkpoints once the IO is (partially) free; the analysis::
  /// interpreter's pipeline model is the ground truth for the resulting
  /// schedule's wall-clock. With overlap_io the solved cost never exceeds
  /// the serial cost and never undercuts the pure-compute cost.
  bool overlap_io = false;
};

/// Solver for one chain length; build once, query costs and schedules.
class DiskRevolveSolver {
 public:
  DiskRevolveSolver(int num_steps, const DiskRevolveOptions& options);

  [[nodiscard]] int num_steps() const noexcept { return num_steps_; }
  [[nodiscard]] const DiskRevolveOptions& options() const noexcept {
    return options_;
  }

  /// F_ram(l, ram_slots): total cost (forward units + weighted IO) of a full
  /// training pass; the chain input counts as a free RAM checkpoint. An
  /// upper bound on the emitted schedule's replayed cost: the DP charges a
  /// disk write for a split at the segment's last step, which the emitter
  /// reverses in place without storing.
  [[nodiscard]] double forward_cost() const;

  /// Recompute factor (forward_cost + l backwards) / (2 l).
  [[nodiscard]] double recompute_factor() const;

  /// Peak number of simultaneously live disk checkpoints in the emitted
  /// schedule (0 when allow_disk is false or disk is never profitable),
  /// read from its replay.
  [[nodiscard]] int peak_disk_slots() const;

  /// Executor-dialect schedule. RAM slots are numbered 0..ram_slots (0 is
  /// the input); disk checkpoints use slot ids >= ram_slots+1. Use
  /// is_disk_slot() to map ids to levels.
  [[nodiscard]] Schedule make_schedule() const;

  [[nodiscard]] bool is_disk_slot(std::int32_t slot) const noexcept {
    return slot > options_.ram_slots;
  }

 private:
  [[nodiscard]] std::size_t idx(int len, int c, Level level) const {
    return (static_cast<std::size_t>(len) *
                static_cast<std::size_t>(options_.ram_slots + 1) +
            static_cast<std::size_t>(c)) *
               2 +
           static_cast<std::size_t>(level);
  }

  struct Choice {
    std::int32_t split = 0;  // 0 = base case
    Level store_level = Level::Ram;
  };

  int num_steps_;
  DiskRevolveOptions options_;
  std::vector<double> fwd_;
  std::vector<double> rev_;
  std::vector<Choice> fwd_choice_;
  std::vector<Choice> rev_choice_;
};

}  // namespace edgetrain::core::disk

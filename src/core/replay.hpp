// edgetrain: the schedule replay machine.
//
// The Schedule IR (core/schedule.hpp) is the trust boundary between the
// schedulers (binomial Revolve, uniform segmentation, heterogeneous DP,
// two-level disk Revolve) and the executor that replays the IR against a
// real network. A scheduler bug does not crash: it silently corrupts
// gradients or blows the device memory budget. interpret() replays a
// schedule through an abstract machine whose state is exactly the
// information the executor's correctness depends on:
//
//   current state index | adjoint frontier | live intermediates per step |
//   slot contents       | RAM/disk slot occupancy | cost accumulators
//
// It is the only symbolic replay in the library: Schedule::stats() and
// Schedule::validate() read it, ScheduleExecutor replays it once before
// touching the network, and the two-level solver reads its disk peak from
// it. It checks every invariant the paper's transformation relies on:
//
//   * every forward and store happens from the state it claims;
//   * the first Backward seeds the loss from the chain output, which is
//     then consumed: nothing may be stored or advanced from it;
//   * every Backward consumes intermediates that are provably live;
//   * every Restore reads a slot holding exactly the claimed state;
//   * Free never orphans a state a later Restore still needs (a backward
//     liveness pass over the action stream);
//   * peak activation units never exceed the planner's analytic bound,
//     and the codec-weighted peak, with resting slots priced by the same
//     SlotPricing the planner used (core/slot_pricing.hpp), never exceeds
//     the planner's byte bound;
//   * total work, under the paper's cost convention (forwards at per-step
//     cost, backwards at the same, IO at the two-level model's weights),
//     never exceeds the scheduler's promise (<= 2 * rho * l);
//   * the reversal completes: every step reversed exactly once, in order.
//
// Violations are reported as machine-readable findings; warnings (redundant
// frees, dead stores) are reported but do not fail a schedule. The sweep
// driver (analysis/sweep.hpp) and the schedule_lint CLI run this machine
// over parameter grids covering every scheduler family.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/slot_pricing.hpp"

namespace edgetrain::core {

class Schedule;

/// Invariant classes the interpreter checks. Each finding names one.
enum class Check : std::uint8_t {
  StepRange,          ///< forward/backward step index outside [0, l)
  ForwardState,       ///< forward of step i while holding a state != i
  SaveAlreadyLive,    ///< ForwardSave of a step whose intermediates are live
  BackwardOrder,      ///< Backward out of l-1..0 order
  BackwardLiveness,   ///< Backward without live intermediates
  SeedState,          ///< first Backward while holding a state != l
  SlotRange,          ///< slot id outside [0, num_slots)
  StoreState,         ///< Store claims a state other than the current one
  RestoreEmpty,       ///< Restore from an empty slot
  RestoreState,       ///< Restore claims a state the slot does not hold
  FreeOrphan,         ///< Free of a slot a later Restore still needs
  Completion,         ///< reversal incomplete at end of program
  MemoryBound,        ///< peak activation units exceed the analytic bound
  WeightedMemoryBound,///< codec-weighted peak units exceed the planner bound
  SlotBound,          ///< peak RAM slot occupancy exceeds the analytic bound
  WorkBound,          ///< total cost exceeds the scheduler's promise
  RedundantFree,      ///< (warning) Free of an already-empty slot
  DeadStore,          ///< (warning) Store never restored before overwrite/end
};

[[nodiscard]] std::string to_string(Check check);

enum class Severity : std::uint8_t { Error, Warning };

/// One diagnosed fact about a schedule.
struct Finding {
  Severity severity = Severity::Error;
  Check check = Check::Completion;
  /// Action index the finding anchors to; -1 for end-of-program findings.
  std::int64_t position = -1;
  std::string detail;
};

/// Cost model under which the interpreter accumulates work. Defaults give
/// the paper's homogeneous unit-cost convention with every slot in RAM; the
/// heterogeneous solver supplies per-step costs, the two-level solver
/// supplies IO weights.
struct CostModel {
  /// Per-step forward cost; empty means unit cost for every step. Backward
  /// of step i is charged the same weight (the paper's bwd_ratio = 1).
  std::vector<double> step_costs;
  /// Slots >= first_disk_slot are disk checkpoints (two-level schedules).
  std::int32_t first_disk_slot = std::numeric_limits<std::int32_t>::max();
  /// Forward-unit cost of writing / reading a disk checkpoint.
  double disk_write_cost = 0.0;
  double disk_read_cost = 0.0;
  /// Model disk IO as overlapped with compute (TieredSlotStore disk tier): a
  /// single FIFO background worker with bounded staging, simulated as a
  /// pipeline. io_cost then accumulates only the *stall* time the pipeline
  /// cannot hide -- writes stall when the write-staging budget is full,
  /// restores stall when their read has not completed by consumption time
  /// -- so total_cost() is the modeled wall-clock of the overlapped
  /// replay. Because a stall only accrues while the worker is busy, the
  /// overlapped total never exceeds the serial total (compute + full IO)
  /// and never undercuts the pure-compute cost.
  bool overlapped_io = false;
  /// Staging budgets of the async store (must match the executing store's
  /// AsyncDiskSlotStoreOptions for the wall-clock model to be faithful).
  int write_staging_slots = 1;
  int read_staging_slots = 1;
  /// Bytes a resting (slot-stored or staged) checkpoint costs relative to
  /// plaintext, keyed like ChainSpec::pricing (entry k = slot k + 1; the
  /// chain-input slot 0 is never priced). Weighted peak accounting charges
  /// each occupied RAM slot and each write-behind staged blob at its slot's
  /// ratio while live intermediates stay at 1 -- exactly the planner's
  /// peak(s) = fixed + (1 + units(s)) * act model, in activation units,
  /// and the bound schedule_lint re-checks after a re-plan.
  SlotPricing pricing;

  [[nodiscard]] double step_cost(std::int32_t step) const {
    if (step_costs.empty()) return 1.0;
    return step_costs[static_cast<std::size_t>(step)];
  }
  [[nodiscard]] bool is_disk_slot(std::int32_t slot) const noexcept {
    return slot >= first_disk_slot;
  }
};

/// Analytic bounds the schedule must stay within. Unset bounds are not
/// checked; the sweep driver fills them from each scheduler's own model.
struct Bounds {
  /// Peak RAM activation units: occupied RAM slots plus steps with live
  /// intermediates, minus one for the chain input (the convention of
  /// ScheduleStats::peak_memory_units). Revolve with s free slots promises
  /// s + 1; the planner's peak(s) formula counts the same quantity.
  std::optional<int> max_memory_units;
  /// Peak simultaneously occupied RAM slots (disk slots excluded).
  std::optional<int> max_ram_slots;
  /// Total cost bound: weighted forwards + weighted backwards + IO. The
  /// paper's work budget for recompute factor rho is 2 * rho * l.
  std::optional<double> max_total_cost;
  /// Codec-weighted peak activation units (peak_weighted_units must stay
  /// <= this). For the one-live-save schedule families (binomial Revolve,
  /// two-level disk Revolve) with s free slots the planner promises
  /// 1 + units(s) (+ the staged blobs' ratios when the overlapped-IO model
  /// is on): 1 + r * s for a codec of ratio r. Families that keep several
  /// live saves at once (sequential segmentation, full storage) have no
  /// such closed form -- leave it unset there.
  std::optional<double> max_weighted_units;
};

/// Quantities measured by one replay of a schedule.
struct ScheduleStats {
  std::int64_t advances = 0;       ///< Forward actions
  std::int64_t forward_saves = 0;  ///< ForwardSave actions
  /// ForwardSaves executed while the adjoint frontier already sat at the
  /// step's output: the paper's Backward unit absorbs exactly these
  /// re-materialisations, so they are charged no forward cost.
  std::int64_t absorbed_saves = 0;
  std::int64_t backwards = 0;      ///< Backward actions
  std::int64_t stores = 0;
  std::int64_t restores = 0;
  std::int64_t frees = 0;
  int peak_slots_in_use = 0;       ///< all slots (RAM + disk)
  int peak_ram_slots_in_use = 0;   ///< slots below first_disk_slot
  int peak_disk_slots_in_use = 0;  ///< slots at/above first_disk_slot
  int peak_live_saves = 0;         ///< steps with live intermediates
  /// Peak simultaneous activation units: occupied RAM slots + steps with
  /// live intermediates, minus one for the chain input (state_0), which
  /// resides in the data buffer and is not an activation the paper counts.
  /// Full storage over l steps replays to l; Revolve with s free slots to
  /// s + 1 (matching the planner's analytic model), or to s when s = l - 1.
  int peak_memory_units = 0;
  /// Same quantity with resting checkpoints (occupied RAM slots other than
  /// the input, plus write-behind staging) charged at their CostModel::
  /// pricing ratio and live intermediates at 1: peak RAM in plaintext
  /// activation units when slots hold codec blobs. Equals
  /// peak_memory_units under the default (plaintext) pricing.
  double peak_weighted_units = 0.0;
  double forward_cost = 0.0;   ///< weighted advances + unabsorbed saves
  double backward_cost = 0.0;  ///< weighted backwards
  /// Serial model: full disk write/read charges. Overlapped model
  /// (CostModel::overlapped_io): only the pipeline stall time.
  double io_cost = 0.0;
  /// Overlapped model only: total worker busy time (every transfer at its
  /// full serial price); 0 under the serial model. Always >= io_cost.
  double io_busy_cost = 0.0;
  /// Overlapped model only: peak staged units (outstanding write-behind
  /// spills + unconsumed prefetched restores) the async store holds in RAM
  /// on top of the planner's activation units.
  int peak_staged_slots = 0;
  /// Serial model: compute + full IO. Overlapped model: the modeled
  /// wall-clock (compute + unhidden stalls).
  [[nodiscard]] double total_cost() const {
    return forward_cost + backward_cost + io_cost;
  }

  /// Recompute factor counting every executed forward at full cost
  /// (what our executor actually pays): (advances + saves + backwards)/(2l).
  /// Note: the *paper's* recompute factor rho -- in which a Backward unit
  /// absorbs the cost of re-materialising its own step -- is an analytic
  /// quantity; it is computed by revolve::recompute_factor() from the DP
  /// cost model.
  [[nodiscard]] double recompute_factor_strict(std::int64_t num_steps) const {
    return (static_cast<double>(advances) + static_cast<double>(forward_saves) +
            static_cast<double>(backwards)) /
           (2.0 * static_cast<double>(num_steps));
  }
};

/// Result of interpreting one schedule.
struct Report {
  ScheduleStats facts;
  std::vector<Finding> findings;

  /// True when no Error-severity finding was recorded. Warnings pass.
  [[nodiscard]] bool ok() const {
    for (const Finding& f : findings) {
      if (f.severity == Severity::Error) return false;
    }
    return true;
  }
  [[nodiscard]] std::size_t error_count() const {
    std::size_t n = 0;
    for (const Finding& f : findings) {
      if (f.severity == Severity::Error) ++n;
    }
    return n;
  }
  /// The first Error finding as "action N: detail" (just the detail for
  /// end-of-program findings); std::nullopt when there is none.
  [[nodiscard]] std::optional<std::string> first_error() const;
  /// One-line-per-finding human-readable summary (empty when clean).
  [[nodiscard]] std::string summary() const;
};

/// Abstractly executes @p schedule, checking the machine invariants and any
/// bounds supplied. Never throws on malformed schedules: every defect
/// becomes a Finding. The interpreter keeps scanning after an error when it
/// can (to report all defects), but abstract state mutations that would
/// mask later checks are still applied in program order.
[[nodiscard]] Report interpret(const Schedule& schedule,
                               const CostModel& cost = {},
                               const Bounds& bounds = {});

}  // namespace edgetrain::core

// edgetrain: exhaustive schedule sweeps for the abstract interpreter.
//
// Generates schedules from every scheduler family in the library --
// binomial Revolve (dense small-l grids, large-l slot grids, and
// rho-target-driven slot selection), PyTorch-style uniform segmentation,
// the heterogeneous per-step-cost DP (uniform slots and byte budgets),
// and two-level RAM+disk Revolve -- paired with the analytic bounds each
// scheduler promises (peak activation units, RAM slot occupancy, total
// work under the paper's cost convention). Each case is handed to a
// visitor that typically runs analysis::interpret and records the verdict;
// tools/schedule_lint is that visitor wired to a JSON report and a process
// exit code.
//
// The module also provides the fault injector used to prove the gate has
// teeth: corrupt() applies a targeted mutation that is guaranteed to
// violate a named invariant, so tests (and the CLI's --inject/--self-check
// modes) can assert the interpreter rejects what it must reject.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/replay.hpp"
#include "core/schedule.hpp"

namespace edgetrain::analysis {

/// One schedule plus the bounds its scheduler promised.
struct SweepCase {
  /// "revolve" | "sequential" | "hetero" | "hetero-bytes" | "disk" |
  /// "disk-overlap" | "replan-revolve" | "replan-disk" | "replan-disk-overlap"
  std::string family;
  std::string name;    ///< human-readable parameter string
  core::Schedule schedule;
  core::CostModel cost;
  core::Bounds bounds;
};

/// Grid sizes for one sweep. Defaults give the full CI gate (> 1000
/// schedules, a few seconds of wall clock); quick() shrinks the grids for
/// unit tests while keeping every family covered.
struct SweepConfig {
  // Binomial Revolve: every s in [0, l-1] for l <= dense_max_l, then the
  // cartesian product large_l x large_s, then for each large l and rho
  // target the slot count min_free_slots_for_rho selects (slot cap keeps
  // the shared table build bounded).
  int revolve_dense_max_l = 40;
  std::vector<int> revolve_large_l = {256, 1024, 2500};
  std::vector<int> revolve_large_s = {2, 4, 8, 16, 32, 64};
  std::vector<double> rho_targets = {1.1, 1.25, 1.5, 2.0, 3.0};
  int rho_slot_cap = 80;

  // Uniform segmentation: every segment count in [1, min(l, seg_cap)].
  int seq_dense_max_l = 56;
  std::vector<int> seq_large_l = {512, 2048};
  int seq_segment_cap = 24;

  // Heterogeneous DP: l x s grid, three per-step cost profiles each, plus
  // byte-budget cases over two state-size patterns and budgets
  // 0..2 * hetero_max_s units.
  int hetero_max_l = 18;
  int hetero_max_s = 5;

  // Two-level disk Revolve: chain lengths x RAM slots x IO cost points,
  // with the disk-disabled degenerate case included.
  std::vector<int> disk_l = {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96};
  std::vector<int> disk_ram_slots = {0, 1, 2, 4};
  std::vector<double> disk_io_costs = {0.5, 2.0, 8.0};

  // Re-planned per-slot cases: schedules re-solved from heterogeneous
  // MEASURED per-slot ratios (the dynamic-ratio adaptive path), verified
  // against the per-slot weighted memory bound across the revolve, disk,
  // and disk-overlap families. target_slots are the measured-prefix
  // lengths the synthetic capacity is sized to exactly afford.
  std::vector<int> replan_l = {6, 12, 24, 48};
  std::vector<int> replan_target_slots = {1, 2, 4, 8};
  std::vector<int> replan_ram_slots = {1, 3};

  [[nodiscard]] static SweepConfig full() { return SweepConfig{}; }
  [[nodiscard]] static SweepConfig quick();
};

using CaseVisitor = std::function<void(const SweepCase&)>;

/// Generates every case of @p config and hands each to @p visit.
/// Returns the number of cases generated.
std::int64_t run_sweep(const SweepConfig& config, const CaseVisitor& visit);

/// Targeted schedule mutations, each violating a specific invariant.
enum class Corruption : std::uint8_t {
  /// Retarget a Backward to the wrong step (backward-order).
  BackwardOutOfOrder,
  /// Demote the ForwardSave feeding a Backward to a plain Forward
  /// (backward-liveness: the intermediates are never materialised).
  DropForwardSave,
  /// Change the state a Restore claims (restore-state: slot disagrees).
  RestoreWrongState,
  /// Free a slot immediately before a Restore of it (free-orphan +
  /// restore-empty).
  EarlyFree,
  /// Store into one slot more than the planner budgeted, never freed
  /// (memory-bound: peak activation units exceed the analytic bound).
  ExtraStoreOverBudget,
  /// Insert redundant advance/restore churn (work-bound: total cost
  /// exceeds 2 * rho * l).
  InflateWork,
};

inline constexpr Corruption kAllCorruptions[] = {
    Corruption::BackwardOutOfOrder, Corruption::DropForwardSave,
    Corruption::RestoreWrongState,  Corruption::EarlyFree,
    Corruption::ExtraStoreOverBudget, Corruption::InflateWork,
};

[[nodiscard]] std::string to_string(Corruption corruption);

/// Applies @p corruption to a copy of the case's schedule. Returns
/// std::nullopt when the schedule lacks the action pattern the mutation
/// targets (e.g. a restore-less full-storage schedule cannot host
/// RestoreWrongState) or the case lacks the bound the mutation attacks.
/// A returned schedule is guaranteed to violate the corruption's invariant
/// when interpreted with the case's cost model and bounds.
[[nodiscard]] std::optional<core::Schedule> corrupt(const SweepCase& sweep_case,
                                                    Corruption corruption);

}  // namespace edgetrain::analysis

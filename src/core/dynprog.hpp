// edgetrain: optimal checkpointing for heterogeneous chains.
//
// Real ResNets are not homogeneous: the stem, the four stages and the head
// have different forward costs, and their boundary states differ ~8x in
// size across stages (spatial halving vs channel doubling). Treating each
// residual block as one chain step gives a short (tens of steps)
// heterogeneous chain; this solver generalises the Revolve DP to per-step
// forward costs f_i and per-state storage costs u_j against a checkpoint
// budget M. Storing boundary state j consumes u_j budget units, so the
// optimum prefers the cheap-to-store boundaries (stage transitions):
//
//   R(a, b, M) = min_{a<j<b, u_j<=M} [ span(a,j) + R(j,b,M-u_j) + R(a,j,M) ]
//   F(a, b, M) = min_{a<j<b, u_j<=M} [ span(a,j) + F(j,b,M-u_j) + R(a,j,M) ]
//
// with span(a,j) = f_a + ... + f_{j-1}, R(a,a+1,M) = 0, F(a,a+1,M) = f_a,
// and the chain input always available for free. When no state in (a, b)
// fits M the segment uses the slot-less base: re-advance from the segment
// input for every step. (Any affordable split costs no more than that base,
// so it is never preferred to one.) With every u_j = 1 the budget is a
// count of uniform slots, the block-level M_A, and with all f_i = 1 the
// costs coincide with core/revolve.hpp (property-tested).
//
// F's bookkeeping follows the paper (and core/revolve.hpp): the length-1
// base charges f_a for the saving forward that feeds the step's backward.
// The executor's ground-truth cost model (analysis::interp) instead
// absorbs every such re-materialisation into its Backward unit -- each
// step pays it exactly once under any schedule, so it is a constant -- and
// charges only the re-advances. Minimising F is NOT the same as
// minimising re-advances (F carries the saving forwards of only the
// innermost base segment, a split-dependent term), so the solver keeps a
// third table E with save-free bases
//
//   E(a, a+1, M) = 0,   slot-less base E = R
//   E(a, b, M) = min_{a<j<b, u_j<=M} [ span(a,j) + E(j,b,M-u_j) + R(a,j,M) ]
//
// whose argmins drive make_schedule: the emitted schedule is optimal in
// real (interpreter / wall-clock) cost, while forward_cost() still
// reports the paper-convention F.
//
// Complexity: O(l^2 * M) states, O(l) transitions each -> O(l^3 * M).
// Intended for block-level chains (l <= ~200).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/schedule.hpp"

namespace edgetrain::core::hetero {

/// DP solver for one chain; build once, query/emit schedules per budget.
class HeteroSolver {
 public:
  /// Largest DP state space, (l+1)^2 * (budget+1) cells, a solver accepts.
  static constexpr std::size_t kMaxStates = 96ULL << 20;

  /// Uniform slots: every state costs one unit.
  /// @p forward_costs: per-step forward cost (arbitrary positive units).
  /// @p max_free_slots: largest budget the tables cover (clamped to l-1).
  HeteroSolver(const std::vector<double>& forward_costs, int max_free_slots);

  /// Byte budget.
  /// @p forward_costs: per-step cost, size l.
  /// @p state_units: storage cost of each boundary state 1..l-1 in budget
  ///    units (size l-1; the chain input and output are never stored), e.g.
  ///    one unit = the smallest boundary's bytes.
  /// @p budget_units: largest budget the tables cover.
  HeteroSolver(std::vector<double> forward_costs, std::vector<int> state_units,
               int budget_units);

  [[nodiscard]] int num_steps() const noexcept {
    return static_cast<int>(costs_.size());
  }

  /// Total forward cost of one un-checkpointed sweep (sum of step costs).
  [[nodiscard]] double sweep_cost() const noexcept { return total_; }

  /// F(0, l, budget): forward cost of a full training pass. Every query
  /// clamps its budget to [0, the largest budget the tables cover].
  [[nodiscard]] double forward_cost(int budget) const;

  /// E(0, l, budget): the pure re-advance cost of the optimal schedule,
  /// i.e. what analysis::interpret charges as forward cost
  /// (re-materialisation saves absorbed into Backward). make_schedule
  /// minimises this.
  [[nodiscard]] double advance_cost(int budget) const;

  /// Recompute factor with backward cost = bwd_ratio * forward cost of the
  /// same step: rho = (F(budget) + bwd) / (sweep + bwd).
  [[nodiscard]] double recompute_factor(int budget,
                                        double bwd_ratio = 1.0) const;

  /// Smallest budget with recompute_factor(budget) <= rho_budget (the
  /// largest budget the tables cover if none qualifies).
  [[nodiscard]] int min_free_slots_for_rho(double rho_budget,
                                           double bwd_ratio = 1.0) const;

  /// Executor-dialect schedule realising advance_cost(budget): no schedule
  /// within the same budget interprets to a lower cost. Slot 0 holds the
  /// chain input; stored states share one LIFO pool of min(budget, l-1)
  /// slots, and the live ones never cost more than the budget.
  [[nodiscard]] Schedule make_schedule(int budget) const;

 private:
  [[nodiscard]] std::size_t idx(int a, int b, int m) const {
    const std::size_t l = costs_.size();
    return (static_cast<std::size_t>(a) * (l + 1) +
            static_cast<std::size_t>(b)) *
               static_cast<std::size_t>(budget_ + 1) +
           static_cast<std::size_t>(m);
  }
  [[nodiscard]] double span(int a, int b) const {
    return prefix_[static_cast<std::size_t>(b)] -
           prefix_[static_cast<std::size_t>(a)];
  }
  [[nodiscard]] int unit(int state) const {
    return units_[static_cast<std::size_t>(state) - 1];
  }
  [[nodiscard]] int clamp_budget(int budget) const;
  void solve_cell(int a, int b, int m);

  std::vector<double> costs_;
  std::vector<int> units_;      // units_[state - 1] for states 1..l-1
  std::vector<double> prefix_;  // prefix_[i] = sum of costs_[0..i)
  double total_ = 0.0;
  int budget_ = 0;
  std::vector<double> rev_;   // R(a, b, m)
  std::vector<double> fwd_;   // F(a, b, m): paper convention
  std::vector<double> exec_;  // E(a, b, m): interpreter convention
  std::vector<std::int32_t> rev_split_;  // 0 = slot-less base
  std::vector<std::int32_t> exec_split_;
};

}  // namespace edgetrain::core::hetero

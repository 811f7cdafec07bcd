#include "core/dynprog.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace edgetrain::core::hetero {

namespace {

int num_states(const std::vector<double>& forward_costs) {
  return std::max(static_cast<int>(forward_costs.size()) - 1, 0);
}

}  // namespace

HeteroSolver::HeteroSolver(const std::vector<double>& forward_costs,
                           int max_free_slots)
    : HeteroSolver(forward_costs,
                   std::vector<int>(
                       static_cast<std::size_t>(num_states(forward_costs)), 1),
                   std::clamp(max_free_slots, 0, num_states(forward_costs))) {}

HeteroSolver::HeteroSolver(std::vector<double> forward_costs,
                           std::vector<int> state_units, int budget_units)
    : costs_(std::move(forward_costs)),
      units_(std::move(state_units)),
      budget_(budget_units) {
  const int l = static_cast<int>(costs_.size());
  if (l < 1) throw std::invalid_argument("HeteroSolver: empty chain");
  if (static_cast<int>(units_.size()) != l - 1) {
    throw std::invalid_argument(
        "HeteroSolver: state_units must cover states 1..l-1");
  }
  for (const double c : costs_) {
    if (!(c > 0.0)) {
      throw std::invalid_argument("HeteroSolver: step costs must be > 0");
    }
  }
  for (const int u : units_) {
    if (u < 1) {
      throw std::invalid_argument("HeteroSolver: state units must be >= 1");
    }
  }
  if (budget_ < 0) throw std::invalid_argument("HeteroSolver: budget < 0");

  prefix_.assign(static_cast<std::size_t>(l) + 1, 0.0);
  for (int i = 0; i < l; ++i) {
    prefix_[static_cast<std::size_t>(i) + 1] =
        prefix_[static_cast<std::size_t>(i)] + costs_[static_cast<std::size_t>(i)];
  }
  total_ = prefix_.back();

  const std::size_t size = static_cast<std::size_t>(l + 1) *
                           static_cast<std::size_t>(l + 1) *
                           static_cast<std::size_t>(budget_ + 1);
  if (size > kMaxStates) {
    throw std::invalid_argument(
        "HeteroSolver: state space too large; use block-level steps or "
        "coarser budget units");
  }
  rev_.assign(size, 0.0);
  fwd_.assign(size, 0.0);
  exec_.assign(size, 0.0);
  rev_split_.assign(size, 0);
  exec_split_.assign(size, 0);

  for (int len = 1; len <= l; ++len) {
    for (int a = 0; a + len <= l; ++a) {
      for (int m = 0; m <= budget_; ++m) solve_cell(a, a + len, m);
    }
  }
}

void HeteroSolver::solve_cell(int a, int b, int m) {
  const std::size_t cell = idx(a, b, m);
  if (b - a == 1) {
    rev_[cell] = 0.0;
    fwd_[cell] = costs_[static_cast<std::size_t>(a)];
    exec_[cell] = 0.0;
    return;
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double best_r = kInf;
  double best_f = kInf;
  double best_e = kInf;
  std::int32_t split_r = 0;
  std::int32_t split_e = 0;
  for (int j = a + 1; j < b; ++j) {
    const int u = unit(j);
    if (u > m) continue;
    const double advance = span(a, j);
    const double left = rev_[idx(a, j, m)];
    const double r = advance + rev_[idx(j, b, m - u)] + left;
    if (r < best_r) {
      best_r = r;
      split_r = static_cast<std::int32_t>(j);
    }
    best_f = std::min(best_f, advance + fwd_[idx(j, b, m - u)] + left);
    const double e = advance + exec_[idx(j, b, m - u)] + left;
    if (e < best_e) {
      best_e = e;
      split_e = static_cast<std::int32_t>(j);
    }
  }
  if (split_r == 0) {
    // No state in (a, b) fits m: re-advance from the segment input for
    // every step. E's base is save-free (the re-materialisation forward is
    // absorbed into Backward), so it equals R's.
    double fallback = 0.0;
    for (int k = a + 1; k < b; ++k) fallback += span(a, k);
    best_r = fallback;
    best_f = span(a, b) + fallback;
    best_e = fallback;
  }
  rev_[cell] = best_r;
  fwd_[cell] = best_f;
  exec_[cell] = best_e;
  rev_split_[cell] = split_r;
  exec_split_[cell] = split_e;
}

int HeteroSolver::clamp_budget(int budget) const {
  return std::clamp(budget, 0, budget_);
}

double HeteroSolver::forward_cost(int budget) const {
  return fwd_[idx(0, num_steps(), clamp_budget(budget))];
}

double HeteroSolver::advance_cost(int budget) const {
  return exec_[idx(0, num_steps(), clamp_budget(budget))];
}

double HeteroSolver::recompute_factor(int budget, double bwd_ratio) const {
  const double bwd = bwd_ratio * total_;
  return (forward_cost(budget) + bwd) / (total_ + bwd);
}

int HeteroSolver::min_free_slots_for_rho(double rho_budget,
                                         double bwd_ratio) const {
  for (int m = 0; m <= budget_; ++m) {
    if (recompute_factor(m, bwd_ratio) <= rho_budget + 1e-12) return m;
  }
  return budget_;
}

Schedule HeteroSolver::make_schedule(int budget) const {
  const int l = num_steps();
  const int top = clamp_budget(budget);
  return emit_split_schedule(
      l, {std::min(top, l - 1)}, top,
      [this](bool sweep, int a, int b, int m, int) {
        const std::vector<std::int32_t>& splits =
            sweep ? exec_split_ : rev_split_;
        const std::int32_t j = splits[idx(a, b, m)];
        return SplitChoice{j, 0, j == 0 ? 0 : m - unit(j)};
      });
}

}  // namespace edgetrain::core::hetero

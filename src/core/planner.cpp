#include "core/planner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace edgetrain::core {

MemoryPlanner::MemoryPlanner(ChainSpec spec) : spec_(std::move(spec)) {
  if (spec_.depth < 1) throw std::invalid_argument("MemoryPlanner: depth < 1");
  if (spec_.activation_bytes_per_step <= 0.0) {
    throw std::invalid_argument("MemoryPlanner: activation size must be > 0");
  }
  if (spec_.step_costs.empty()) {
    table_ = std::make_unique<revolve::RevolveTable>(
        spec_.depth, std::max(spec_.depth - 1, 0));
    return;
  }
  if (static_cast<int>(spec_.step_costs.size()) != spec_.depth) {
    throw std::invalid_argument(
        "MemoryPlanner: step_costs size must equal depth");
  }
  for (const double cost : spec_.step_costs) {
    if (!(cost > 0.0)) {
      throw std::invalid_argument(
          "MemoryPlanner: step_costs must be strictly positive");
    }
  }
  if (!(spec_.backward_ratio > 0.0)) {
    throw std::invalid_argument("MemoryPlanner: backward_ratio must be > 0");
  }
  hetero_ = std::make_unique<hetero::HeteroSolver>(
      spec_.step_costs, std::max(spec_.depth - 1, 0));
}

double MemoryPlanner::no_checkpoint_bytes() const noexcept {
  // All depth activations stored: the frontier in plaintext, the other
  // depth - 1 resting at the codec ratio (which is 1 when uncompressed).
  return spec_.fixed_bytes +
         (1.0 + spec_.pricing.units(spec_.depth - 1)) *
             spec_.activation_bytes_per_step;
}

double MemoryPlanner::min_possible_bytes() const noexcept {
  return spec_.fixed_bytes + spec_.activation_bytes_per_step;
}

PlanPoint MemoryPlanner::point_for_slots(int free_slots) const {
  PlanPoint point;
  point.free_slots = free_slots;
  point.total_slots = free_slots + 1;
  if (hetero_ != nullptr) {
    point.forward_cost_us = hetero_->forward_cost(free_slots);
    point.forward_cost =
        static_cast<std::int64_t>(std::llround(point.forward_cost_us));
    point.achieved_rho =
        hetero_->recompute_factor(free_slots, spec_.backward_ratio);
  } else {
    point.forward_cost = table_->forward_cost(spec_.depth, free_slots);
    point.achieved_rho =
        static_cast<double>(point.forward_cost + spec_.depth) /
        (2.0 * static_cast<double>(spec_.depth));
  }
  point.peak_bytes = spec_.fixed_bytes +
                     (1.0 + spec_.pricing.units(free_slots)) *
                         spec_.activation_bytes_per_step;
  return point;
}

PlanPoint MemoryPlanner::plan_for_rho(double rho_budget) const {
  const int s =
      hetero_ != nullptr
          ? hetero_->min_free_slots_for_rho(rho_budget, spec_.backward_ratio)
          : revolve::min_free_slots_for_rho(*table_, spec_.depth, rho_budget);
  PlanPoint point = point_for_slots(s);
  point.rho_budget = rho_budget;
  return point;
}

std::vector<PlanPoint> MemoryPlanner::sweep_rho(double rho_min, double rho_max,
                                                int points) const {
  if (points < 2) throw std::invalid_argument("sweep_rho: points < 2");
  std::vector<PlanPoint> curve;
  curve.reserve(static_cast<std::size_t>(points));
  for (int i = 0; i < points; ++i) {
    const double rho = rho_min + (rho_max - rho_min) * i / (points - 1);
    curve.push_back(plan_for_rho(rho));
  }
  return curve;
}

PlanReport MemoryPlanner::report_for_device(double capacity_bytes) const {
  PlanReport report;
  report.chain = spec_;
  report.capacity_bytes = capacity_bytes;
  report.no_checkpoint_bytes = no_checkpoint_bytes();
  report.min_possible_bytes = min_possible_bytes();
  report.fits_without_checkpointing =
      report.no_checkpoint_bytes <= capacity_bytes;
  report.fits_with_checkpointing = report.min_possible_bytes <= capacity_bytes;

  if (!report.fits_with_checkpointing) {
    report.min_rho_to_fit = std::numeric_limits<double>::infinity();
    return report;
  }
  // The largest slot count that fits determines the smallest achievable
  // rho. Under plaintext pricing this is the paper's
  // floor((cap - fixed) / act) - 1 exactly; cheaper slots buy more.
  const int free_slots = std::clamp(
      spec_.pricing.max_free_slots(capacity_bytes, spec_.fixed_bytes,
                                   spec_.activation_bytes_per_step),
      0, spec_.depth - 1);
  report.recommended = point_for_slots(free_slots);
  report.recommended.rho_budget = report.recommended.achieved_rho;
  report.min_rho_to_fit = report.recommended.achieved_rho;
  return report;
}

int MemoryPlanner::max_depth_without_checkpointing(
    double capacity_bytes, double fixed_bytes,
    double activation_bytes_per_step) {
  if (activation_bytes_per_step <= 0.0) {
    throw std::invalid_argument("max_depth: activation size must be > 0");
  }
  const double room = capacity_bytes - fixed_bytes;
  if (room <= 0.0) return 0;
  return static_cast<int>(room / activation_bytes_per_step);
}

}  // namespace edgetrain::core

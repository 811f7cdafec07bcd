// edgetrain: the Section VI memory planner.
//
// Combines the Revolve cost tables with the paper's linearised memory model
//   peak(s) = fixed_bytes + (1 + units(s)) * activation_bytes_per_step
// (s free checkpoint slots plus the live frontier activation; the chain
// input is excluded, as in the paper's tables) and the recompute factor
//   rho(s) = (F(l, s) + l) / (2 l).
// units(s) comes from the chain's SlotPricing (core/slot_pricing.hpp): the
// frontier activation is always held in plaintext, but the s checkpoints
// rest encoded, so a 0.5 fp16 codec (units(s) = 0.5 s) buys ~2x the slots
// per byte budget and the planner provably selects a lower rho at the same
// RAM cap; measured per-slot ratios price each slot at its own ratio. The
// default pricing (every slot at 1) reproduces the paper's model bit for
// bit.
// The planner answers the two questions Figure 1 plots: "given a recompute
// budget rho, how much memory do I need?" and "given a device, what is the
// smallest rho that fits?". It also computes the paper's n_max = the
// deepest chain trainable without checkpointing.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dynprog.hpp"
#include "core/revolve.hpp"
#include "core/slot_pricing.hpp"

namespace edgetrain::core {

/// A homogenised chain (the paper's LinearResNet_x at a given batch size
/// and image size).
struct ChainSpec {
  std::string name;                      ///< e.g. "LinearResNet152"
  int depth = 1;                         ///< l
  double fixed_bytes = 0.0;              ///< weights + grads + optimizer state
  double activation_bytes_per_step = 0;  ///< k * M_A (batch folded in)
  /// Bytes a resting checkpoint slot costs relative to plaintext. The
  /// default prices every slot at 1 (uncompressed). A codec prices at its
  /// planning_bytes_ratio(codec); measured per-slot ratios (entry k =
  /// checkpoint slot k + 1, e.g. from SlotStore::measured_slot_ratio, as
  /// core/adaptive.hpp does) price each slot at its own ratio. The live
  /// frontier activation is always charged at full size.
  SlotPricing pricing;
  /// Measured per-step forward costs (any positive unit; calib:: supplies
  /// microseconds), size == depth. Empty keeps the paper's unit-cost model
  /// (binomial Revolve); non-empty switches the planner to the
  /// heterogeneous DP, so plan selection and achieved_rho are computed in
  /// these measured units.
  std::vector<double> step_costs;
  /// Backward/forward cost ratio entering rho; 1 is the paper's
  /// convention, calib::ChainCosts::backward_ratio() supplies the
  /// measured value. Only consulted when step_costs is non-empty.
  double backward_ratio = 1.0;
};

/// One point of the memory/recompute trade-off curve.
struct PlanPoint {
  double rho_budget = 1.0;       ///< requested bound
  double achieved_rho = 1.0;     ///< rho of the chosen schedule (<= budget)
  int free_slots = 0;            ///< s
  int total_slots = 1;           ///< s + 1 (the analytic memory unit count)
  std::int64_t forward_cost = 0; ///< F(l, s) (rounded when measured)
  /// F(l, s) in the chain's measured cost units (microseconds when the
  /// spec came from calib::measured_chain_spec); 0 under unit costs.
  double forward_cost_us = 0.0;
  double peak_bytes = 0.0;       ///< fixed + (1 + units(s)) * act_bytes

  [[nodiscard]] bool fits(double capacity_bytes) const {
    return peak_bytes <= capacity_bytes;
  }
};

/// Device-feasibility summary for one chain.
struct PlanReport {
  ChainSpec chain;
  double capacity_bytes = 0.0;
  double no_checkpoint_bytes = 0.0;   ///< rho = 1 footprint
  double min_possible_bytes = 0.0;    ///< s = 0 footprint
  bool fits_without_checkpointing = false;
  bool fits_with_checkpointing = false;
  /// Smallest recompute factor whose footprint fits the device; +inf when
  /// even s = 0 does not fit. This is the x-coordinate where the chain's
  /// Figure 1 curve crosses the device's capacity line.
  double min_rho_to_fit = 0.0;
  PlanPoint recommended;  ///< the plan at min_rho_to_fit (when feasible)
};

/// Planner for one chain; builds the Revolve table once (O(l^2 * l)).
class MemoryPlanner {
 public:
  explicit MemoryPlanner(ChainSpec spec);

  [[nodiscard]] const ChainSpec& chain() const noexcept { return spec_; }

  /// Footprint with all activations stored (rho = 1).
  [[nodiscard]] double no_checkpoint_bytes() const noexcept;

  /// Footprint of the most frugal schedule (s = 0: input + frontier only).
  [[nodiscard]] double min_possible_bytes() const noexcept;

  /// Minimal-memory plan whose recompute factor is <= rho_budget.
  [[nodiscard]] PlanPoint plan_for_rho(double rho_budget) const;

  /// Curve for Figure 1: plan_for_rho over a uniform rho grid.
  [[nodiscard]] std::vector<PlanPoint> sweep_rho(double rho_min,
                                                 double rho_max,
                                                 int points) const;

  /// Feasibility report against a device memory capacity.
  [[nodiscard]] PlanReport report_for_device(double capacity_bytes) const;

  /// The paper's n_max = (M_C - M_W) / (k * M_A): the deepest chain whose
  /// full activation set fits in capacity without checkpointing.
  [[nodiscard]] static int max_depth_without_checkpointing(
      double capacity_bytes, double fixed_bytes,
      double activation_bytes_per_step);

 private:
  [[nodiscard]] PlanPoint point_for_slots(int free_slots) const;

  ChainSpec spec_;
  /// Exactly one of the two is built: the Revolve table under unit costs,
  /// the heterogeneous solver when spec_.step_costs is populated.
  std::unique_ptr<revolve::RevolveTable> table_;
  std::unique_ptr<hetero::HeteroSolver> hetero_;
};

}  // namespace edgetrain::core

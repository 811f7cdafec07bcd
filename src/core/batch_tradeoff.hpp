// edgetrain: the paper's closing argument, made quantitative (Section VI).
//
// "the effective increase in the total time to solution is likely to be
//  smaller than what is shown ... because a larger batch size will enable
//  fewer batches per epoch. Also, on the typical multi-threaded vector
//  architectures, having a larger batch-size enables to increase the
//  computational efficiency."
//
// This planner sweeps the batch size under a fixed device memory budget:
// bigger batches shrink the checkpoint budget (each slot costs k * M_A),
// raising the recompute factor rho(k), but improve per-sample efficiency
// eff(k). Epoch time per sample is modelled as
//     t(k) = t1 * (2 rho(k) / 2) / eff(k),   eff(k) = k^e / (k^e + c)
// normalised so the reported times are relative to (batch 1, rho achieved
// at batch 1). The sweep exposes the paper's point: the optimal batch under
// checkpointing is typically well above 1 even though rho grows. Slots and
// peaks follow MemoryPlanner's rule (core/slot_pricing.hpp): at batch k
// with s free slots the peak is fixed + (1 + units(s)) * k * M_A.
#pragma once

#include <cstdint>
#include <vector>

#include "core/revolve.hpp"
#include "core/slot_pricing.hpp"

namespace edgetrain::core {

struct BatchTradeoffConfig {
  int depth = 1;                       ///< chain length l
  double capacity_bytes = 0.0;         ///< device memory budget
  double fixed_bytes = 0.0;            ///< weights + grads + optimizer
  double act_bytes_per_sample = 0.0;   ///< M_A per step for batch 1
  /// Vectorisation-efficiency exponent and half-saturation constant:
  /// eff(k) = k^e / (k^e + c); e = 0 disables the efficiency bonus.
  double efficiency_exponent = 1.0;
  double efficiency_half_batch = 4.0;
  /// Resting-slot pricing; the live frontier activation is always
  /// plaintext. The default prices every slot at 1 (uncompressed).
  SlotPricing pricing;
};

struct BatchPoint {
  std::int64_t batch = 1;
  bool feasible = false;
  int total_slots = 0;          ///< checkpoints affordable at this batch
  double rho = 1.0;             ///< achieved recompute factor
  double peak_bytes = 0.0;
  double efficiency = 1.0;      ///< throughput multiplier vs saturation
  double time_per_sample = 0.0; ///< relative; lower is better
};

class BatchTradeoffPlanner {
 public:
  explicit BatchTradeoffPlanner(BatchTradeoffConfig config);

  /// Evaluates one batch size.
  [[nodiscard]] BatchPoint evaluate(std::int64_t batch) const;

  /// Evaluates every batch in @p batches.
  [[nodiscard]] std::vector<BatchPoint> sweep(
      const std::vector<std::int64_t>& batches) const;

  /// The feasible batch minimising time_per_sample (batch 0 when nothing
  /// fits).
  [[nodiscard]] BatchPoint best(std::int64_t max_batch) const;

 private:
  BatchTradeoffConfig config_;
  revolve::RevolveTable table_;
};

}  // namespace edgetrain::core

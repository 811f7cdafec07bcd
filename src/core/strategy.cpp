#include "core/strategy.hpp"

#include <sstream>

#include "core/batch_tradeoff.hpp"
#include "core/slot_codec.hpp"

namespace edgetrain::core {

std::string to_string(Feasibility feasibility) {
  switch (feasibility) {
    case Feasibility::FitsWithoutCheckpointing:
      return "fits without checkpointing";
    case Feasibility::FitsWithCheckpointing:
      return "fits with Revolve checkpointing";
    case Feasibility::FitsWithCompressedSlots:
      return "fits with fp16-compressed checkpoints";
    case Feasibility::FitsWithDiskSpill:
      return "fits with SD-card checkpoint spill";
    case Feasibility::Infeasible:
      return "infeasible on this device";
  }
  return "?";
}

namespace {

/// Batch suggestion once the resting-slot pricing is settled.
void fill_batch(const StrategyRequest& request, const SlotPricing& pricing,
                StrategyRecommendation& rec) {
  BatchTradeoffConfig config;
  config.depth = request.chain.depth;
  config.capacity_bytes = request.device_memory_bytes;
  config.fixed_bytes = request.chain.fixed_bytes;
  config.act_bytes_per_sample = request.chain.activation_bytes_per_step;
  config.efficiency_exponent = request.efficiency_exponent;
  config.efficiency_half_batch = request.efficiency_half_batch;
  config.pricing = pricing;
  const BatchTradeoffPlanner planner(config);
  const BatchPoint best = planner.best(request.max_batch);
  if (best.feasible) {
    rec.recommended_batch = best.batch;
    rec.batch_rho = best.rho;
  }
}

}  // namespace

StrategyRecommendation recommend_strategy(const StrategyRequest& request) {
  StrategyRecommendation rec;
  std::ostringstream why;
  const double capacity = request.device_memory_bytes;
  const ChainSpec& chain = request.chain;

  if (chain.fixed_bytes >= capacity) {
    rec.feasibility = Feasibility::Infeasible;
    why << chain.name << ": fixed training state ("
        << chain.fixed_bytes / 1048576.0 << " MB: weights, gradients and "
        << "optimizer moments) alone exceeds the device ("
        << capacity / 1048576.0 << " MB). Checkpointing compresses "
        << "activations, not fixed state; pick a smaller architecture.";
    rec.rationale = why.str();
    return rec;
  }

  const MemoryPlanner planner(chain);
  const PlanReport report = planner.report_for_device(capacity);

  if (report.fits_without_checkpointing) {
    rec.feasibility = Feasibility::FitsWithoutCheckpointing;
    rec.free_slots = chain.depth - 1;
    rec.rho = 1.0;
    rec.peak_bytes = report.no_checkpoint_bytes;
    why << chain.name << " fits at rho=1 ("
        << report.no_checkpoint_bytes / 1048576.0 << " MB of "
        << capacity / 1048576.0 << " MB); checkpointing is optional.";
    fill_batch(request, SlotPricing{}, rec);
  } else if (report.fits_with_checkpointing &&
             report.min_rho_to_fit <= request.rho_budget) {
    rec.feasibility = Feasibility::FitsWithCheckpointing;
    rec.free_slots = report.recommended.free_slots;
    rec.rho = report.recommended.achieved_rho;
    rec.peak_bytes = report.recommended.peak_bytes;
    why << chain.name << " fits with " << report.recommended.total_slots
        << " Revolve checkpoints at rho=" << rec.rho << " (budget "
        << request.rho_budget << ").";
    fill_batch(request, SlotPricing{}, rec);
  } else {
    // Try fp16 checkpoint compression: halves every resting slot, while
    // the live frontier activation stays plaintext.
    ChainSpec half = chain;
    half.pricing = SlotPricing(planning_bytes_ratio(SlotCodec::Fp16));
    const MemoryPlanner half_planner(half);
    const PlanReport half_report = half_planner.report_for_device(capacity);
    if (half_report.fits_with_checkpointing &&
        half_report.min_rho_to_fit <= request.rho_budget) {
      rec.feasibility = Feasibility::FitsWithCompressedSlots;
      rec.free_slots = half_report.recommended.free_slots;
      rec.rho = half_report.recommended.achieved_rho;
      rec.peak_bytes = half_report.recommended.peak_bytes;
      why << chain.name << " needs fp16 checkpoint compression: "
          << half_report.recommended.total_slots
          << " half-precision checkpoints reach rho=" << rec.rho
          << " within the budget (full precision needs rho="
          << report.min_rho_to_fit << ").";
      fill_batch(request, half.pricing, rec);
    } else if (request.has_local_storage &&
               report.fits_with_checkpointing) {
      // Disk spill keeps only the frontier + one slot in RAM.
      rec.feasibility = Feasibility::FitsWithDiskSpill;
      rec.free_slots = report.recommended.free_slots;
      rec.rho = report.recommended.achieved_rho;
      rec.peak_bytes =
          chain.fixed_bytes + 2.0 * chain.activation_bytes_per_step;
      why << chain.name << " exceeds the rho budget in RAM; spilling "
          << "checkpoints to local storage keeps only ~2 activations "
          << "resident (plus IO latency; see core/disk_revolve.hpp for the "
          << "cost model).";
      fill_batch(request, SlotPricing{}, rec);
    } else {
      rec.feasibility = Feasibility::Infeasible;
      why << chain.name << " does not fit: even the most frugal schedule "
          << "needs " << report.min_possible_bytes / 1048576.0
          << " MB against " << capacity / 1048576.0 << " MB"
          << (request.has_local_storage ? "" : " and no local storage is "
                                               "available for spilling")
          << ".";
    }
  }
  rec.rationale = why.str();
  return rec;
}

}  // namespace edgetrain::core

#include "core/adaptive.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/revolve.hpp"

namespace edgetrain::core {

AdaptiveReplanner::AdaptiveReplanner(int num_steps,
                                     const AdaptiveReplannerOptions& options)
    : num_steps_(num_steps),
      options_(options),
      planned_(options.fallback_ratio) {
  if (num_steps < 1) {
    throw std::invalid_argument("AdaptiveReplanner: num_steps < 1");
  }
  if (!(options_.drift_threshold > 0.0)) {
    throw std::invalid_argument(
        "AdaptiveReplanner: drift_threshold must be > 0");
  }
  const int s = planned_.max_free_slots(options_.capacity_bytes,
                                        options_.fixed_bytes,
                                        options_.activation_bytes_per_step);
  if (s < 0) {
    throw std::invalid_argument(
        "AdaptiveReplanner: capacity cannot fit even the slot-less plan");
  }
  const int free_slots = std::min(s, num_steps_ - 1);
  planned_ = SlotPricing(
      std::vector<double>(static_cast<std::size_t>(free_slots),
                          options_.fallback_ratio),
      options_.fallback_ratio);
  rebuild(free_slots);
}

void AdaptiveReplanner::observe_put(const SlotStore& store) {
  if (pending_slot_ <= 0) return;  // slot 0 is the chain input, never priced
  const std::int32_t slot = pending_slot_;
  pending_slot_ = 0;
  const double measured = store.measured_slot_ratio(slot);
  double& worst = worst_ratios_[static_cast<std::size_t>(slot)];
  worst = std::max(worst, measured);
  const double planned = planned_.slot_ratio(slot);
  if (std::abs(measured - planned) / planned > options_.drift_threshold) {
    drift_latched_ = true;
  }
}

ExecutorHooks AdaptiveReplanner::hooks(const SlotStore& store) {
  ExecutorHooks hooks;
  hooks.on_action = [this, &store](std::int64_t, const Action& action) {
    // The hook runs before its action, so the previous Store's put has
    // returned and measured_slot_ratio already reflects it.
    observe_put(store);
    if (action.type == ActionType::Store) pending_slot_ = action.slot;
  };
  return hooks;
}

bool AdaptiveReplanner::finish_pass(const SlotStore& store) {
  // The last Store of a pass has no later hook invocation to observe it.
  observe_put(store);
  const bool armed = drift_latched_;
  drift_latched_ = false;
  // Each slot is priced at the worst ratio it held this pass, in
  // checkpoint order (entry k = slot k + 1): every state a slot held was
  // resident at some point, so pricing only its last put could buy a plan
  // the chain does not fit. Slots the pass never filled keep their price.
  std::vector<double> measured(static_cast<std::size_t>(free_slots_));
  for (int k = 0; k < free_slots_; ++k) {
    const auto slot = static_cast<std::int32_t>(k + 1);
    const double worst = worst_ratios_[static_cast<std::size_t>(slot)];
    measured[static_cast<std::size_t>(k)] =
        worst > 0.0 ? std::clamp(worst, 1e-6, 1.0) : planned_.slot_ratio(slot);
  }
  std::fill(worst_ratios_.begin(), worst_ratios_.end(), 0.0);
  if (!armed) return false;

  // Slots beyond the measured prefix are priced at the WORST measured
  // ratio: conservative among what this chain actually produced, yet able
  // to buy more slots than the codec's static fallback -- the whole point
  // of re-planning. If a new slot then measures worse, the next pass
  // latches drift again and the plan shrinks back.
  const double fill =
      measured.empty()
          ? options_.fallback_ratio
          : *std::max_element(measured.begin(), measured.end());
  const int s = SlotPricing(measured, fill)
                    .max_free_slots(options_.capacity_bytes,
                                    options_.fixed_bytes,
                                    options_.activation_bytes_per_step);
  if (s < 0) return false;  // nothing fits; keep the plan we have
  const int clamped = std::min(s, num_steps_ - 1);
  measured.resize(static_cast<std::size_t>(clamped), fill);
  planned_ = SlotPricing(std::move(measured), options_.fallback_ratio);
  if (clamped == free_slots_) return false;  // same shape, just re-priced
  rebuild(clamped);
  ++replans_;
  return true;
}

void AdaptiveReplanner::rebuild(int free_slots) {
  free_slots_ = free_slots;
  schedule_ = revolve::make_schedule(num_steps_, free_slots_);
  worst_ratios_.assign(static_cast<std::size_t>(schedule_.num_slots()), 0.0);
}

}  // namespace edgetrain::core

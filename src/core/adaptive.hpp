// edgetrain: dynamic-ratio adaptive re-planning.
//
// Data-dependent codecs (SlotCodec::Bitmap and friends) achieve a
// compression ratio that depends on the activations actually flowing
// through the chain: a 90%-sparse post-ReLU map packs to ~0.13x, a dense
// one falls back to ~1x. The planner can only assume the codec's
// worst-case planning_bytes_ratio up front, so the first plan is
// conservative. This module closes the loop:
//
//   1. every pass, the ExecutorHooks returned by hooks() read the
//      SlotStore::measured_slot_ratio of each checkpoint put once it has
//      returned, keep the worst ratio each slot held, and latch when any
//      put drifts more than options.drift_threshold (relative) from the
//      ratio the current plan priced its slot at;
//   2. at the pass boundary, finish_pass() prices each slot at the worst
//      ratio it held and -- only if the latch is set -- re-solves the slot
//      count with SlotPricing::max_free_slots over that vector and rebuilds
//      the schedule. The new plan takes effect at the NEXT pass; the pass that
//      measured the drift ran to completion under the old plan.
//
// Gradients are bit-identical across re-plans: every Revolve schedule is
// exact (checkpoint/recompute never changes the arithmetic as long as the
// codec is lossless and the chain is replay-safe), so switching schedules
// between passes cannot perturb training. tests/core/adaptive_test.cpp
// asserts this on real chains.
#pragma once

#include <cstdint>
#include <vector>

#include "core/executor.hpp"
#include "core/schedule.hpp"
#include "core/slot_pricing.hpp"
#include "core/slot_store.hpp"

namespace edgetrain::core {

struct AdaptiveReplannerOptions {
  /// Device RAM budget the plan must fit (the paper's 2 GB Waggle cap).
  double capacity_bytes = 0.0;
  /// Non-activation resident bytes (weights, gradients, optimizer state).
  double fixed_bytes = 0.0;
  /// Plaintext bytes of one boundary activation.
  double activation_bytes_per_step = 0.0;
  /// Ratio assumed for slots with no measurement yet: the codec's
  /// worst-case planning_bytes_ratio (1.0 for Bitmap, 0.5 for BitmapFp16).
  double fallback_ratio = 1.0;
  /// Relative drift |measured - planned| / planned that arms the re-plan
  /// latch. The issue's acceptance threshold is 10%.
  double drift_threshold = 0.10;
};

/// Re-solves a single-level Revolve plan between passes from measured
/// per-slot compression ratios. Not thread-safe; drive one training loop
/// with one instance.
///
/// Usage per pass:
///   auto result = executor.run(runner, replanner.schedule(), input,
///                              loss_grad, store, replanner.hooks(store));
///   if (replanner.finish_pass(store)) {
///     store = make_store(replanner.schedule().num_slots());  // caller
///   }
class AdaptiveReplanner {
 public:
  /// @p num_steps is the chain depth l. The initial plan prices every slot
  /// at options.fallback_ratio. Throws std::invalid_argument on a
  /// non-positive activation size, a fallback/threshold outside their
  /// domains, or a capacity even s = 0 cannot fit.
  AdaptiveReplanner(int num_steps, const AdaptiveReplannerOptions& options);

  /// The schedule the next pass should replay.
  [[nodiscard]] const Schedule& schedule() const noexcept { return schedule_; }

  /// Free checkpoint slots of the current plan (schedule slot ids 1..s).
  [[nodiscard]] int free_slots() const noexcept { return free_slots_; }

  /// How the current plan prices its checkpoint slots: one measured entry
  /// per free slot (entry k = slot k + 1), options.fallback_ratio past them.
  [[nodiscard]] const SlotPricing& pricing() const noexcept {
    return planned_;
  }

  /// Number of times finish_pass() rebuilt the schedule.
  [[nodiscard]] int replans() const noexcept { return replans_; }

  /// True once any checkpoint put's measured ratio drifted past the
  /// threshold during the current pass (cleared by finish_pass).
  [[nodiscard]] bool drift_latched() const noexcept { return drift_latched_; }

  /// Executor hooks that measure the Store actions of the in-flight pass.
  /// The returned object borrows @p store and this; both must outlive the
  /// run.
  [[nodiscard]] ExecutorHooks hooks(const SlotStore& store);

  /// Pass boundary: measures the pass's last put and, when the drift latch
  /// is armed, re-solves the slot count with each slot priced at the worst
  /// ratio it held this pass, and rebuilds the schedule. Returns true when the plan
  /// changed -- the caller must then size its next store for the new
  /// schedule().num_slots(). When the measured ratios no longer fit any
  /// s >= 0 (pathological), the current plan is kept and false returned.
  bool finish_pass(const SlotStore& store);

 private:
  void observe_put(const SlotStore& store);
  void rebuild(int free_slots);

  int num_steps_;
  AdaptiveReplannerOptions options_;
  int free_slots_ = 0;
  Schedule schedule_;
  SlotPricing planned_;
  std::vector<double> worst_ratios_;  ///< per slot, this pass; 0 = unfilled
  std::int32_t pending_slot_ = 0;     ///< last Store's slot, not yet read
  bool drift_latched_ = false;
  int replans_ = 0;
};

}  // namespace edgetrain::core

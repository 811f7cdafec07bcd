// edgetrain: the one rule that prices resting checkpoint slots.
//
// A checkpoint rests in its slot encoded by the slot codec
// (core/slot_codec.hpp), so it costs ratio * act bytes instead of the
// plaintext act; the live frontier activation is always plaintext. The
// Section VI peak with s free slots is then
//   peak(s) = fixed + (1 + units(s)) * act,
// where units(s) sums the ratios of checkpoint slots 1..s. A SlotPricing
// holds those ratios once, in one keying: entry k of measured() prices
// checkpoint slot k + 1 (the order the executor's store slots fill, so
// SlotStore::measured_slot_ratio feeds it directly); slots past the
// vector's end cost fill(); slot 0, the chain input, is the data batch and
// is never priced. With no measured entries the model is the homogeneous
// units(s) = s * fill bit for bit.
//
// The planner (ChainSpec), the replay machine (CostModel), the adaptive
// re-planner, the strategy recommender and the sweep all price slots
// through this type; it owns the two rules they share -- the resting units
// of s slots and the largest s whose peak fits a byte capacity.
#pragma once

#include <cstdint>
#include <vector>

namespace edgetrain::core {

class SlotPricing {
 public:
  /// Every slot in plaintext: the paper's model.
  SlotPricing() = default;

  /// Every slot at @p fill, e.g. 0.5 for the fp16/bf16 cast codecs (use
  /// planning_bytes_ratio(codec)). Throws std::invalid_argument when
  /// @p fill lies outside (0, 1].
  explicit SlotPricing(double fill);

  /// Measured ratios for checkpoint slots 1..measured.size(), @p fill past
  /// them. Throws std::invalid_argument when any ratio lies outside (0, 1].
  SlotPricing(std::vector<double> measured, double fill);

  [[nodiscard]] const std::vector<double>& measured() const noexcept {
    return measured_;
  }
  [[nodiscard]] double fill() const noexcept { return fill_; }

  /// Resting ratio of schedule slot @p slot: 0 for the chain-input slot 0,
  /// measured()[slot - 1] where measured, fill() past the vector's end.
  [[nodiscard]] double slot_ratio(std::int32_t slot) const noexcept;

  /// Resting units of checkpoint slots 1..@p free_slots: the "s * ratio"
  /// term of the peak formula, free_slots * fill() without measured
  /// entries, the prefix sum otherwise.
  [[nodiscard]] double units(int free_slots) const noexcept;

  /// Largest s with fixed + (1 + units(s)) * act <= capacity; -1 when even
  /// s = 0 (input + frontier only) does not fit. Not capped by any chain
  /// depth (callers clamp to l - 1) but saturates at INT_MAX. Throws
  /// std::invalid_argument on act_bytes <= 0.
  [[nodiscard]] int max_free_slots(double capacity_bytes, double fixed_bytes,
                                   double act_bytes) const;

 private:
  std::vector<double> measured_;
  double fill_ = 1.0;
};

}  // namespace edgetrain::core

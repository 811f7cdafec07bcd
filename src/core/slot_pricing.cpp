#include "core/slot_pricing.hpp"

#include <limits>
#include <stdexcept>
#include <utility>

namespace edgetrain::core {

namespace {

void check_ratio(double ratio) {
  if (!(ratio > 0.0 && ratio <= 1.0)) {
    throw std::invalid_argument("SlotPricing: ratios must be in (0, 1]");
  }
}

/// base + floor(extra) for extra >= 0, saturating at INT_MAX: a tiny
/// activation under a large capacity must not overflow the cast.
int add_floor(int base, double extra) {
  constexpr int kMax = std::numeric_limits<int>::max();
  return extra < static_cast<double>(kMax - base)
             ? base + static_cast<int>(extra)
             : kMax;
}

}  // namespace

SlotPricing::SlotPricing(double fill) : fill_(fill) { check_ratio(fill_); }

SlotPricing::SlotPricing(std::vector<double> measured, double fill)
    : measured_(std::move(measured)), fill_(fill) {
  check_ratio(fill_);
  for (const double ratio : measured_) check_ratio(ratio);
}

double SlotPricing::slot_ratio(std::int32_t slot) const noexcept {
  if (slot <= 0) return 0.0;
  const auto k = static_cast<std::size_t>(slot - 1);
  return k < measured_.size() ? measured_[k] : fill_;
}

double SlotPricing::units(int free_slots) const noexcept {
  if (measured_.empty()) return static_cast<double>(free_slots) * fill_;
  double units = 0.0;
  for (int k = 0; k < free_slots; ++k) {
    units += k < static_cast<int>(measured_.size())
                 ? measured_[static_cast<std::size_t>(k)]
                 : fill_;
  }
  return units;
}

int SlotPricing::max_free_slots(double capacity_bytes, double fixed_bytes,
                                double act_bytes) const {
  if (act_bytes <= 0.0) {
    throw std::invalid_argument("SlotPricing: act_bytes must be > 0");
  }
  // Room left after the fixed state and the plaintext frontier activation.
  const double room = capacity_bytes - fixed_bytes - act_bytes;
  if (room < 0.0) return -1;
  if (measured_.empty()) return add_floor(0, room / (act_bytes * fill_));
  // The weighted prefix sum is strictly increasing, so the first measured
  // slot that overflows the room bounds the answer; past the measured
  // vector the ratios are constant and the tail is closed-form.
  int s = 0;
  double units = 0.0;
  while (s < static_cast<int>(measured_.size())) {
    const double next = units + measured_[static_cast<std::size_t>(s)];
    if (next * act_bytes > room) return s;
    units = next;
    ++s;
  }
  const double tail = room / act_bytes - units;
  return tail <= 0.0 ? s : add_floor(s, tail / fill_);
}

}  // namespace edgetrain::core

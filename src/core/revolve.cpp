#include "core/revolve.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace edgetrain::core::revolve {

namespace {
constexpr std::int64_t kSaturate =
    std::numeric_limits<std::int64_t>::max() / 4;
}  // namespace

std::int64_t binomial_beta(int s, int t) {
  if (t < 0) return 0;
  if (s < 0) return 0;
  // C(s+t, s) computed with the multiplicative formula, saturating.
  std::int64_t result = 1;
  for (int i = 1; i <= s; ++i) {
    // result *= (t + i); result /= i;  -- keep exact by multiplying first.
    if (result > kSaturate / (t + i)) return kSaturate;
    result = result * (t + i) / i;
  }
  return result;
}

RevolveTable::RevolveTable(int max_steps, int max_free_slots)
    : max_steps_(max_steps), max_free_slots_(max_free_slots) {
  if (max_steps < 1) throw std::invalid_argument("RevolveTable: max_steps < 1");
  if (max_free_slots < 0) {
    throw std::invalid_argument("RevolveTable: max_free_slots < 0");
  }
  const std::size_t size = static_cast<std::size_t>(max_steps + 1) *
                           static_cast<std::size_t>(max_free_slots + 1);
  fwd_.assign(size, 0);
  rev_.assign(size, 0);
  fwd_split_.assign(size, 0);
  rev_split_.assign(size, 0);

  for (int s = 0; s <= max_free_slots; ++s) {
    fwd_[idx(1, s)] = 1;
    rev_[idx(1, s)] = 0;
  }
  for (int l = 2; l <= max_steps; ++l) {
    const std::int64_t ll = l;
    fwd_[idx(l, 0)] = ll * (ll + 1) / 2;
    rev_[idx(l, 0)] = ll * (ll - 1) / 2;
  }
  for (int s = 1; s <= max_free_slots; ++s) {
    for (int l = 2; l <= max_steps; ++l) {
      std::int64_t best_f = std::numeric_limits<std::int64_t>::max();
      std::int64_t best_r = best_f;
      int split_f = 1;
      int split_r = 1;
      for (int j = 1; j < l; ++j) {
        const std::int64_t f =
            j + fwd_[idx(l - j, s - 1)] + rev_[idx(j, s)];
        if (f < best_f) {
          best_f = f;
          split_f = j;
        }
        const std::int64_t r =
            j + rev_[idx(l - j, s - 1)] + rev_[idx(j, s)];
        if (r < best_r) {
          best_r = r;
          split_r = j;
        }
      }
      fwd_[idx(l, s)] = best_f;
      rev_[idx(l, s)] = best_r;
      fwd_split_[idx(l, s)] = split_f;
      rev_split_[idx(l, s)] = split_r;
    }
  }
}

std::int64_t RevolveTable::forward_cost(int l, int s) const {
  assert(l >= 1 && l <= max_steps_);
  s = std::clamp(s, 0, std::min(max_free_slots_, l - 1));
  return fwd_[idx(l, s)];
}

std::int64_t RevolveTable::reversal_cost(int l, int s) const {
  assert(l >= 1 && l <= max_steps_);
  s = std::clamp(s, 0, std::min(max_free_slots_, l - 1));
  return rev_[idx(l, s)];
}

int RevolveTable::best_split_sweep(int l, int s) const {
  if (l <= 1 || s <= 0) return 0;
  s = std::min(s, std::min(max_free_slots_, l - 1));
  return fwd_split_[idx(l, s)];
}

int RevolveTable::best_split_reverse(int l, int s) const {
  if (l <= 1 || s <= 0) return 0;
  s = std::min(s, std::min(max_free_slots_, l - 1));
  return rev_split_[idx(l, s)];
}

std::int64_t forward_cost(int num_steps, int free_slots) {
  const RevolveTable table(num_steps,
                           std::min(free_slots, std::max(num_steps - 1, 0)));
  return table.forward_cost(num_steps, free_slots);
}

std::int64_t reversal_cost(int num_steps, int free_slots) {
  const RevolveTable table(num_steps,
                           std::min(free_slots, std::max(num_steps - 1, 0)));
  return table.reversal_cost(num_steps, free_slots);
}

std::int64_t closed_form_forward_cost(int num_steps, int free_slots) {
  if (num_steps < 1) throw std::invalid_argument("closed_form: l < 1");
  const int s = std::min(free_slots, num_steps - 1);
  if (s == 0) {
    return static_cast<std::int64_t>(num_steps) * (num_steps + 1) / 2;
  }
  int t = 0;
  while (binomial_beta(s, t) < num_steps) ++t;
  return static_cast<std::int64_t>(t) * num_steps -
         binomial_beta(s + 1, t - 1) + 1;
}

double recompute_factor(int num_steps, int free_slots) {
  const std::int64_t f = forward_cost(num_steps, free_slots);
  return static_cast<double>(f + num_steps) /
         (2.0 * static_cast<double>(num_steps));
}

int min_free_slots_for_rho(const RevolveTable& table, int num_steps,
                           double rho_budget) {
  const int s_max = std::max(num_steps - 1, 0);
  if (rho_budget <= 1.0) return s_max;
  // Work budget in forward units: F <= (2 rho - 1) l.
  const auto budget = static_cast<std::int64_t>(
      (2.0 * rho_budget - 1.0) * static_cast<double>(num_steps) + 1e-9);
  for (int s = 0; s <= s_max; ++s) {
    if (table.forward_cost(num_steps, s) <= budget) return s;
  }
  return s_max;
}

int min_free_slots_for_rho(int num_steps, double rho_budget) {
  const RevolveTable table(num_steps, std::max(num_steps - 1, 0));
  return min_free_slots_for_rho(table, num_steps, rho_budget);
}

Schedule make_schedule(int num_steps, int free_slots) {
  if (num_steps < 1) throw std::invalid_argument("make_schedule: l < 1");
  free_slots = std::clamp(free_slots, 0, std::max(num_steps - 1, 0));
  return make_schedule(RevolveTable(num_steps, free_slots), num_steps,
                       free_slots);
}

Schedule make_schedule(const RevolveTable& table, int num_steps,
                       int free_slots) {
  if (num_steps < 1) throw std::invalid_argument("make_schedule: l < 1");
  if (num_steps > table.max_steps()) {
    throw std::invalid_argument("make_schedule: l exceeds table");
  }
  free_slots = std::clamp(
      free_slots, 0,
      std::min(table.max_free_slots(), std::max(num_steps - 1, 0)));
  return emit_split_schedule(
      num_steps, {free_slots}, free_slots,
      [&table](bool sweep, int a, int b, int s, int) {
        const int j = sweep ? table.best_split_sweep(b - a, s)
                            : table.best_split_reverse(b - a, s);
        return SplitChoice{j == 0 ? 0 : a + j, 0, s - 1};
      });
}

}  // namespace edgetrain::core::revolve

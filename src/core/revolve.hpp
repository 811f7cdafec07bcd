// edgetrain: optimal binomial checkpointing (Revolve).
//
// Implements the dynamic program behind Griewank & Walther's REVOLVE
// (Algorithm 799) in the activation-checkpoint model the paper uses for
// neural network training:
//
//   * the chain has l homogeneous steps; one checkpoint slot holds one
//     boundary activation (the paper's M_A);
//   * the chain input (state_0) is always available (it is the data batch);
//   * reversing step i costs one backward unit and requires state_i; the
//     re-materialisation of step i's internals is part of that unit;
//   * forward work is counted per step execution ("advances").
//
// Two cost functions:
//
//   forward_cost(l, s)  -- F(l, s): total forward executions for a full
//     training step (initial loss-computing sweep INCLUDED) with s free
//     slots.  F(1,s)=1, F(l,0)=l(l+1)/2,
//     F(l,s) = min_{1<=j<l} [ j + F(l-j, s-1) + R(j, s) ].
//
//   reversal_cost(l, s) -- R(l, s): forwards to reverse a segment whose
//     output gradient is already available.  R(1,s)=0, R(l,0)=l(l-1)/2,
//     R(l,s) = min_{1<=j<l} [ j + R(l-j, s-1) + R(j, s) ].
//
// The paper's recompute factor is rho(l, s) = (F(l,s) + l) / (2 l), so
// rho == 1 iff s >= l-1 (full storage, no recomputation), exactly the
// reading of Figure 1 at rho = 1.
//
// Relation to the classical theory (property-tested in
// tests/core/revolve_test.cpp): Griewank & Walther's *youturn* model, in
// which every Backward re-runs its own step's forward, has the closed-form
// optimum  t*l - beta(s+1, t-1) + 1  with beta(s,t) = C(s+t, s) and t
// minimal such that beta(s,t) >= l. The activation-checkpoint model lets a
// Backward run directly off a stored boundary state, so F(l,s) is bounded
// above by that closed form (equality at full storage) and is itself the
// true optimum of the boundary-state machine (verified against exhaustive
// uniform-cost search for small chains).
#pragma once

#include <cstdint>
#include <vector>

#include "core/schedule.hpp"

namespace edgetrain::core::revolve {

/// beta(s, t) = C(s+t, s), saturating at int64 max / 4. beta(s, -1) = 0.
[[nodiscard]] std::int64_t binomial_beta(int s, int t);

/// Memoised DP tables for one maximum chain length / slot count.
/// Building the table costs O(max_steps^2 * max_free_slots); all queries are
/// O(1) afterwards. Costs are exact (no saturation) for the sizes the
/// library targets (l <= ~2000).
class RevolveTable {
 public:
  RevolveTable(int max_steps, int max_free_slots);

  [[nodiscard]] int max_steps() const noexcept { return max_steps_; }
  [[nodiscard]] int max_free_slots() const noexcept { return max_free_slots_; }

  /// F(l, s). s is clamped to [0, max_free_slots]; costs are monotone
  /// non-increasing in s and constant for s >= l-1.
  [[nodiscard]] std::int64_t forward_cost(int l, int s) const;

  /// R(l, s), the reversal-only cost.
  [[nodiscard]] std::int64_t reversal_cost(int l, int s) const;

  /// The minimising split j of F(l, s); 0 when l == 1.
  [[nodiscard]] int best_split_sweep(int l, int s) const;

  /// The minimising split j of R(l, s); 0 when l == 1.
  [[nodiscard]] int best_split_reverse(int l, int s) const;

 private:
  [[nodiscard]] std::size_t idx(int l, int s) const {
    return static_cast<std::size_t>(l) *
               static_cast<std::size_t>(max_free_slots_ + 1) +
           static_cast<std::size_t>(s);
  }

  int max_steps_;
  int max_free_slots_;
  std::vector<std::int64_t> fwd_;   // F table, index (l, s)
  std::vector<std::int64_t> rev_;   // R table
  std::vector<std::int32_t> fwd_split_;
  std::vector<std::int32_t> rev_split_;
};

/// Convenience one-shot queries (build a table internally).
[[nodiscard]] std::int64_t forward_cost(int num_steps, int free_slots);
[[nodiscard]] std::int64_t reversal_cost(int num_steps, int free_slots);

/// Closed-form optimum of the Griewank-Walther youturn model; an upper
/// bound on forward_cost() (equal at full storage).
[[nodiscard]] std::int64_t closed_form_forward_cost(int num_steps,
                                                    int free_slots);

/// The paper's recompute factor rho(l, s) = (F(l,s) + l) / (2l).
[[nodiscard]] double recompute_factor(int num_steps, int free_slots);

/// Smallest s such that rho(l, s) <= rho_budget; returns l-1 (full storage)
/// when rho_budget <= 1. Uses a prebuilt table when supplied.
[[nodiscard]] int min_free_slots_for_rho(int num_steps, double rho_budget);
[[nodiscard]] int min_free_slots_for_rho(const RevolveTable& table,
                                         int num_steps, double rho_budget);

/// Generates the executor-dialect schedule realising F(l, s): slot 0 holds
/// the chain input, slots 1..s are the free checkpoints, every Backward is
/// preceded by its re-materialising ForwardSave. The result validates and
/// replays to peak_memory_units == s + 1 for s < l - 1. With s >= l - 1 it
/// replays to l - 1: the last state is reversed where the sweep leaves it,
/// never stored.
[[nodiscard]] Schedule make_schedule(int num_steps, int free_slots);

/// Same, emitting from a prebuilt table (num_steps <= table.max_steps(),
/// free_slots <= table.max_free_slots()). Sweeps that emit many schedules
/// per chain length amortise the O(l^2 s) table build this way.
[[nodiscard]] Schedule make_schedule(const RevolveTable& table, int num_steps,
                                     int free_slots);

}  // namespace edgetrain::core::revolve

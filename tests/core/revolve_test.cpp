#include "core/revolve.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

namespace edgetrain::core::revolve {
namespace {

TEST(BinomialBeta, MatchesPascal) {
  // beta(s,t) = C(s+t, s): check the Pascal recurrence and known values.
  EXPECT_EQ(binomial_beta(0, 5), 1);
  EXPECT_EQ(binomial_beta(5, 0), 1);
  EXPECT_EQ(binomial_beta(1, 4), 5);
  EXPECT_EQ(binomial_beta(2, 2), 6);
  EXPECT_EQ(binomial_beta(3, 3), 20);
  EXPECT_EQ(binomial_beta(10, 10), 184756);
  for (int s = 1; s <= 8; ++s) {
    for (int t = 1; t <= 8; ++t) {
      EXPECT_EQ(binomial_beta(s, t),
                binomial_beta(s - 1, t) + binomial_beta(s, t - 1));
    }
  }
}

TEST(BinomialBeta, NegativeTIsZero) {
  EXPECT_EQ(binomial_beta(3, -1), 0);
}

TEST(ForwardCost, BaseCases) {
  // F(1, s) = 1 for any s.
  EXPECT_EQ(forward_cost(1, 0), 1);
  EXPECT_EQ(forward_cost(1, 5), 1);
  // F(l, 0) = l(l+1)/2 (re-advance from the input for every step).
  EXPECT_EQ(forward_cost(2, 0), 3);
  EXPECT_EQ(forward_cost(5, 0), 15);
  EXPECT_EQ(forward_cost(10, 0), 55);
  // Full storage: F(l, l-1) = l.
  for (const int l : {1, 2, 3, 7, 20}) {
    EXPECT_EQ(forward_cost(l, l - 1), l) << "l=" << l;
  }
}

TEST(ReversalCost, BaseCases) {
  EXPECT_EQ(reversal_cost(1, 0), 0);
  EXPECT_EQ(reversal_cost(2, 0), 1);
  EXPECT_EQ(reversal_cost(5, 0), 10);  // l(l-1)/2
  // Reversal starts with only the segment input stored, so even with
  // unlimited slots one full re-advance (l-1 steps, storing everything on
  // the way) is unavoidable.
  for (const int l : {2, 3, 7, 20}) {
    EXPECT_EQ(reversal_cost(l, l - 1), l - 1) << "l=" << l;
  }
}

// Theory check against Griewank-Walther: the classical binomial count
// t*l - beta(s+1, t-1) + 1 is the optimum of the *youturn* model (each
// backward re-runs its step's forward). Our activation-checkpoint model
// lets a Backward run directly off a stored boundary state, so the DP is
// bounded above by the closed form and meets it at full storage.
class ClosedFormTest : public ::testing::TestWithParam<int> {};

TEST_P(ClosedFormTest, DpBoundedByYouturnClosedForm) {
  const int s = GetParam();
  const int max_l = 240;
  const RevolveTable table(max_l, s);
  for (int l = 1; l <= max_l; ++l) {
    EXPECT_LE(table.forward_cost(l, s), closed_form_forward_cost(l, s))
        << "l=" << l << " s=" << s;
    // Both models agree on the sweep floor and full storage.
    EXPECT_GE(table.forward_cost(l, s), l);
    if (s >= l - 1) {
      EXPECT_EQ(table.forward_cost(l, s), closed_form_forward_cost(l, s));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SlotCounts, ClosedFormTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 10, 16, 25));

// ---------------------------------------------------------------------------
// Ground-truth optimality: exhaustive Dijkstra over the true machine model
// (stored-state set, current state, adjoint frontier) for small chains.
// ---------------------------------------------------------------------------

/// Minimal advances to fully reverse an l-chain with at most `cap` stored
/// states (input included), computed by uniform-cost search over the exact
/// state space. Backward(i) requires current == i and is free; Store /
/// Restore / Free are free; Forward costs 1.
std::int64_t brute_force_min_advances(int l, int cap) {
  struct State {
    std::uint32_t stored;  // bitmask over states 0..l
    std::int8_t current;   // -1 = none
    std::int8_t frontier;  // next backward is frontier-1
    bool swept;            // the loss at state_l has been computed
    bool operator==(const State&) const = default;
  };
  struct Hash {
    std::size_t operator()(const State& s) const {
      return std::hash<std::uint64_t>()(
          (static_cast<std::uint64_t>(s.stored) << 18) ^
          (static_cast<std::uint64_t>(static_cast<std::uint8_t>(s.current))
           << 10) ^
          (static_cast<std::uint64_t>(static_cast<std::uint8_t>(s.frontier))
           << 2) ^
          static_cast<std::uint64_t>(s.swept));
    }
  };
  std::unordered_map<State, std::int64_t, Hash> best;
  using Entry = std::pair<std::int64_t, State>;
  auto cmp = [](const Entry& a, const Entry& b) { return a.first > b.first; };
  std::priority_queue<Entry, std::vector<Entry>, decltype(cmp)> queue(cmp);

  const State start{1U, 0, static_cast<std::int8_t>(l), false};
  best[start] = 0;
  queue.push({0, start});
  std::int64_t answer = -1;
  while (!queue.empty()) {
    const auto [cost, state] = queue.top();
    queue.pop();
    auto it = best.find(state);
    if (it != best.end() && it->second < cost) continue;
    if (state.frontier == 0) {
      answer = cost;
      break;
    }
    auto relax = [&](const State& next, std::int64_t c) {
      auto found = best.find(next);
      if (found == best.end() || found->second > c) {
        best[next] = c;
        queue.push({c, next});
      }
    };
    // Advance (only useful below the frontier).
    if (state.current >= 0 && state.current < state.frontier) {
      State next = state;
      next.current = static_cast<std::int8_t>(state.current + 1);
      if (next.current == l) next.swept = true;
      relax(next, cost + 1);
    }
    // Store current state (if capacity remains and it is not stored).
    if (state.current >= 0 &&
        (state.stored & (1U << state.current)) == 0U &&
        std::popcount(state.stored) < cap) {
      State next = state;
      next.stored |= 1U << state.current;
      relax(next, cost);
    }
    // Restore any stored state.
    for (int i = 0; i <= l; ++i) {
      if ((state.stored & (1U << i)) != 0U && state.current != i) {
        State next = state;
        next.current = static_cast<std::int8_t>(i);
        relax(next, cost);
      }
    }
    // Free any stored state except the input.
    for (int i = 1; i <= l; ++i) {
      if ((state.stored & (1U << i)) != 0U) {
        State next = state;
        next.stored &= ~(1U << i);
        relax(next, cost);
      }
    }
    // Backward (free): needs current == frontier-1 and, for the first
    // backward, the loss to have been computed (the sweep reached state_l).
    if (state.current == state.frontier - 1 && state.swept) {
      State next = state;
      next.frontier = static_cast<std::int8_t>(state.frontier - 1);
      // The consumed state is no longer useful; drop it if stored.
      next.stored &= ~(1U << state.current);
      next.current = -1;
      relax(next, cost);
    }
  }
  return answer;
}

struct BruteCase {
  int l;
  int s;  // free slots (input excluded), cap = s + 1
};

class BruteForceTest : public ::testing::TestWithParam<BruteCase> {};

TEST_P(BruteForceTest, DpIsOptimal) {
  const auto [l, s] = GetParam();
  // brute force counts advances for sweep + reversal; our F counts total
  // forward executions: they are the same quantity (the sweep is advances).
  const std::int64_t brute = brute_force_min_advances(l, s + 1);
  EXPECT_EQ(forward_cost(l, s), brute) << "l=" << l << " s=" << s;
}

INSTANTIATE_TEST_SUITE_P(
    SmallChains, BruteForceTest,
    ::testing::Values(BruteCase{1, 0}, BruteCase{2, 0}, BruteCase{2, 1},
                      BruteCase{3, 0}, BruteCase{3, 1}, BruteCase{3, 2},
                      BruteCase{4, 1}, BruteCase{4, 2}, BruteCase{5, 1},
                      BruteCase{5, 2}, BruteCase{6, 1}, BruteCase{6, 2},
                      BruteCase{7, 2}, BruteCase{7, 3}, BruteCase{8, 2},
                      BruteCase{9, 3}, BruteCase{10, 2}, BruteCase{11, 3}));

TEST(ForwardCost, MonotoneNonIncreasingInSlots) {
  const int l = 64;
  const RevolveTable table(l, l - 1);
  for (int s = 1; s <= l - 1; ++s) {
    EXPECT_LE(table.forward_cost(l, s), table.forward_cost(l, s - 1));
  }
}

TEST(ForwardCost, MonotoneNondecreasingInLength) {
  const RevolveTable table(100, 6);
  for (int l = 2; l <= 100; ++l) {
    EXPECT_GE(table.forward_cost(l, 6), table.forward_cost(l - 1, 6));
  }
}

TEST(ForwardCost, ClampsSlotsAboveLMinusOne) {
  EXPECT_EQ(forward_cost(5, 100), 5);
}

TEST(RecomputeFactor, OneAtFullStorageAndDecreasing) {
  const int l = 50;
  EXPECT_DOUBLE_EQ(recompute_factor(l, l - 1), 1.0);
  double prev = recompute_factor(l, 0);
  EXPECT_GT(prev, 1.0);
  for (int s = 1; s < l; ++s) {
    const double rho = recompute_factor(l, s);
    EXPECT_LE(rho, prev + 1e-12);
    prev = rho;
  }
}

TEST(MinFreeSlots, AchievesBudgetTightly) {
  const int l = 152;  // ResNet-152's LinearResNet depth
  for (const double rho : {1.05, 1.2, 1.5, 2.0, 3.0}) {
    const int s = min_free_slots_for_rho(l, rho);
    EXPECT_LE(recompute_factor(l, s), rho + 1e-12);
    if (s > 0) {
      EXPECT_GT(recompute_factor(l, s - 1), rho) << "not minimal at rho=" << rho;
    }
  }
}

TEST(MinFreeSlots, RhoOneRequiresFullStorage) {
  EXPECT_EQ(min_free_slots_for_rho(20, 1.0), 19);
  EXPECT_EQ(min_free_slots_for_rho(20, 0.5), 19);
}

// The classic sub-linear memory result: with s ~ log2(l) slots the work
// stays within a small constant of the ideal.
TEST(ForwardCost, LogarithmicSlotsGiveSmallRho) {
  const int l = 512;
  const RevolveTable table(l, 12);
  const double rho =
      static_cast<double>(table.forward_cost(l, 10) + l) / (2.0 * l);
  EXPECT_LT(rho, 3.0);
}

// ---------------------------------------------------------------------------
// Schedule generation
// ---------------------------------------------------------------------------

struct ScheduleCase {
  int l;
  int s;
};

class RevolveScheduleTest
    : public ::testing::TestWithParam<ScheduleCase> {};

TEST_P(RevolveScheduleTest, ValidatesAndMeetsBounds) {
  const auto [l, s] = GetParam();
  const Schedule schedule = make_schedule(l, s);
  EXPECT_EQ(schedule.validate(), std::nullopt) << "l=" << l << " s=" << s;

  const ScheduleStats stats = schedule.stats();
  EXPECT_EQ(stats.backwards, l);
  EXPECT_EQ(stats.forward_saves, l);  // one re-materialisation per backward
  // Analytic model: peak memory = (s+1) checkpoints (input discounted, live
  // frontier counted); the emitted schedule must replay to exactly that,
  // except at s = l - 1, where the last state is reversed in place and the
  // peak is one unit lower.
  const int s_eff = std::min(s, l - 1);
  const int exact = s_eff == l - 1 && s_eff >= 1 ? s_eff : s_eff + 1;
  EXPECT_EQ(stats.peak_memory_units, exact);
  // The executor's advances never exceed the analytic forward count (the
  // analytic count pays for re-materialisations the executor folds into
  // its ForwardSaves).
  EXPECT_LE(stats.advances, forward_cost(l, s));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RevolveScheduleTest,
    ::testing::Values(ScheduleCase{1, 0}, ScheduleCase{2, 0},
                      ScheduleCase{2, 1}, ScheduleCase{3, 1},
                      ScheduleCase{5, 0}, ScheduleCase{5, 2},
                      ScheduleCase{8, 3}, ScheduleCase{16, 1},
                      ScheduleCase{16, 4}, ScheduleCase{16, 15},
                      ScheduleCase{33, 5}, ScheduleCase{64, 7},
                      ScheduleCase{101, 3}, ScheduleCase{152, 10}));

TEST(RevolveSchedule, AdvancesDecreaseWithMoreSlots) {
  const int l = 40;
  std::int64_t prev = make_schedule(l, 0).stats().advances;
  for (int s = 1; s < l; ++s) {
    const std::int64_t advances = make_schedule(l, s).stats().advances;
    EXPECT_LE(advances, prev);
    prev = advances;
  }
  // Revolve-style execution always pays the sweep as plain advances and one
  // ForwardSave per backward; at full slots only the sweep remains.
  EXPECT_EQ(prev, l - 1);
}

TEST(RevolveSchedule, RejectsBadArguments) {
  EXPECT_THROW((void)make_schedule(0, 1), std::invalid_argument);
}

TEST(RevolveTable, RejectsBadArguments) {
  EXPECT_THROW(RevolveTable(0, 1), std::invalid_argument);
  EXPECT_THROW(RevolveTable(5, -1), std::invalid_argument);
}

}  // namespace
}  // namespace edgetrain::core::revolve

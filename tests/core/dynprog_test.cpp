#include "core/dynprog.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/revolve.hpp"

namespace edgetrain::core::hetero {
namespace {

std::vector<double> uniform_costs(int l) {
  return std::vector<double>(static_cast<std::size_t>(l), 1.0);
}

// With unit costs the heterogeneous DP must reduce exactly to Revolve.
class UniformEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(UniformEquivalenceTest, MatchesHomogeneousRevolve) {
  const int l = GetParam();
  const HeteroSolver solver(uniform_costs(l), l - 1);
  const revolve::RevolveTable table(l, std::max(l - 1, 0));
  for (int s = 0; s <= l - 1; ++s) {
    EXPECT_DOUBLE_EQ(solver.forward_cost(s),
                     static_cast<double>(table.forward_cost(l, s)))
        << "l=" << l << " s=" << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, UniformEquivalenceTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 52));

TEST(HeteroSolver, SweepCostIsTotal) {
  const HeteroSolver solver({1.0, 2.0, 3.0}, 2);
  EXPECT_DOUBLE_EQ(solver.sweep_cost(), 6.0);
  // Full storage: F equals one sweep.
  EXPECT_DOUBLE_EQ(solver.forward_cost(2), 6.0);
}

TEST(HeteroSolver, RhoOneAtFullStorage) {
  const HeteroSolver solver({2.0, 1.0, 4.0, 1.0}, 3);
  EXPECT_DOUBLE_EQ(solver.recompute_factor(3), 1.0);
  EXPECT_GT(solver.recompute_factor(0), 1.0);
}

TEST(HeteroSolver, MonotoneInSlots) {
  const std::vector<double> costs{5.0, 1.0, 1.0, 7.0, 2.0, 2.0, 1.0};
  const HeteroSolver solver(costs, 6);
  double prev = solver.forward_cost(0);
  for (int s = 1; s <= 6; ++s) {
    EXPECT_LE(solver.forward_cost(s), prev);
    prev = solver.forward_cost(s);
  }
}

TEST(HeteroSolver, PrefersCheckpointsBeforeExpensiveSteps) {
  // One step is vastly more expensive; with a single slot the optimal
  // schedule must avoid re-running it more than the minimum.
  // Chain: [1, 1, 100, 1, 1]. With s=1 the checkpoint should be placed so
  // the expensive step is advanced through as rarely as possible.
  const HeteroSolver expensive({1.0, 1.0, 100.0, 1.0, 1.0}, 4);
  const HeteroSolver cheap(uniform_costs(5), 4);
  // Normalised overhead (F - sweep) should be far below re-running the
  // expensive step l times.
  const double overhead = expensive.forward_cost(1) - expensive.sweep_cost();
  EXPECT_LT(overhead, 110.0);  // at most one extra pass over the big step
}

TEST(HeteroSolver, MinSlotsForRho) {
  const HeteroSolver solver(uniform_costs(30), 29);
  for (const double rho : {1.1, 1.3, 1.7, 2.5}) {
    const int s = solver.min_free_slots_for_rho(rho);
    EXPECT_LE(solver.recompute_factor(s), rho + 1e-9);
    if (s > 0) {
      EXPECT_GT(solver.recompute_factor(s - 1), rho);
    }
  }
}

TEST(HeteroSolver, BwdRatioShiftsRho) {
  const HeteroSolver solver(uniform_costs(16), 15);
  // More expensive backwards dilute the recompute overhead.
  EXPECT_LT(solver.recompute_factor(2, 2.0), solver.recompute_factor(2, 1.0));
}

TEST(HeteroSolver, RejectsBadArguments) {
  EXPECT_THROW(HeteroSolver({}, 1), std::invalid_argument);
  EXPECT_THROW(HeteroSolver({1.0, -2.0}, 1), std::invalid_argument);
}

// Golden DP tables on hand-computed non-uniform cost vectors. Worked by
// hand from the recurrences:
//   R(a,a+1,s) = 0, F(a,a+1,s) = f_a
//   R(a,b,0)   = sum_{k=a+1}^{b-1} span(a,k)
//   F(a,b,0)   = span(a,b) + R(a,b,0)
//   F(a,b,s)   = min_j span(a,j) + F(j,b,s-1) + R(a,j,s)
//
// Costs {4,2,1}, one slot. Candidate splits for F(0,3,1):
//   j=1: span(0,1) + F(1,3,0) + R(0,1,1) = 4 + (3+2) + 0 = 9
//   j=2: span(0,2) + F(2,3,0) + R(0,2,1) = 6 + 1 + 0     = 13
// so the optimum checkpoints right after the expensive step.
TEST(HeteroSolver, GoldenTableExpensiveFirst) {
  const HeteroSolver solver({4.0, 2.0, 1.0}, 1);
  EXPECT_DOUBLE_EQ(solver.sweep_cost(), 7.0);
  // s=0 base: F = span(0,3) + span(0,1) + span(0,2) = 7 + 4 + 6.
  EXPECT_DOUBLE_EQ(solver.forward_cost(0), 17.0);
  EXPECT_DOUBLE_EQ(solver.forward_cost(1), 9.0);
  // rho = (F + bwd) / (sweep + bwd) with bwd_ratio=1: (9+7)/(7+7).
  EXPECT_DOUBLE_EQ(solver.recompute_factor(1), 16.0 / 14.0);
  EXPECT_DOUBLE_EQ(solver.recompute_factor(1, 1.0), 16.0 / 14.0);
  // Interpreter-convention advance costs (save-free bases):
  //   E(0,3,0) = R(0,3,0) = 10; E(0,3,1): j=1 -> 4 + R(1,3,0) = 6.
  EXPECT_DOUBLE_EQ(solver.advance_cost(0), 10.0);
  EXPECT_DOUBLE_EQ(solver.advance_cost(1), 6.0);
}

// Mirrored costs {1,2,4}: the optimal checkpoint flips to the other side
// of the chain (j=2, just before the expensive tail step):
//   j=1: 1 + (2+4+2) + 0 = 9
//   j=2: 3 + 4 + 0       = 8
TEST(HeteroSolver, GoldenTableExpensiveLast) {
  const HeteroSolver solver({1.0, 2.0, 4.0}, 1);
  EXPECT_DOUBLE_EQ(solver.forward_cost(0), 11.0);  // 7 + 1 + 3
  EXPECT_DOUBLE_EQ(solver.forward_cost(1), 8.0);
  // Unit-cost Revolve on l=3, s=1 would charge 1 extra advance; here the
  // measured table pays less than one mean step extra over the sweep.
  EXPECT_DOUBLE_EQ(solver.forward_cost(1) - solver.sweep_cost(), 1.0);
}

struct HeteroCase {
  int l;
  int s;
};

class HeteroScheduleTest : public ::testing::TestWithParam<HeteroCase> {};

TEST_P(HeteroScheduleTest, SchedulesValidateAndFitSlots) {
  const auto [l, s] = GetParam();
  std::vector<double> costs;
  costs.reserve(static_cast<std::size_t>(l));
  for (int i = 0; i < l; ++i) {
    costs.push_back(1.0 + static_cast<double>((i * 7) % 5));
  }
  const HeteroSolver solver(costs, s);
  const Schedule schedule = solver.make_schedule(s);
  EXPECT_EQ(schedule.validate(), std::nullopt) << "l=" << l << " s=" << s;
  const ScheduleStats stats = schedule.stats();
  EXPECT_EQ(stats.backwards, l);
  EXPECT_LE(stats.peak_memory_units, std::min(s, l - 1) + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, HeteroScheduleTest,
    ::testing::Values(HeteroCase{1, 0}, HeteroCase{3, 1}, HeteroCase{6, 0},
                      HeteroCase{6, 2}, HeteroCase{10, 3}, HeteroCase{18, 4},
                      HeteroCase{52, 6}));

}  // namespace
}  // namespace edgetrain::core::hetero

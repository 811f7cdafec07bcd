#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/dynprog.hpp"
#include "core/revolve.hpp"

namespace edgetrain::core::hetero {
namespace {

std::vector<double> ones(int l) {
  return std::vector<double>(static_cast<std::size_t>(l), 1.0);
}

std::vector<int> unit_sizes(int l) {
  return std::vector<int>(static_cast<std::size_t>(std::max(l - 1, 0)), 1);
}

// With all states costing one unit, the byte-budget DP must equal the
// slot-based solvers exactly.
class UnitReductionTest : public ::testing::TestWithParam<int> {};

TEST_P(UnitReductionTest, ReducesToSlotSolvers) {
  const int l = GetParam();
  for (int budget = 0; budget <= std::min(l - 1, 6); ++budget) {
    const HeteroSolver byte_solver(ones(l), unit_sizes(l), budget);
    EXPECT_DOUBLE_EQ(byte_solver.forward_cost(budget),
                     static_cast<double>(revolve::forward_cost(l, budget)))
        << "l=" << l << " budget=" << budget;
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, UnitReductionTest,
                         ::testing::Values(1, 2, 4, 7, 12, 20, 33));

TEST(ByteBudgetSolver, PrefersCheapBoundaries) {
  // Chain of 8 uniform-cost steps; state 4 costs 1 unit, all others 4.
  // With budget 1 the only storable state is 4 -- the solver must use it
  // and beat the store-nothing fallback.
  std::vector<int> units(7, 4);
  units[3] = 1;  // state 4
  const HeteroSolver solver(ones(8), units, 1);
  EXPECT_LT(solver.forward_cost(1), solver.forward_cost(0));
  // Storing state 4 splits 8 into 4+4:
  // F = 4 (advance) + F(4,0) + R(4,0) = 4 + (4+6) + 6 = 20.
  EXPECT_DOUBLE_EQ(solver.forward_cost(1), 20.0);
}

TEST(ByteBudgetSolver, MonotoneInBudget) {
  std::vector<int> units{3, 1, 2, 1, 3, 1, 2, 1, 3, 1, 2};
  const std::vector<double> costs = ones(12);
  const HeteroSolver solver(costs, units, 10);
  double prev = 1e300;
  for (int budget = 0; budget <= 10; ++budget) {
    EXPECT_LE(solver.forward_cost(budget), prev) << "budget=" << budget;
    prev = solver.forward_cost(budget);
  }
}

TEST(ByteBudgetSolver, BeatsUniformSlotsAtEqualBytes) {
  // ResNet-like size profile: boundary states shrink by stages
  // (8,8,8,4,4,4,2,2,2,1,1). Budget of 8 units: uniform-slot planning must
  // assume the worst-case state size (8 units -> 1 slot), while the
  // byte-aware DP can afford several small checkpoints.
  const int l = 12;
  std::vector<int> units{8, 8, 8, 4, 4, 4, 2, 2, 2, 1, 1};
  const HeteroSolver byte_solver(ones(l), units, 8);
  // Worst-case-sized uniform slots: 8 units buy exactly 1 slot.
  const HeteroSolver slot_solver(ones(l), 1);
  EXPECT_LT(byte_solver.forward_cost(8), slot_solver.forward_cost(1));
}

TEST(ByteBudgetSolver, ZeroBudgetIsQuadraticFallback) {
  const int l = 9;
  const HeteroSolver solver(ones(l), unit_sizes(l), 0);
  EXPECT_DOUBLE_EQ(solver.forward_cost(0),
                   static_cast<double>(l) * (l + 1) / 2.0);
}

// Golden table, worked by hand. Costs {4,2,1}, state units {1,2} (the
// cheap-to-store boundary is the one after the expensive step):
//   budget 0: store-nothing fallback = 7 + 4 + 6         = 17
//   budget 1: only state 1 fits; split j=1: 4 + 5 + 0    = 9
//   budget 2: j=2 also feasible (3 + 1 + 0 = 13 via units 2) but j=1
//             is still optimal                            = 9
//   budget 3: both states storable: 4 + (2 + 1 + 2) + 0  -> j=1 then
//             j=2 inside, total 7 (pure sweep, rho = 1)
TEST(ByteBudgetSolver, GoldenTableHandComputed) {
  const std::vector<double> costs{4.0, 2.0, 1.0};
  const std::vector<int> units{1, 2};
  const HeteroSolver solver(costs, units, 3);
  EXPECT_DOUBLE_EQ(solver.forward_cost(0), 17.0);
  EXPECT_DOUBLE_EQ(solver.forward_cost(1), 9.0);
  EXPECT_DOUBLE_EQ(solver.forward_cost(2), 9.0);
  EXPECT_DOUBLE_EQ(solver.forward_cost(3), 7.0);
  EXPECT_DOUBLE_EQ(solver.recompute_factor(3), 1.0);
}

TEST(ByteBudgetSolver, RejectsBadArguments) {
  EXPECT_THROW(HeteroSolver({}, {}, 1), std::invalid_argument);
  EXPECT_THROW(HeteroSolver(ones(3), {1}, 1), std::invalid_argument);
  EXPECT_THROW(HeteroSolver(ones(3), {1, 0}, 1), std::invalid_argument);
  EXPECT_THROW(HeteroSolver(ones(3), {1, 1}, -1), std::invalid_argument);
}

struct ByteCase {
  int l;
  int budget;
};

class ByteScheduleTest : public ::testing::TestWithParam<ByteCase> {};

TEST_P(ByteScheduleTest, SchedulesValidate) {
  const auto [l, budget] = GetParam();
  std::vector<int> units;
  for (int i = 1; i < l; ++i) units.push_back(1 + (i % 3));
  const HeteroSolver solver(ones(l), units, budget);
  const Schedule schedule = solver.make_schedule(budget);
  EXPECT_EQ(schedule.validate(), std::nullopt)
      << "l=" << l << " budget=" << budget;
  EXPECT_EQ(schedule.stats().backwards, l);
  EXPECT_LE(schedule.num_slots(), std::min(budget, l - 1) + 1);

  // Replay Store/Free: the live stored states (the input excepted) must fit
  // the unit budget after every action.
  std::vector<int> held(static_cast<std::size_t>(schedule.num_slots()), 0);
  int live_units = 0;
  for (std::size_t pos = 0; pos < schedule.size(); ++pos) {
    const Action& a = schedule.actions()[pos];
    int& state = held[static_cast<std::size_t>(a.slot < 0 ? 0 : a.slot)];
    if (a.type == ActionType::Store && a.index > 0) {
      state = a.index;
      live_units += units[static_cast<std::size_t>(a.index) - 1];
    } else if (a.type == ActionType::Free && state > 0) {
      live_units -= units[static_cast<std::size_t>(state) - 1];
      state = 0;
    }
    ASSERT_LE(live_units, budget)
        << "l=" << l << " budget=" << budget << " action " << pos;
  }
  EXPECT_EQ(live_units, 0);
}

INSTANTIATE_TEST_SUITE_P(Grid, ByteScheduleTest,
                         ::testing::Values(ByteCase{1, 0}, ByteCase{4, 2},
                                           ByteCase{8, 3}, ByteCase{12, 6},
                                           ByteCase{20, 10}, ByteCase{30, 5}));

TEST(ByteBudgetSolver, ScheduleAdvancesMatchAnalyticCost) {
  // For unit costs the advances executed by the emitted schedule stay at
  // or below the analytic count (the emitter folds the last backward into
  // the sweep).
  const int l = 16;
  std::vector<int> units;
  for (int i = 1; i < l; ++i) units.push_back(1 + (i % 2));
  const HeteroSolver solver(ones(l), units, 6);
  const ScheduleStats stats = solver.make_schedule(6).stats();
  EXPECT_LE(static_cast<double>(stats.advances), solver.forward_cost(6));
}

}  // namespace
}  // namespace edgetrain::core::hetero

#include "core/batch_tradeoff.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "core/planner.hpp"

namespace edgetrain::core {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;

BatchTradeoffConfig demo_config() {
  BatchTradeoffConfig config;
  config.depth = 50;
  config.capacity_bytes = 2048.0 * kMiB;
  config.fixed_bytes = 400.0 * kMiB;
  config.act_bytes_per_sample = 6.0 * kMiB;  // per chain step, batch 1
  config.efficiency_exponent = 1.0;
  config.efficiency_half_batch = 4.0;
  return config;
}

TEST(BatchTradeoff, SmallBatchFitsWithoutRecompute) {
  const BatchTradeoffPlanner planner(demo_config());
  // batch 1: 50 slots of 6 MB = 300 MB fits in 1648 MB of room.
  const BatchPoint point = planner.evaluate(1);
  EXPECT_TRUE(point.feasible);
  EXPECT_EQ(point.total_slots, 50);
  EXPECT_DOUBLE_EQ(point.rho, 1.0);
}

TEST(BatchTradeoff, RhoGrowsWithBatch) {
  const BatchTradeoffPlanner planner(demo_config());
  double prev = 0.0;
  for (const std::int64_t k : {1, 2, 4, 8, 16, 32}) {
    const BatchPoint point = planner.evaluate(k);
    ASSERT_TRUE(point.feasible) << "batch " << k;
    EXPECT_GE(point.rho, prev);
    EXPECT_LE(point.peak_bytes, demo_config().capacity_bytes);
    prev = point.rho;
  }
}

TEST(BatchTradeoff, InfeasibleWhenOneSlotExceedsRoom) {
  const BatchTradeoffPlanner planner(demo_config());
  // room = 1648 MB; one slot costs k*6 MB -> k > 274 is infeasible.
  EXPECT_TRUE(planner.evaluate(274).feasible);
  EXPECT_FALSE(planner.evaluate(275).feasible);
  EXPECT_TRUE(std::isinf(planner.evaluate(1000).time_per_sample));
}

TEST(BatchTradeoff, EfficiencySaturates) {
  const BatchTradeoffPlanner planner(demo_config());
  const BatchPoint small = planner.evaluate(1);
  const BatchPoint large = planner.evaluate(64);
  EXPECT_LT(small.efficiency, 0.3);
  EXPECT_GT(large.efficiency, 0.9);
}

// The paper's closing claim: despite rho growing with batch size, the
// optimal batch under a 2 GB cap is well above 1 once vectorisation
// efficiency is accounted for.
TEST(BatchTradeoff, OptimalBatchAboveOneWithEfficiency) {
  const BatchTradeoffPlanner planner(demo_config());
  const BatchPoint best = planner.best(128);
  EXPECT_TRUE(best.feasible);
  EXPECT_GT(best.batch, 1);
  EXPECT_LT(best.time_per_sample, planner.evaluate(1).time_per_sample);
}

TEST(BatchTradeoff, NoEfficiencyMeansBatchOne) {
  BatchTradeoffConfig config = demo_config();
  config.efficiency_exponent = 0.0;  // flat efficiency: recompute only
  const BatchTradeoffPlanner planner(config);
  const BatchPoint best = planner.best(64);
  EXPECT_EQ(best.batch, 1);  // rho is monotone in batch, so batch 1 wins
}

TEST(BatchTradeoff, SweepMatchesEvaluate) {
  const BatchTradeoffPlanner planner(demo_config());
  const auto points = planner.sweep({1, 3, 9});
  ASSERT_EQ(points.size(), 3U);
  EXPECT_EQ(points[1].batch, 3);
  EXPECT_DOUBLE_EQ(points[2].rho, planner.evaluate(9).rho);
}

TEST(BatchTradeoff, FitsNoSlotWhenRoomEqualsOneActivation) {
  // room == k * act leaves exactly the input + frontier plan (s = 0),
  // which MemoryPlanner and PlanPoint::fits count as a fit.
  BatchTradeoffConfig config = demo_config();
  config.capacity_bytes = config.fixed_bytes + 3.0 * 12.0 * kMiB;
  config.act_bytes_per_sample = 12.0 * kMiB;
  const BatchTradeoffPlanner planner(config);
  const BatchPoint point = planner.evaluate(3);
  EXPECT_TRUE(point.feasible);
  EXPECT_EQ(point.total_slots, 1);
  EXPECT_DOUBLE_EQ(point.peak_bytes, config.capacity_bytes);
}

// The batch sweep prices slots by MemoryPlanner's rule, so at every batch
// it picks the slot count and rho of the planner's device report for the
// chain at that batch. Integer-MiB sizes put many cases exactly on a
// slot boundary.
TEST(BatchTradeoff, AgreesWithTheMemoryPlannerAtEveryBatch) {
  std::mt19937 rng(20240611U);
  std::uniform_int_distribution<int> depth_dist(1, 60);
  std::uniform_int_distribution<int> fixed_dist(0, 200);
  std::uniform_int_distribution<int> act_dist(1, 16);
  std::uniform_int_distribution<int> room_dist(0, 600);
  int cases = 0;
  int feasible = 0;
  for (int trial = 0; trial < 200; ++trial) {
    for (const double fill : {1.0, 0.5}) {
      BatchTradeoffConfig config;
      config.depth = depth_dist(rng);
      config.fixed_bytes = fixed_dist(rng) * kMiB;
      config.act_bytes_per_sample = act_dist(rng) * kMiB;
      config.capacity_bytes = config.fixed_bytes + room_dist(rng) * kMiB;
      config.pricing = SlotPricing(fill);
      const BatchTradeoffPlanner planner(config);
      for (std::int64_t k = 1; k <= 24; ++k) {
        ChainSpec spec;
        spec.depth = config.depth;
        spec.fixed_bytes = config.fixed_bytes;
        spec.activation_bytes_per_step =
            static_cast<double>(k) * config.act_bytes_per_sample;
        spec.pricing = config.pricing;
        const PlanReport report =
            MemoryPlanner(spec).report_for_device(config.capacity_bytes);
        const BatchPoint point = planner.evaluate(k);
        ++cases;
        ASSERT_EQ(point.feasible, report.fits_with_checkpointing)
            << "trial " << trial << " batch " << k;
        if (!point.feasible) continue;
        ++feasible;
        EXPECT_EQ(point.total_slots, report.recommended.total_slots)
            << "trial " << trial << " batch " << k;
        EXPECT_EQ(point.rho, report.recommended.achieved_rho)
            << "trial " << trial << " batch " << k;
        EXPECT_EQ(point.peak_bytes, report.recommended.peak_bytes)
            << "trial " << trial << " batch " << k;
        EXPECT_LE(point.peak_bytes, config.capacity_bytes);
      }
    }
  }
  EXPECT_GT(feasible, cases / 4);
}

TEST(BatchTradeoff, RejectsBadConfig) {
  BatchTradeoffConfig bad = demo_config();
  bad.depth = 0;
  EXPECT_THROW(BatchTradeoffPlanner{bad}, std::invalid_argument);
  bad = demo_config();
  bad.act_bytes_per_sample = 0.0;
  EXPECT_THROW(BatchTradeoffPlanner{bad}, std::invalid_argument);
}

}  // namespace
}  // namespace edgetrain::core

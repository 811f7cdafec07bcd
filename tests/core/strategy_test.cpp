#include "core/strategy.hpp"

#include <gtest/gtest.h>

namespace edgetrain::core {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;

ChainSpec chain(double fixed_mib, double act_mib, int depth = 50) {
  ChainSpec spec;
  spec.name = "test-chain";
  spec.depth = depth;
  spec.fixed_bytes = fixed_mib * kMiB;
  spec.activation_bytes_per_step = act_mib * kMiB;
  return spec;
}

StrategyRequest request(ChainSpec spec, double device_mib,
                        double rho_budget = 2.0, bool storage = false) {
  StrategyRequest req;
  req.chain = std::move(spec);
  req.device_memory_bytes = device_mib * kMiB;
  req.rho_budget = rho_budget;
  req.has_local_storage = storage;
  return req;
}

TEST(Strategy, SmallModelNeedsNoCheckpointing) {
  const auto rec =
      recommend_strategy(request(chain(100.0, 1.0), 2048.0));
  EXPECT_EQ(rec.feasibility, Feasibility::FitsWithoutCheckpointing);
  EXPECT_DOUBLE_EQ(rec.rho, 1.0);
  EXPECT_GT(rec.recommended_batch, 1);
  EXPECT_NE(rec.rationale.find("rho=1"), std::string::npos);
}

TEST(Strategy, MidModelGetsRevolve) {
  // Full storage 400 + 50*30 = 1900 > 1024; fits checkpointed.
  const auto rec =
      recommend_strategy(request(chain(400.0, 30.0), 1024.0));
  EXPECT_EQ(rec.feasibility, Feasibility::FitsWithCheckpointing);
  EXPECT_GT(rec.rho, 1.0);
  EXPECT_LE(rec.rho, 2.0);
  EXPECT_LE(rec.peak_bytes, 1024.0 * kMiB);
  EXPECT_GT(rec.free_slots, 0);
}

TEST(Strategy, TightBudgetEscalatesToFp16) {
  // Full-precision Revolve within rho<=1.2 needs many slots; make the
  // device too small for them but big enough at half precision.
  ChainSpec spec = chain(400.0, 30.0, 101);
  const MemoryPlanner planner(spec);
  const PlanPoint full_precision = planner.plan_for_rho(1.2);
  // Pick a device between the fp32 and fp16 footprints at rho 1.2.
  const double device_mib =
      (full_precision.peak_bytes -
       0.45 * full_precision.total_slots * spec.activation_bytes_per_step) /
      kMiB;
  const auto rec =
      recommend_strategy(request(spec, device_mib, 1.2));
  EXPECT_EQ(rec.feasibility, Feasibility::FitsWithCompressedSlots);
  EXPECT_LE(rec.rho, 1.2);
  EXPECT_NE(rec.rationale.find("fp16"), std::string::npos);
}

TEST(Strategy, Fp16KeepsTheFrontierInPlaintext) {
  // fp16 halves the resting checkpoints, not the live frontier: even the
  // slot-less plan needs fixed + act = 110 MiB, more than the 107 MiB
  // device, so compression cannot rescue it (halving the whole
  // activation would have claimed a 105 MiB fit).
  const auto rec = recommend_strategy(request(chain(100.0, 10.0, 8), 107.0,
                                              10.0, /*storage=*/false));
  EXPECT_EQ(rec.feasibility, Feasibility::Infeasible);
}

TEST(Strategy, Fp16BatchSuggestionFitsTheDevice) {
  // The fp16 rung halves the resting slots, never the live frontier: the
  // suggested batch's plan, priced the same way, must fit the device.
  // Halving the whole activation instead suggested batch 8 with 5 slots,
  // whose real peak is 50 + 8 * 5 * (1 + 0.5 * 4) = 170 MiB > 150 MiB.
  const double device_mib = 150.0;
  const auto rec =
      recommend_strategy(request(chain(50.0, 5.0), device_mib, 1.2));
  ASSERT_EQ(rec.feasibility, Feasibility::FitsWithCompressedSlots);
  ChainSpec at_batch =
      chain(50.0, 5.0 * static_cast<double>(rec.recommended_batch));
  at_batch.pricing = SlotPricing(0.5);
  const PlanPoint plan = MemoryPlanner(at_batch).plan_for_rho(rec.batch_rho);
  EXPECT_LE(plan.peak_bytes, device_mib * kMiB)
      << "batch " << rec.recommended_batch << " rho " << rec.batch_rho;
}

TEST(Strategy, StorageEnablesDiskSpill) {
  // rho budget of 1.01 is unreachable in RAM for a big model, but a node
  // with an SD card can spill.
  const auto with_storage = recommend_strategy(
      request(chain(400.0, 30.0), 700.0, 1.01, /*storage=*/true));
  EXPECT_EQ(with_storage.feasibility, Feasibility::FitsWithDiskSpill);
  const auto without_storage = recommend_strategy(
      request(chain(400.0, 30.0), 700.0, 1.01, /*storage=*/false));
  EXPECT_EQ(without_storage.feasibility, Feasibility::Infeasible);
}

TEST(Strategy, FixedStateOverflowIsInfeasible) {
  const auto rec =
      recommend_strategy(request(chain(3000.0, 1.0), 2048.0, 4.0, true));
  EXPECT_EQ(rec.feasibility, Feasibility::Infeasible);
  EXPECT_NE(rec.rationale.find("fixed training state"), std::string::npos);
}

TEST(Strategy, FeasibilityNames) {
  EXPECT_EQ(to_string(Feasibility::FitsWithCheckpointing),
            "fits with Revolve checkpointing");
  EXPECT_EQ(to_string(Feasibility::Infeasible), "infeasible on this device");
}

TEST(Strategy, RationaleAlwaysNonEmpty) {
  for (const double device : {64.0, 500.0, 1024.0, 4096.0}) {
    const auto rec = recommend_strategy(request(chain(400.0, 20.0), device));
    EXPECT_FALSE(rec.rationale.empty()) << device;
  }
}

}  // namespace
}  // namespace edgetrain::core

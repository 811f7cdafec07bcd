#include "core/planner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include "core/replay.hpp"
#include "core/revolve.hpp"
#include "core/slot_codec.hpp"
#include "models/linear_resnet.hpp"

namespace edgetrain::core {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;

ChainSpec demo_chain(int depth = 50, double fixed_mib = 400.0,
                     double act_mib = 5.0) {
  ChainSpec spec;
  spec.name = "demo";
  spec.depth = depth;
  spec.fixed_bytes = fixed_mib * kMiB;
  spec.activation_bytes_per_step = act_mib * kMiB;
  return spec;
}

TEST(MemoryPlanner, FullStorageBytesAtRhoOne) {
  const MemoryPlanner planner(demo_chain());
  const PlanPoint point = planner.plan_for_rho(1.0);
  EXPECT_EQ(point.free_slots, 49);
  EXPECT_EQ(point.total_slots, 50);
  EXPECT_DOUBLE_EQ(point.achieved_rho, 1.0);
  EXPECT_DOUBLE_EQ(point.peak_bytes, planner.no_checkpoint_bytes());
}

TEST(MemoryPlanner, MinPossibleIsOneSlot) {
  const MemoryPlanner planner(demo_chain());
  EXPECT_DOUBLE_EQ(planner.min_possible_bytes(),
                   (400.0 + 5.0) * kMiB);
}

TEST(MemoryPlanner, MemoryMonotoneNonIncreasingInRho) {
  const MemoryPlanner planner(demo_chain(101));
  double prev = std::numeric_limits<double>::infinity();
  for (const PlanPoint& point : planner.sweep_rho(1.0, 3.0, 41)) {
    EXPECT_LE(point.peak_bytes, prev + 1e-6);
    EXPECT_LE(point.achieved_rho, point.rho_budget + 1e-9);
    prev = point.peak_bytes;
  }
}

TEST(MemoryPlanner, SweepEndpointsAreExtremes) {
  const MemoryPlanner planner(demo_chain(64));
  const auto curve = planner.sweep_rho(1.0, 8.0, 30);
  EXPECT_DOUBLE_EQ(curve.front().peak_bytes, planner.no_checkpoint_bytes());
  // At a generous budget the *activation* footprint collapses (the fixed
  // weight/optimizer bytes are incompressible).
  const double fixed = planner.chain().fixed_bytes;
  EXPECT_LT(curve.back().peak_bytes - fixed,
            0.15 * (planner.no_checkpoint_bytes() - fixed));
}

TEST(MemoryPlanner, ReportFitsWithoutCheckpointing) {
  const MemoryPlanner planner(demo_chain(20, 100.0, 2.0));
  // Full storage = 100 + 40 = 140 MiB.
  const PlanReport report = planner.report_for_device(200.0 * kMiB);
  EXPECT_TRUE(report.fits_without_checkpointing);
  EXPECT_TRUE(report.fits_with_checkpointing);
  EXPECT_DOUBLE_EQ(report.min_rho_to_fit, 1.0);
}

TEST(MemoryPlanner, ReportNeedsCheckpointing) {
  const MemoryPlanner planner(demo_chain(50, 400.0, 5.0));
  // Full storage 650 MiB; device 500 MiB -> 20 total slots max.
  const PlanReport report = planner.report_for_device(500.0 * kMiB);
  EXPECT_FALSE(report.fits_without_checkpointing);
  EXPECT_TRUE(report.fits_with_checkpointing);
  EXPECT_GT(report.min_rho_to_fit, 1.0);
  EXPECT_LE(report.recommended.peak_bytes, 500.0 * kMiB);
  EXPECT_LE(report.recommended.total_slots, 20);
}

TEST(MemoryPlanner, ReportInfeasibleDevice) {
  const MemoryPlanner planner(demo_chain(50, 400.0, 5.0));
  const PlanReport report = planner.report_for_device(300.0 * kMiB);
  EXPECT_FALSE(report.fits_with_checkpointing);
  EXPECT_TRUE(std::isinf(report.min_rho_to_fit));
}

TEST(MemoryPlanner, NMaxMatchesPaperFormula) {
  // n_max = (M_C - M_W) / (k * M_A)
  EXPECT_EQ(MemoryPlanner::max_depth_without_checkpointing(
                2048.0 * kMiB, 178.0 * kMiB, 55.0 * kMiB),
            34);  // (2048-178)/55 = 34.0
  EXPECT_EQ(MemoryPlanner::max_depth_without_checkpointing(
                100.0 * kMiB, 200.0 * kMiB, 1.0 * kMiB),
            0);
}

TEST(MemoryPlanner, PlanForRhoUsesMinimalSlots) {
  const MemoryPlanner planner(demo_chain(101));
  const PlanPoint point = planner.plan_for_rho(1.5);
  // The chosen slot count is minimal: one fewer exceeds the budget.
  EXPECT_LE(point.achieved_rho, 1.5);
  if (point.free_slots > 0) {
    const PlanPoint tighter = planner.plan_for_rho(point.achieved_rho - 1e-6);
    EXPECT_GE(tighter.free_slots, point.free_slots);
  }
}

TEST(MemoryPlanner, HugeCapacitySaturatesTheSlotFit) {
  // 1e10 one-byte activations fit: full storage, not an int overflow that
  // wraps the fit to the slot-less plan.
  ChainSpec spec = demo_chain(50);
  spec.fixed_bytes = 0.0;
  spec.activation_bytes_per_step = 1.0;
  const PlanReport report = MemoryPlanner(spec).report_for_device(1e10);
  EXPECT_TRUE(report.fits_without_checkpointing);
  EXPECT_EQ(report.recommended.free_slots, 49);
  EXPECT_DOUBLE_EQ(report.min_rho_to_fit, 1.0);
  EXPECT_EQ(SlotPricing(0.5).max_free_slots(1e10, 0.0, 1.0),
            std::numeric_limits<int>::max());
  EXPECT_EQ(SlotPricing({0.5}, 0.5).max_free_slots(1e10, 0.0, 1.0),
            std::numeric_limits<int>::max());
}

TEST(MemoryPlanner, RejectsBadChain) {
  ChainSpec bad = demo_chain();
  bad.depth = 0;
  EXPECT_THROW(MemoryPlanner{bad}, std::invalid_argument);
  ChainSpec zero_act = demo_chain();
  zero_act.activation_bytes_per_step = 0.0;
  EXPECT_THROW(MemoryPlanner{zero_act}, std::invalid_argument);
  ChainSpec bad_ratio = demo_chain();
  EXPECT_THROW(bad_ratio.pricing = SlotPricing(0.0), std::invalid_argument);
  EXPECT_THROW(bad_ratio.pricing = SlotPricing(1.5), std::invalid_argument);
}

// --- compressed checkpoint slots -------------------------------------------

TEST(MemoryPlanner, CompressedPeakFollowsWeightedFormula) {
  // peak(s) = fixed + (1 + s * ratio) * act: the frontier activation is
  // always plaintext, resting checkpoints cost ratio * act each.
  ChainSpec spec = demo_chain(50, 400.0, 5.0);
  spec.pricing = SlotPricing(0.5);
  const MemoryPlanner planner(spec);
  const PlanPoint full = planner.plan_for_rho(1.0);
  EXPECT_DOUBLE_EQ(full.peak_bytes,
                   (400.0 + (1.0 + 0.5 * 49.0) * 5.0) * kMiB);
  EXPECT_DOUBLE_EQ(planner.no_checkpoint_bytes(), full.peak_bytes);
  // ratio = 1 must reproduce the uncompressed planner exactly.
  const MemoryPlanner plain(demo_chain(50, 400.0, 5.0));
  for (const double cap_mib : {401.0, 420.0, 500.0, 650.0, 1000.0}) {
    const PlanReport a = plain.report_for_device(cap_mib * kMiB);
    ChainSpec one = demo_chain(50, 400.0, 5.0);
    one.pricing = SlotPricing(1.0);
    const PlanReport b = MemoryPlanner(one).report_for_device(cap_mib * kMiB);
    EXPECT_DOUBLE_EQ(a.min_rho_to_fit, b.min_rho_to_fit) << cap_mib;
  }
}

TEST(MemoryPlanner, CompressionAdmitsMoreSlotsAtSameCap) {
  // Device 500 MiB, fixed 400, act 5: plain gets 20 total slots,
  // ratio 0.5 affords 1 + floor((500-400-5)/2.5) = 39.
  const MemoryPlanner plain(demo_chain(50, 400.0, 5.0));
  ChainSpec spec = demo_chain(50, 400.0, 5.0);
  spec.pricing = SlotPricing(0.5);
  const MemoryPlanner compressed(spec);
  const PlanReport plain_report = plain.report_for_device(500.0 * kMiB);
  const PlanReport comp_report = compressed.report_for_device(500.0 * kMiB);
  EXPECT_EQ(plain_report.recommended.total_slots, 20);
  EXPECT_EQ(comp_report.recommended.total_slots, 39);
  EXPECT_LT(comp_report.min_rho_to_fit, plain_report.min_rho_to_fit);
  EXPECT_LE(comp_report.recommended.peak_bytes, 500.0 * kMiB);
}

// The ISSUE's acceptance bar: on the paper's LinearResNet_{50,101,152}
// at the Waggle node's 2 GiB budget, a 0.5-ratio codec must let the
// planner select a strictly lower recompute factor than uncompressed
// wherever checkpointing binds — and the schedule abstract interpreter
// must confirm the chosen plan's weighted peak-memory bound.
TEST(MemoryPlanner, CodecPlansStrictlyLowerRhoOnLinearResNets) {
  using models::LinearResNet;
  using models::ResNetMemoryModel;
  using models::ResNetSpec;
  using models::ResNetVariant;
  for (const ResNetVariant variant :
       {ResNetVariant::ResNet50, ResNetVariant::ResNet101,
        ResNetVariant::ResNet152}) {
    const ResNetMemoryModel model(ResNetSpec::make(variant));
    const LinearResNet linear = LinearResNet::from_resnet(model, 500, 8);

    const MemoryPlanner plain(linear.to_chain_spec());
    const MemoryPlanner compressed(linear.to_chain_spec(0.5));
    const PlanReport plain_report =
        plain.report_for_device(models::kWaggleMemoryBytes);
    const PlanReport comp_report =
        compressed.report_for_device(models::kWaggleMemoryBytes);

    ASSERT_TRUE(plain_report.fits_with_checkpointing) << linear.name;
    ASSERT_GT(plain_report.min_rho_to_fit, 1.0) << linear.name;
    EXPECT_TRUE(comp_report.fits_with_checkpointing) << linear.name;
    EXPECT_LT(comp_report.min_rho_to_fit, plain_report.min_rho_to_fit)
        << linear.name;
    EXPECT_GT(comp_report.recommended.free_slots,
              plain_report.recommended.free_slots)
        << linear.name;
    EXPECT_LE(comp_report.recommended.peak_bytes, models::kWaggleMemoryBytes)
        << linear.name;

    // Interpreter confirmation: the revolve schedule realising the chosen
    // plan keeps its weighted activation peak within 1 + ratio * s units,
    // so the byte bound fixed + units * act really holds at execution time.
    const int s = comp_report.recommended.free_slots;
    const Schedule schedule = revolve::make_schedule(linear.depth, s);
    core::CostModel cost;
    cost.pricing = SlotPricing(0.5);
    core::Bounds bounds;
    bounds.max_weighted_units = 1.0 + 0.5 * static_cast<double>(s);
    bounds.max_ram_slots = s + 1;
    const core::Report verdict =
        core::interpret(schedule, cost, bounds);
    EXPECT_EQ(verdict.error_count(), 0)
        << linear.name << "\n" << verdict.summary();
    EXPECT_LE(linear.fixed_bytes + verdict.facts.peak_weighted_units *
                                       linear.act_bytes_per_step,
              comp_report.recommended.peak_bytes + 1.0)
        << linear.name;
  }
}

// The bitmap codec's achieved ratio on realistic (>= 70%-sparse post-ReLU)
// activations, measured by actually encoding one: blob bytes / payload
// bytes. Lands around 1/8 byte of bitmap + density * 4 bytes of packed
// nonzeros per element, i.e. ~0.33 at 70% sparsity -- below fp16's 0.5.
double measured_bitmap_ratio(double density) {
  std::mt19937 rng(91);
  std::normal_distribution<float> dist(0.0F, 1.0F);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  Tensor act = Tensor::zeros(Shape{64, 1024});
  float* data = act.data();
  for (std::int64_t i = 0; i < act.numel(); ++i) {
    // ReLU-like: most lanes exactly +0.0f, the rest arbitrary magnitudes.
    data[i] = coin(rng) < density ? std::abs(dist(rng)) + 0.01F : 0.0F;
  }
  const std::vector<std::uint8_t> blob =
      codec::encode(SlotCodec::Bitmap, act);
  return static_cast<double>(blob.size()) /
         (static_cast<double>(act.numel()) * sizeof(float));
}

// The ISSUE's dynamic-ratio acceptance bar: at the Waggle node's 2 GiB
// budget on LinearResNet_{50,101,152} with >= 70%-sparse activations, the
// measured bitmap per-slot ratios must buy a strictly lower min-rho than
// the fp16 cast's static 0.5 -- lossless beating lossy is exactly why the
// planner accepts measured vectors instead of worst-case scalars.
TEST(MemoryPlanner, BitmapMeasuredRatiosBeatFp16AtWaggleCap) {
  using models::LinearResNet;
  using models::ResNetMemoryModel;
  using models::ResNetSpec;
  using models::ResNetVariant;

  const double bitmap_ratio = measured_bitmap_ratio(0.3);  // 70% sparse
  ASSERT_GT(bitmap_ratio, 0.0);
  ASSERT_LT(bitmap_ratio, 0.5) << "bitmap must out-pack fp16 at 70% zeros";

  for (const ResNetVariant variant :
       {ResNetVariant::ResNet50, ResNetVariant::ResNet101,
        ResNetVariant::ResNet152}) {
    const ResNetMemoryModel model(ResNetSpec::make(variant));
    const LinearResNet linear = LinearResNet::from_resnet(model, 500, 8);

    const MemoryPlanner fp16(linear.to_chain_spec(0.5));
    ChainSpec bitmap_spec = linear.to_chain_spec(bitmap_ratio);
    // Per-slot measured vector (entry k prices checkpoint slot k + 1), the
    // form SlotStore::measured_slot_ratio feeds: every slot at the achieved
    // bitmap ratio, tail falling back to the same value.
    bitmap_spec.pricing = SlotPricing(
        std::vector<double>(static_cast<std::size_t>(linear.depth - 1),
                            bitmap_ratio),
        bitmap_ratio);
    const MemoryPlanner bitmap(bitmap_spec);

    const PlanReport fp16_report =
        fp16.report_for_device(models::kWaggleMemoryBytes);
    const PlanReport bitmap_report =
        bitmap.report_for_device(models::kWaggleMemoryBytes);

    ASSERT_TRUE(fp16_report.fits_with_checkpointing) << linear.name;
    ASSERT_GT(fp16_report.min_rho_to_fit, 1.0)
        << linear.name << ": cap must bind for the comparison to be strict";
    EXPECT_TRUE(bitmap_report.fits_with_checkpointing) << linear.name;
    EXPECT_LT(bitmap_report.min_rho_to_fit, fp16_report.min_rho_to_fit)
        << linear.name;
    EXPECT_GT(bitmap_report.recommended.free_slots,
              fp16_report.recommended.free_slots)
        << linear.name;
    EXPECT_LE(bitmap_report.recommended.peak_bytes,
              models::kWaggleMemoryBytes)
        << linear.name;

    // The per-slot peak formula the planner used must match the weighted
    // prefix sum it advertises.
    const int s = bitmap_report.recommended.free_slots;
    EXPECT_NEAR(bitmap_report.recommended.peak_bytes,
                linear.fixed_bytes +
                    (1.0 + bitmap.chain().pricing.units(s)) *
                        linear.act_bytes_per_step,
                1.0)
        << linear.name;
  }
}

TEST(RevolveBytes, MaxFreeSlotsForBytesMatchesPlannerGeometry) {
  // room = cap - fixed - act; slots = floor(room / (act * ratio)).
  EXPECT_EQ(SlotPricing(1.0).max_free_slots(500.0, 400.0, 5.0), 19);
  EXPECT_EQ(SlotPricing(0.5).max_free_slots(500.0, 400.0, 5.0), 38);
  EXPECT_EQ(SlotPricing(0.5).max_free_slots(404.0, 400.0, 5.0), -1);
  EXPECT_EQ(SlotPricing(0.5).max_free_slots(405.0, 400.0, 5.0), 0);
  EXPECT_THROW((void)SlotPricing(1.0).max_free_slots(500.0, 0.0, 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)SlotPricing(0.0), std::invalid_argument);
  EXPECT_THROW((void)SlotPricing(1.5), std::invalid_argument);
}

TEST(RevolveBytes, PerSlotOverloadWalksMeasuredPrefixThenClosedFormTail) {
  const std::vector<double> measured{0.2, 0.4};
  // room = 500 - 400 - 5 = 95 -> weighted units budget 95 / 5 = 19.
  // Measured walk consumes 0.6, tail at fill 1.0 adds floor(18.4) = 18,
  // so s = 2 + 18 = 20.
  EXPECT_EQ(SlotPricing(measured, 1.0).max_free_slots(500.0, 400.0, 5.0), 20);
  // Budget 2 units (cap 415 = 400 + 5 + 2 * 5): the walk admits both
  // measured slots (sum 0.6), the closed-form tail adds
  // floor((2 - 0.6) / 1.0) = 1 more: s = 3.
  EXPECT_EQ(SlotPricing(measured, 1.0).max_free_slots(415.0, 400.0, 5.0), 3);
  // Budget 0.5 units: the second measured slot (cumulative 0.6) already
  // overflows mid-walk.
  EXPECT_EQ(SlotPricing(measured, 1.0).max_free_slots(407.5, 400.0, 5.0), 1);
  // All-equal vector must reproduce the scalar model exactly.
  EXPECT_EQ(
      SlotPricing({0.5, 0.5, 0.5}, 0.5).max_free_slots(500.0, 400.0, 5.0),
      SlotPricing(0.5).max_free_slots(500.0, 400.0, 5.0));
  // Empty vector degenerates to the scalar model at the fill ratio.
  EXPECT_EQ(SlotPricing({}, 0.5).max_free_slots(500.0, 400.0, 5.0), 38);
  // No room for even the frontier -> -1; exactly the frontier -> 0.
  EXPECT_EQ(SlotPricing(measured, 0.5).max_free_slots(404.0, 400.0, 5.0), -1);
  EXPECT_EQ(SlotPricing(measured, 1.0).max_free_slots(405.0, 400.0, 5.0), 0);
  // Domain checks: act <= 0, out-of-range fill, out-of-range entries.
  EXPECT_THROW((void)SlotPricing(measured, 1.0).max_free_slots(500.0, 0.0, 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)SlotPricing(measured, 0.0), std::invalid_argument);
  EXPECT_THROW((void)SlotPricing(measured, 1.5), std::invalid_argument);
  EXPECT_THROW((void)SlotPricing({0.5, 0.0}, 1.0), std::invalid_argument);
  EXPECT_THROW((void)SlotPricing({1.5}, 1.0), std::invalid_argument);
}

// Reference formulas for the byte fit (scalar and per-slot) and the
// resting units. SlotPricing must reproduce them bit for bit: every plan
// the planner, the re-planner and the sweep make depends on them.
int reference_scalar_fit(double cap, double fixed, double act, double ratio) {
  const double room = cap - fixed - act;
  if (room < 0.0) return -1;
  return static_cast<int>(room / (act * ratio));
}

int reference_vector_fit(double cap, double fixed, double act,
                         const std::vector<double>& ratios, double fill) {
  const double room = cap - fixed - act;
  if (room < 0.0) return -1;
  int s = 0;
  double units = 0.0;
  while (s < static_cast<int>(ratios.size())) {
    const double next = units + ratios[static_cast<std::size_t>(s)];
    if (next * act > room) return s;
    units = next;
    ++s;
  }
  const double tail = room / act - units;
  return tail <= 0.0 ? s : s + static_cast<int>(tail / fill);
}

double reference_units(const std::vector<double>& ratios, double fill,
                       int free_slots) {
  if (ratios.empty()) return static_cast<double>(free_slots) * fill;
  double units = 0.0;
  for (int k = 0; k < free_slots; ++k) {
    units += k < static_cast<int>(ratios.size())
                 ? ratios[static_cast<std::size_t>(k)]
                 : fill;
  }
  return units;
}

TEST(SlotPricing, FitAndUnitsMatchTheDeletedFormulasOnASeededGrid) {
  std::mt19937_64 rng(2026);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  int boundary_caps = 0;
  int floored_below = 0;  // boundary caps whose fit lands one slot short
  for (int trial = 0; trial < 600; ++trial) {
    const double act =
        std::ldexp(1.0 + u(rng), static_cast<int>(u(rng) * 30.0));
    const double fixed = u(rng) < 0.2 ? 0.0 : u(rng) * 1e3 * act;
    const double fill = u(rng) < 0.3 ? (u(rng) < 0.5 ? 1.0 : 0.5)
                                     : std::max(1e-3, u(rng));
    std::vector<double> ratios;
    if (u(rng) >= 0.25) {
      ratios.resize(1 + static_cast<std::size_t>(u(rng) * 40.0));
      for (double& r : ratios) r = std::max(1e-3, u(rng));
    }
    const SlotPricing pricing =
        ratios.empty() ? SlotPricing(fill) : SlotPricing(ratios, fill);
    const int span = static_cast<int>(ratios.size()) + 6;
    for (int s = 0; s <= span; ++s) {
      ASSERT_EQ(pricing.units(s), reference_units(ratios, fill, s))
          << "trial " << trial << " s " << s;
    }
    // Capacities exactly on each slot boundary, one ulp either side, and
    // a few in between.
    std::vector<double> caps;
    for (int k = 0; k <= span; ++k) {
      const double cap =
          fixed + (1.0 + reference_units(ratios, fill, k)) * act;
      caps.push_back(cap);
      caps.push_back(std::nextafter(cap, 0.0));
      caps.push_back(std::nextafter(cap, 2.0 * cap + 1.0));
      ++boundary_caps;
      const int fit = pricing.max_free_slots(cap, fixed, act);
      if (fit < k) ++floored_below;
    }
    for (int k = 0; k < 8; ++k) caps.push_back(fixed + u(rng) * 60.0 * act);
    for (const double cap : caps) {
      const int expected =
          ratios.empty() ? reference_scalar_fit(cap, fixed, act, fill)
                         : reference_vector_fit(cap, fixed, act, ratios, fill);
      ASSERT_EQ(pricing.max_free_slots(cap, fixed, act), expected)
          << "trial " << trial << " cap " << cap;
    }
  }
  EXPECT_GT(boundary_caps, 10000);
  // Rounding does floor some exact boundaries a slot short: the grid
  // reaches the capacities where that can happen.
  EXPECT_GT(floored_below, 0);
}

}  // namespace
}  // namespace edgetrain::core

// Tests for the calibration subsystem (src/calib): device-model queries,
// the checksummed on-disk profile (round-trip plus exhaustive truncation
// and bit-flip fault injection -- a corrupt profile must never be trusted,
// it must trigger re-calibration), chain measurement, and the feeders that
// translate a ChainCosts into every planner's native inputs.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "analysis/interp.hpp"
#include "calib/calibrate.hpp"
#include "calib/chain_costs.hpp"
#include "calib/device_model.hpp"
#include "core/dynprog.hpp"
#include "core/executor.hpp"
#include "core/planner.hpp"
#include "core/revolve.hpp"
#include "core/tiered_slot_store.hpp"
#include "models/resnet.hpp"
#include "models/small_nets.hpp"
#include "nn/chain_runner.hpp"

namespace edgetrain::calib {
namespace {

DeviceModel sample_model() {
  DeviceModel m;
  m.points = {ThreadPoint{1, 4.0, 2.0}, ThreadPoint{4, 10.0, 8.0}};
  m.memcpy_bytes_per_sec = 8e9;
  m.disk_write_bytes_per_sec = 50e6;
  m.disk_read_bytes_per_sec = 80e6;
  m.disk_write_latency_us = 900.0;
  m.disk_read_latency_us = 400.0;
  return m;
}

std::filesystem::path temp_dir(const char* tag) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      (std::string("edgetrain_calib_test_") + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  // An empty vector's data() may be null, which fwrite must not be given.
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file), bytes.size());
  }
  ASSERT_EQ(std::fclose(file), 0);
}

// Synthetic per-step costs for feeder tests: microseconds {4, 2, 1} (the
// golden vector of the DP tests) with equal 1 KiB boundaries.
ChainCosts golden_costs() {
  ChainCosts costs;
  costs.forward_us = {4.0, 2.0, 1.0};
  costs.backward_us = {4.0, 2.0, 1.0};
  costs.boundary_bytes = {1024.0, 1024.0};
  costs.input_bytes = 1024.0;
  costs.output_bytes = 1024.0;
  return costs;
}

TEST(DeviceModel, ValidationRules) {
  EXPECT_FALSE(DeviceModel{}.valid());
  EXPECT_TRUE(sample_model().valid());

  DeviceModel descending = sample_model();
  std::swap(descending.points[0], descending.points[1]);
  EXPECT_FALSE(descending.valid());

  DeviceModel zero_rate = sample_model();
  zero_rate.points[0].conv_gflops = 0.0;
  EXPECT_FALSE(zero_rate.valid());

  DeviceModel no_disk = sample_model();
  no_disk.disk_read_bytes_per_sec = 0.0;
  EXPECT_FALSE(no_disk.valid());

  DeviceModel negative_latency = sample_model();
  negative_latency.disk_write_latency_us = -1.0;
  EXPECT_FALSE(negative_latency.valid());
}

TEST(DeviceModel, InterpolationClampsAtMeasuredEnds) {
  const DeviceModel m = sample_model();
  EXPECT_EQ(m.calibrated_threads(), 4);
  EXPECT_EQ(m.best_threads(), 4);
  // Below / above the measured range: clamp, never extrapolate.
  EXPECT_DOUBLE_EQ(m.gemm_gflops_at(0), 4.0);
  EXPECT_DOUBLE_EQ(m.gemm_gflops_at(1), 4.0);
  EXPECT_DOUBLE_EQ(m.gemm_gflops_at(4), 10.0);
  EXPECT_DOUBLE_EQ(m.gemm_gflops_at(64), 10.0);
  // Interior: linear between the bracketing points.
  EXPECT_DOUBLE_EQ(m.gemm_gflops_at(2), 4.0 + (10.0 - 4.0) / 3.0);
  EXPECT_DOUBLE_EQ(m.conv_gflops_at(3), 2.0 + 2.0 * (8.0 - 2.0) / 3.0);
}

TEST(DeviceModel, PredictionsAreCalibratedMicroseconds) {
  const DeviceModel m = sample_model();
  // 8 GFLOP at 10 GFLOPS = 0.8 s.
  EXPECT_DOUBLE_EQ(m.gemm_us(8e9, 4), 0.8e6);
  EXPECT_DOUBLE_EQ(m.conv_us(2e9, 1), 1e6);
  EXPECT_DOUBLE_EQ(m.memcpy_us(8e9), 1e6);
  // Spill path: fixed latency + bytes / bandwidth.
  EXPECT_DOUBLE_EQ(m.disk_write_us(50e6), 900.0 + 1e6);
  EXPECT_DOUBLE_EQ(m.disk_read_us(0.0), 400.0);
}

TEST(DeviceModel, QuantRatesInterpolateAndFallBack) {
  DeviceModel m = sample_model();
  // Unmeasured quant rates (0.0, e.g. a profile captured by an older probe
  // grid) fall back to the fp32 GEMM rate rather than predicting nonsense.
  EXPECT_DOUBLE_EQ(m.bf16_gemm_us(8e9, 4), m.gemm_us(8e9, 4));
  EXPECT_DOUBLE_EQ(m.s8_gemm_us(8e9, 4), m.gemm_us(8e9, 4));

  m.points[0].bf16_gemm_gflops = 8.0;
  m.points[1].bf16_gemm_gflops = 20.0;
  m.points[0].s8_gemm_gops = 16.0;
  m.points[1].s8_gemm_gops = 40.0;
  ASSERT_TRUE(m.valid());
  EXPECT_DOUBLE_EQ(m.bf16_gemm_gflops_at(1), 8.0);
  EXPECT_DOUBLE_EQ(m.bf16_gemm_gflops_at(2), 8.0 + (20.0 - 8.0) / 3.0);
  EXPECT_DOUBLE_EQ(m.s8_gemm_gops_at(4), 40.0);
  EXPECT_DOUBLE_EQ(m.bf16_gemm_us(8e9, 4), 0.4e6);
  EXPECT_DOUBLE_EQ(m.s8_gemm_us(8e9, 4), 0.2e6);

  DeviceModel bad = m;
  bad.points[0].s8_gemm_gops = -1.0;
  EXPECT_FALSE(bad.valid());

  // The v2 profile round-trips the quant rates bit-exactly.
  EXPECT_EQ(decode_profile(encode_profile(m)), m);
}

TEST(ChainCosts, QuantizedPrecisionScalesComputeNotBoundaries) {
  DeviceModel m = sample_model();
  for (auto& p : m.points) {
    p.bf16_gemm_gflops = p.gemm_gflops * 1.5;
    p.s8_gemm_gops = p.gemm_gflops * 2.0;
  }
  const models::ResNetSpec spec =
      models::ResNetSpec::make(models::ResNetVariant::ResNet18);
  const ChainCosts fp32 = predict_resnet(spec, 32, 4, m, 4);
  const ChainCosts bf16 =
      predict_resnet(spec, 32, 4, m, 4, Precision::Bf16);
  const ChainCosts int8 =
      predict_resnet(spec, 32, 4, m, 4, Precision::Int8);
  ASSERT_TRUE(fp32.valid());
  ASSERT_TRUE(bf16.valid());
  ASSERT_TRUE(int8.valid());
  for (std::size_t i = 0; i < fp32.forward_us.size(); ++i) {
    // 1.5x / 2x measured rate => 1/1.5 / 0.5x predicted time.
    EXPECT_NEAR(bf16.forward_us[i], fp32.forward_us[i] / 1.5,
                1e-9 * fp32.forward_us[i] + 1e-12);
    EXPECT_NEAR(int8.forward_us[i], fp32.forward_us[i] * 0.5,
                1e-9 * fp32.forward_us[i] + 1e-12);
  }
  // Checkpointed boundaries stay master-precision fp32.
  EXPECT_EQ(int8.boundary_bytes, fp32.boundary_bytes);
  EXPECT_EQ(bf16.boundary_bytes, fp32.boundary_bytes);
}

TEST(Profile, EncodeDecodeRoundTrip) {
  const DeviceModel m = sample_model();
  const std::vector<std::uint8_t> bytes = encode_profile(m);
  EXPECT_EQ(decode_profile(bytes), m);
}

TEST(Profile, EveryTruncationIsDetected) {
  const std::vector<std::uint8_t> bytes = encode_profile(sample_model());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> prefix(bytes.begin(),
                                           bytes.begin() + len);
    EXPECT_THROW((void)decode_profile(prefix), ProfileError)
        << "truncation to " << len << " bytes accepted";
  }
}

TEST(Profile, EverySingleBitFlipIsDetected) {
  const DeviceModel m = sample_model();
  const std::vector<std::uint8_t> bytes = encode_profile(m);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> corrupt = bytes;
      corrupt[i] ^= static_cast<std::uint8_t>(1U << bit);
      EXPECT_THROW((void)decode_profile(corrupt), ProfileError)
          << "bit " << bit << " of byte " << i << " flipped undetected";
    }
  }
}

TEST(Profile, SaveLoadRoundTrip) {
  const std::filesystem::path dir = temp_dir("roundtrip");
  const std::string path = (dir / "profile.etcp").string();
  const DeviceModel m = sample_model();
  save_profile(path, m);
  const std::optional<DeviceModel> loaded = load_profile(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, m);
  // No stale temp file left behind by the atomic-rename protocol.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_FALSE(load_profile((dir / "missing.etcp").string()).has_value());
  std::filesystem::remove_all(dir);
}

TEST(Profile, CorruptOrTruncatedFileIsRejected) {
  const std::filesystem::path dir = temp_dir("corrupt");
  const std::string path = (dir / "profile.etcp").string();
  const std::vector<std::uint8_t> bytes = encode_profile(sample_model());

  // Truncated at a few representative points (header, mid-payload, end-1).
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{8}, std::size_t{23}, bytes.size() / 2,
        bytes.size() - 1}) {
    write_bytes(path,
                std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + len));
    EXPECT_FALSE(load_profile(path).has_value()) << "len=" << len;
  }
  // One flipped payload byte.
  std::vector<std::uint8_t> flipped = bytes;
  flipped[flipped.size() - 1] ^= 0x10;
  write_bytes(path, flipped);
  EXPECT_FALSE(load_profile(path).has_value());
  // Garbage that never was a profile.
  write_bytes(path, std::vector<std::uint8_t>(64, 0xAB));
  EXPECT_FALSE(load_profile(path).has_value());
  std::filesystem::remove_all(dir);
}

// The acceptance path: a corrupt cached profile must be silently
// re-measured and re-cached, never trusted and never fatal.
TEST(Profile, LoadOrCalibrateRecalibratesOnCorruption) {
  const std::filesystem::path dir = temp_dir("recalibrate");
  const std::string path = (dir / "profile.etcp").string();

  CalibrationOptions options = quick_calibration();
  options.min_sample_seconds = 5e-4;
  options.thread_counts = {1, 2};
  options.io_small_elems = 4096;
  options.io_large_elems = 32768;
  options.scratch_dir = (dir / "scratch").string();

  // Corrupt "cache": valid encoding with one flipped bit, on disk.
  std::vector<std::uint8_t> corrupt = encode_profile(sample_model());
  corrupt[corrupt.size() / 2] ^= 0x01;
  write_bytes(path, corrupt);

  bool was_cached = true;
  const DeviceModel fresh = load_or_calibrate(path, options, &was_cached);
  EXPECT_FALSE(was_cached);  // the corrupt profile must not be served
  EXPECT_TRUE(fresh.valid());

  // The re-measured model was re-cached and now round-trips.
  const std::optional<DeviceModel> reloaded = load_profile(path);
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(*reloaded, fresh);

  bool second_cached = false;
  const DeviceModel cached = load_or_calibrate(path, options, &second_cached);
  EXPECT_TRUE(second_cached);
  EXPECT_EQ(cached, fresh);
  std::filesystem::remove_all(dir);
}

TEST(ChainCosts, AggregatesAndValidity) {
  const ChainCosts costs = golden_costs();
  EXPECT_TRUE(costs.valid());
  EXPECT_EQ(costs.num_steps(), 3);
  EXPECT_DOUBLE_EQ(costs.sweep_us(), 7.0);
  EXPECT_DOUBLE_EQ(costs.backward_total_us(), 7.0);
  EXPECT_DOUBLE_EQ(costs.ideal_step_us(), 14.0);
  EXPECT_DOUBLE_EQ(costs.mean_forward_us(), 7.0 / 3.0);
  EXPECT_DOUBLE_EQ(costs.backward_ratio(), 1.0);
  EXPECT_DOUBLE_EQ(costs.mean_boundary_bytes(), 1024.0);
  EXPECT_DOUBLE_EQ(costs.max_boundary_bytes(), 1024.0);

  ChainCosts bad = golden_costs();
  bad.boundary_bytes.push_back(1.0);  // l-1 boundaries required
  EXPECT_FALSE(bad.valid());
  bad = golden_costs();
  bad.forward_us[1] = 0.0;
  EXPECT_FALSE(bad.valid());
  EXPECT_FALSE(ChainCosts{}.valid());
}

TEST(MeasureChain, ProducesConsistentCosts) {
  std::mt19937 rng(11);
  nn::LayerChain chain = models::build_conv_chain(3, 8, rng);
  const Tensor x = Tensor::randn(Shape{1, 8, 8, 8}, rng);

  MeasureOptions options;
  options.min_sample_seconds = 2e-4;
  options.repeats = 1;
  const ChainCosts costs = measure_chain(chain, x, options);

  ASSERT_TRUE(costs.valid());
  EXPECT_EQ(costs.num_steps(), chain.size());
  // Boundary bytes must match the chain's own shape inference exactly.
  const std::vector<Shape> shapes = chain.shapes(x.shape());
  for (int j = 1; j < chain.size(); ++j) {
    EXPECT_DOUBLE_EQ(
        costs.boundary_bytes[static_cast<std::size_t>(j - 1)],
        static_cast<double>(shapes[static_cast<std::size_t>(j)].numel()) *
            sizeof(float));
  }
  EXPECT_DOUBLE_EQ(costs.input_bytes,
                   static_cast<double>(x.shape().numel()) * sizeof(float));
  // The measurement pass leaves the chain clean: gradients zeroed.
  for (const nn::ParamRef& p : chain.params()) {
    EXPECT_EQ(Tensor::max_abs_diff(*p.grad, Tensor::zeros(p.grad->shape())),
              0.0F);
  }
}

TEST(Feeders, StateUnitsAndByteBudget) {
  ChainCosts costs = golden_costs();
  costs.forward_us = {1.0, 1.0, 1.0, 1.0};
  costs.backward_us = {1.0, 1.0, 1.0, 1.0};
  costs.boundary_bytes = {4096.0, 1024.0, 2048.0};
  EXPECT_EQ(state_units(costs), (std::vector<int>{4, 1, 2}));
  // Budget in bytes, floored to whole smallest-boundary units.
  EXPECT_EQ(budget_units_for_bytes(costs, 3000.0), 2);
  EXPECT_EQ(budget_units_for_bytes(costs, 1023.0), 0);
  EXPECT_EQ(budget_units_for_bytes(costs, -1.0), 0);
}

// The measured ChainSpec must switch the planner onto the heterogeneous
// DP: plan selection and achieved_rho in measured microseconds, matching
// the HeteroSolver's golden table for costs {4, 2, 1}.
TEST(Feeders, MeasuredChainSpecDrivesHeteroPlanner) {
  const ChainCosts costs = golden_costs();
  const core::ChainSpec spec = measured_chain_spec("golden", costs, 100.0);
  EXPECT_EQ(spec.depth, 3);
  EXPECT_DOUBLE_EQ(spec.backward_ratio, 1.0);
  ASSERT_EQ(spec.step_costs.size(), 3U);

  const core::MemoryPlanner planner(spec);
  // rho(0) = 24/14, rho(1) = 16/14, rho(2) = 1.
  const core::PlanPoint loose = planner.plan_for_rho(2.0);
  EXPECT_EQ(loose.free_slots, 0);
  EXPECT_DOUBLE_EQ(loose.forward_cost_us, 17.0);
  EXPECT_DOUBLE_EQ(loose.achieved_rho, 24.0 / 14.0);

  const core::PlanPoint mid = planner.plan_for_rho(1.2);
  EXPECT_EQ(mid.free_slots, 1);
  EXPECT_DOUBLE_EQ(mid.forward_cost_us, 9.0);
  EXPECT_DOUBLE_EQ(mid.achieved_rho, 16.0 / 14.0);

  const core::PlanPoint tight = planner.plan_for_rho(1.0);
  EXPECT_EQ(tight.free_slots, 2);
  EXPECT_DOUBLE_EQ(tight.forward_cost_us, 7.0);
  EXPECT_DOUBLE_EQ(tight.achieved_rho, 1.0);

  EXPECT_THROW((void)measured_chain_spec("bad", ChainCosts{}, 0.0),
               std::invalid_argument);
}

TEST(Feeders, PricedDiskOptionsUseMeasuredSpillPath) {
  const DeviceModel m = sample_model();
  const ChainCosts costs = golden_costs();
  core::disk::DiskRevolveOptions base;
  base.ram_slots = 3;
  base.spill_bytes_ratio = 0.5;
  const core::disk::DiskRevolveOptions priced =
      priced_disk_options(costs, m, base);
  // Plaintext spill time of the mean boundary over the mean forward step;
  // the DP applies spill_bytes_ratio itself.
  const double mean_fwd_us = 7.0 / 3.0;
  EXPECT_DOUBLE_EQ(priced.write_cost,
                   (900.0 + 1024.0 / 50e6 * 1e6) / mean_fwd_us);
  EXPECT_DOUBLE_EQ(priced.read_cost,
                   (400.0 + 1024.0 / 80e6 * 1e6) / mean_fwd_us);
  // Untouched pass-through of the caller's structural options.
  EXPECT_EQ(priced.ram_slots, 3);
  EXPECT_DOUBLE_EQ(priced.spill_bytes_ratio, 0.5);
}

// The static-ratio blind spot, closed: measured per-slot ratios read off a
// live store must thread verbatim into all three planner inputs -- the
// ChainSpec, the calibrated DiskRevolveOptions, and the interpreter's
// CostModel -- with out-of-range measurements clamped into (0, 1].
TEST(Feeders, MeasuredSlotRatiosThreadThroughEveryPlannerInput) {
  class StepRatioStore : public core::SlotStore {
   public:
    explicit StepRatioStore(int num_slots) : inner_(num_slots) {}
    void put(std::int32_t slot, const Tensor& value) override {
      inner_.put(slot, value);
    }
    [[nodiscard]] Tensor get(std::int32_t slot) override {
      return inner_.get(slot);
    }
    void drop(std::int32_t slot) override { inner_.drop(slot); }
    [[nodiscard]] std::size_t resident_bytes() const override {
      return inner_.resident_bytes();
    }
    [[nodiscard]] std::size_t external_bytes() const override { return 0; }
    [[nodiscard]] double measured_slot_ratio(
        std::int32_t slot) const override {
      // Slot 3 reports a bogus >1 "ratio" (e.g. codec overhead on a tiny
      // payload) that the feeder must clamp.
      return slot == 3 ? 7.5 : static_cast<double>(slot) / 10.0;
    }

   private:
    core::TieredSlotStore inner_;
  };
  const StepRatioStore store(5);
  const std::vector<double> ratios = measured_slot_ratios(store, 1, 3);
  ASSERT_EQ(ratios.size(), 3U);
  EXPECT_DOUBLE_EQ(ratios[0], 0.1);
  EXPECT_DOUBLE_EQ(ratios[1], 0.2);
  EXPECT_DOUBLE_EQ(ratios[2], 1.0);  // clamped

  const ChainCosts costs = golden_costs();
  const core::ChainSpec spec =
      measured_chain_spec("golden", costs, 100.0, ratios, 0.5);
  EXPECT_EQ(spec.checkpoint_slot_ratios, ratios);
  EXPECT_DOUBLE_EQ(spec.checkpoint_bytes_ratio, 0.5);
  EXPECT_EQ(spec.step_costs, costs.forward_us);

  const DeviceModel m = sample_model();
  core::disk::DiskRevolveOptions base;
  base.ram_slots = 2;
  const core::disk::DiskRevolveOptions priced =
      priced_disk_options(costs, m, base, ratios);
  EXPECT_EQ(priced.spill_slot_ratios, ratios);
  // IO weights stay the plaintext spill times; the DP applies the
  // per-slot ratios itself.
  const double mean_fwd_us = 7.0 / 3.0;
  EXPECT_DOUBLE_EQ(priced.write_cost, m.disk_write_us(1024.0) / mean_fwd_us);
  EXPECT_DOUBLE_EQ(priced.read_cost, m.disk_read_us(1024.0) / mean_fwd_us);

  const analysis::CostModel cm = cost_model(costs, m, 2, ratios);
  EXPECT_EQ(cm.slot_bytes_ratios, ratios);
  EXPECT_EQ(cm.first_disk_slot, 2);
  EXPECT_EQ(cm.step_costs, costs.forward_us);
}

TEST(Feeders, CostModelPredictsScheduleMicroseconds) {
  const DeviceModel m = sample_model();
  const ChainCosts costs = golden_costs();
  const analysis::CostModel cm = cost_model(costs, m, 2);
  EXPECT_EQ(cm.step_costs, costs.forward_us);
  EXPECT_EQ(cm.first_disk_slot, 2);
  EXPECT_DOUBLE_EQ(cm.disk_write_cost, m.disk_write_us(1024.0));
  EXPECT_DOUBLE_EQ(cm.disk_read_cost, m.disk_read_us(1024.0));

  // Full storage: the interpreter charges the advances (span(0,2) = 6 us;
  // the per-backward re-materialisation saves are absorbed into Backward)
  // plus the full backward sweep.
  const core::hetero::HeteroSolver solver(costs.forward_us, 2);
  const analysis::Report report =
      analysis::interpret(solver.make_schedule(2), cost_model(costs, m));
  EXPECT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report.facts.forward_cost, solver.advance_cost(2));
  EXPECT_DOUBLE_EQ(report.facts.forward_cost, 6.0);
  EXPECT_DOUBLE_EQ(report.facts.backward_cost, 7.0);
  EXPECT_EQ(report.facts.absorbed_saves, 3);
  EXPECT_DOUBLE_EQ(report.facts.total_cost(), 13.0);
}

// The payoff property the tentpole rests on: under the measured cost
// model, the measured-cost schedule is never predicted costlier than the
// unit-cost Revolve schedule at the same slot budget (the hetero DP is
// optimal over all s-slot schedules; unit Revolve emits one of them).
TEST(Property, MeasuredScheduleNeverPredictedCostlier) {
  std::mt19937 rng(404);
  std::uniform_real_distribution<double> cost_dist(0.5, 50.0);
  for (int trial = 0; trial < 12; ++trial) {
    const int l = 4 + trial;
    std::vector<double> step_costs;
    step_costs.reserve(static_cast<std::size_t>(l));
    for (int i = 0; i < l; ++i) step_costs.push_back(cost_dist(rng));

    analysis::CostModel cm;
    cm.step_costs = step_costs;
    for (int s = 1; s <= 3; ++s) {
      const core::hetero::HeteroSolver solver(step_costs, s);
      const analysis::Report measured =
          analysis::interpret(solver.make_schedule(s), cm);
      const analysis::Report unit =
          analysis::interpret(core::revolve::make_schedule(l, s), cm);
      ASSERT_TRUE(measured.ok()) << "l=" << l << " s=" << s;
      ASSERT_TRUE(unit.ok()) << "l=" << l << " s=" << s;
      // The emitted schedule realises the DP's own advance-cost table.
      EXPECT_NEAR(measured.facts.forward_cost, solver.advance_cost(s),
                  1e-9 * solver.advance_cost(s) + 1e-12)
          << "l=" << l << " s=" << s;
      EXPECT_LE(measured.facts.total_cost(),
                unit.facts.total_cost() * (1.0 + 1e-9))
          << "l=" << l << " s=" << s;
    }
  }
}

// A measured-cost schedule must execute to the bit-identical gradients of
// the unit-cost schedule it replaces (same checkpointing semantics, only
// the split points move).
TEST(Executor, MeasuredScheduleGradsBitIdentical) {
  std::mt19937 rng(77);
  nn::LayerChain chain = models::build_pyramid_chain(2, 2, 8, rng);
  const Tensor x = Tensor::randn(Shape{1, 8, 16, 16}, rng);
  const int depth = chain.size();
  const core::LossGradFn seed = [](const Tensor& output) {
    return Tensor::full(output.shape(), 1.0F);
  };

  auto run_with = [&](const core::Schedule& schedule) {
    chain.zero_grad();
    chain.clear_saved();
    core::TieredSlotStore store(schedule.num_slots());
    nn::LayerChainRunner runner(chain, nn::Phase::Train);
    runner.begin_pass();
    core::ScheduleExecutor executor;
    (void)executor.run(runner, schedule, x, seed, store);
    std::vector<Tensor> grads;
    for (const nn::ParamRef& p : chain.params()) {
      grads.push_back(p.grad->clone());
    }
    return grads;
  };

  // Steep synthetic imbalance so the hetero split points actually differ.
  std::vector<double> step_costs;
  for (int i = 0; i < depth; ++i) {
    step_costs.push_back(static_cast<double>(depth - i));
  }
  const core::hetero::HeteroSolver solver(step_costs, 1);
  const std::vector<Tensor> measured_grads =
      run_with(solver.make_schedule(1));
  const std::vector<Tensor> unit_grads =
      run_with(core::revolve::make_schedule(depth, 1));

  ASSERT_EQ(measured_grads.size(), unit_grads.size());
  for (std::size_t i = 0; i < unit_grads.size(); ++i) {
    EXPECT_EQ(Tensor::max_abs_diff(measured_grads[i], unit_grads[i]), 0.0F)
        << "param " << i;
  }
}

}  // namespace
}  // namespace edgetrain::calib

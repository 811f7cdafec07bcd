// Long-running calibration tests (label: slow). These run the real probes
// at realistic sample lengths: a full calibrate() of this machine, and the
// end-to-end measured-vs-unit planning comparison on the pyramid chain
// that bench_calib quantifies -- here asserted on predicted cost and
// gradient identity (wall-clock is the bench's job; CI machines are too
// noisy for a timing assertion in a correctness gate).
#include <gtest/gtest.h>

#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "analysis/interp.hpp"
#include "calib/calibrate.hpp"
#include "calib/chain_costs.hpp"
#include "core/dynprog.hpp"
#include "core/executor.hpp"
#include "core/revolve.hpp"
#include "core/tiered_slot_store.hpp"
#include "models/resnet.hpp"
#include "models/small_nets.hpp"
#include "nn/chain_runner.hpp"

namespace edgetrain::calib {
namespace {

TEST(CalibrateSlow, FitsThisMachine) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "edgetrain_calib_slow";
  std::filesystem::remove_all(dir);

  CalibrationOptions options;
  options.min_sample_seconds = 0.01;  // bounded but realistic samples
  options.repeats = 2;
  options.scratch_dir = (dir / "scratch").string();
  const DeviceModel model = calibrate(options);

  ASSERT_TRUE(model.valid());
  // One point per requested thread count, ascending, ending at
  // hardware_concurrency (the default sweep's last entry).
  ASSERT_FALSE(model.points.empty());
  for (std::size_t i = 1; i < model.points.size(); ++i) {
    EXPECT_GT(model.points[i].threads, model.points[i - 1].threads);
  }
  EXPECT_GE(model.best_threads(), 1);
  EXPECT_GT(model.memcpy_bytes_per_sec, 0.0);
  EXPECT_GT(model.disk_write_bytes_per_sec, 0.0);

  // Cache round-trip through load_or_calibrate.
  const std::string path = (dir / "profile.etcp").string();
  save_profile(path, model);
  bool was_cached = false;
  const DeviceModel reloaded = load_or_calibrate(path, options, &was_cached);
  EXPECT_TRUE(was_cached);
  EXPECT_EQ(reloaded, model);
  std::filesystem::remove_all(dir);

  // The fitted model prices an analytic ResNet chain without building it.
  const ChainCosts predicted = predict_resnet(
      models::ResNetSpec::make(models::ResNetVariant::ResNet18), 64, 1, model,
      model.best_threads());
  EXPECT_TRUE(predicted.valid());
}

TEST(CalibrateSlow, MeasuredPlanBeatsUnitOnPyramid) {
  std::mt19937 rng(2026);
  nn::LayerChain chain = models::build_pyramid_chain(3, 3, 16, rng);
  const Tensor x = Tensor::randn(Shape{1, 16, 32, 32}, rng);
  const int depth = chain.size();
  constexpr int kFreeSlots = 2;

  MeasureOptions options;
  options.min_sample_seconds = 0.002;
  options.repeats = 2;
  const ChainCosts costs = measure_chain(chain, x, options);
  ASSERT_TRUE(costs.valid());
  // The pyramid's early stage runs at full resolution: the measurement
  // must see the imbalance (first step well above the last).
  EXPECT_GT(costs.forward_us.front(), 2.0 * costs.forward_us.back());

  const core::hetero::HeteroSolver solver(costs.forward_us, kFreeSlots);
  const core::Schedule measured_schedule = solver.make_schedule(kFreeSlots);
  const core::Schedule unit_schedule =
      core::revolve::make_schedule(depth, kFreeSlots);

  analysis::CostModel cm;
  cm.step_costs = costs.forward_us;
  const analysis::Report measured = analysis::interpret(measured_schedule, cm);
  const analysis::Report unit = analysis::interpret(unit_schedule, cm);
  ASSERT_TRUE(measured.ok());
  ASSERT_TRUE(unit.ok());
  // Strict: on a 4x-per-stage pyramid the unit-cost splits are genuinely
  // wrong, not merely tied.
  EXPECT_LT(measured.facts.total_cost(), unit.facts.total_cost());

  // And the better-planned schedule computes the same gradients, bit for
  // bit.
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
  const std::vector<Tensor> unit_grads = run_with(unit_schedule);
  const std::vector<Tensor> measured_grads = run_with(measured_schedule);
  ASSERT_EQ(unit_grads.size(), measured_grads.size());
  for (std::size_t i = 0; i < unit_grads.size(); ++i) {
    EXPECT_EQ(Tensor::max_abs_diff(unit_grads[i], measured_grads[i]), 0.0F)
        << "param " << i;
  }
}

}  // namespace
}  // namespace edgetrain::calib

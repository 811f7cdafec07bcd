// Measured-cost planning payoff bench (ablation E17).
//
// The claim under test: on a cost-imbalanced chain, a schedule planned
// against *measured* per-step costs beats the classic unit-cost Revolve
// schedule in real wall-clock at the same checkpoint-slot budget, with
// bit-identical gradients. The workload is build_pyramid_chain: conv
// stages whose per-step forward cost drops ~4x at each stride-2 stage
// boundary, so unit-cost Revolve -- blind to the imbalance -- re-executes
// the expensive early steps, while the heterogeneous DP fed by
// calib::measure_chain shifts the recomputation into the cheap tail.
//
// The bench also exercises the calibration cache end to end: the device
// profile is fitted, written through the atomic-rename path, and read back
// (first run measures, second run must hit the cache).
//
// Flags: --quick  tiny iteration budget for CI smoke runs (numbers are
//                 noisier; the JSON is still only written by Release
//                 builds, so a smoke run on a Debug build writes nothing).
//
// Release builds write BENCH_calib.json: the fitted model, the measured
// per-step costs, both schedules' predicted cost (under the measured
// model) and real wall-clock, and the speedup.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "analysis/interp.hpp"
#include "bench_json.hpp"
#include "calib/calibrate.hpp"
#include "calib/chain_costs.hpp"
#include "core/dynprog.hpp"
#include "core/executor.hpp"
#include "core/revolve.hpp"
#include "core/tiered_slot_store.hpp"
#include "models/small_nets.hpp"
#include "nn/chain_runner.hpp"

int main(int argc, char** argv) {
  using namespace edgetrain;
  using Clock = std::chrono::steady_clock;

  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  constexpr int kStages = 4;
  constexpr int kStepsPerStage = 4;
  constexpr std::int64_t kChannels = 24;
  constexpr std::int64_t kBatch = 2;
  constexpr std::int64_t kSide = 48;
  constexpr int kFreeSlots = 2;
  const int repeats = quick ? 3 : 7;
  const int depth = kStages * kStepsPerStage;

  // --- device profile: fit, cache, re-load ---------------------------------
  const std::string profile_dir = "/tmp/edgetrain_bench_calib";
  const std::string profile_path = profile_dir + "/device_profile.etcp";
  std::filesystem::remove_all(profile_dir);
  calib::CalibrationOptions cal_options =
      quick ? calib::quick_calibration() : calib::CalibrationOptions{};
  cal_options.scratch_dir = profile_dir + "/scratch";

  bool first_cached = true;
  bool second_cached = false;
  const calib::DeviceModel model =
      calib::load_or_calibrate(profile_path, cal_options, &first_cached);
  const calib::DeviceModel reloaded =
      calib::load_or_calibrate(profile_path, cal_options, &second_cached);
  if (first_cached || !second_cached || !(reloaded == model)) {
    std::printf("FAIL: profile cache did not round-trip\n");
    return 1;
  }

  // --- measure the chain ---------------------------------------------------
  std::mt19937 rng(2026);
  nn::LayerChain chain =
      models::build_pyramid_chain(kStages, kStepsPerStage, kChannels, rng);
  Tensor x = Tensor::randn(Shape{kBatch, kChannels, kSide, kSide}, rng);

  calib::MeasureOptions measure_options;
  measure_options.min_sample_seconds = quick ? 0.002 : 0.01;
  measure_options.repeats = quick ? 2 : 3;
  const calib::ChainCosts costs = measure_chain(chain, x, measure_options);
  if (!costs.valid()) {
    std::printf("FAIL: chain measurement produced an invalid ChainCosts\n");
    return 1;
  }

  // --- plan both schedules at the same slot budget -------------------------
  const core::Schedule unit_schedule =
      core::revolve::make_schedule(depth, kFreeSlots);
  const core::hetero::HeteroSolver solver(costs.forward_us, kFreeSlots);
  const core::Schedule measured_schedule = solver.make_schedule(kFreeSlots);

  const analysis::CostModel cost_model = calib::cost_model(costs, model);
  const double unit_predicted_us =
      analysis::interpret(unit_schedule, cost_model).facts.total_cost();
  const double measured_predicted_us =
      analysis::interpret(measured_schedule, cost_model).facts.total_cost();

  // --- execute both, timed, gradients compared -----------------------------
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
  auto timed = [&](const core::Schedule& schedule) {
    double best_s = 1e30;
    for (int repeat = 0; repeat < repeats; ++repeat) {
      const auto t0 = Clock::now();
      (void)run_with(schedule);
      best_s = std::min(
          best_s, std::chrono::duration<double>(Clock::now() - t0).count());
    }
    return best_s;
  };

  const std::vector<Tensor> unit_grads = run_with(unit_schedule);
  const std::vector<Tensor> measured_grads = run_with(measured_schedule);
  float grad_err = 0.0F;
  for (std::size_t i = 0; i < unit_grads.size(); ++i) {
    grad_err = std::max(
        grad_err, Tensor::max_abs_diff(unit_grads[i], measured_grads[i]));
  }

  (void)run_with(unit_schedule);  // warm allocators and the thread pool
  const double unit_s = timed(unit_schedule);
  const double measured_s = timed(measured_schedule);
  const double speedup = unit_s / measured_s;

  // --- report --------------------------------------------------------------
  std::printf("Measured-cost planning vs unit-cost Revolve "
              "(pyramid chain: %d stages x %d steps, %lld ch, %d free "
              "slots)\n\n",
              kStages, kStepsPerStage,
              static_cast<long long>(kChannels), kFreeSlots);
  std::printf("per-step forward us:");
  for (const double us : costs.forward_us) std::printf(" %.0f", us);
  std::printf("\nbackward/forward ratio: %.2f\n\n", costs.backward_ratio());
  std::printf("%-10s %-16s %-14s\n", "schedule", "predicted us", "wall ms");
  std::printf("%-10s %-16.0f %-14.2f\n", "unit", unit_predicted_us,
              unit_s * 1e3);
  std::printf("%-10s %-16.0f %-14.2f\n", "measured", measured_predicted_us,
              measured_s * 1e3);
  std::printf("\nspeedup: %.3fx   grad err: %.1e\n", speedup,
              static_cast<double>(grad_err));

  if (grad_err != 0.0F) {
    std::printf("FAIL: schedules must give bit-identical gradients\n");
    return 1;
  }
  if (measured_predicted_us > unit_predicted_us) {
    std::printf("FAIL: measured-cost schedule predicted costlier than "
                "unit-cost under the measured model\n");
    return 1;
  }
  if (measured_s >= unit_s) {
    std::printf("FAIL: measured-cost schedule did not beat unit-cost "
                "wall-clock\n");
    return 1;
  }

  if (auto report =
          bench::BenchReport::create("bench_calib", "BENCH_calib.json")) {
    bench::JsonWriter& json = report->json();
    json.field("quick", quick);
    report->end_context();
    json.key("device_model").begin_object();
    json.key("thread_points").begin_array();
    for (const calib::ThreadPoint& p : model.points) {
      json.begin_object()
          .field("threads", p.threads)
          .field("gemm_gflops", p.gemm_gflops, "%.3f")
          .field("conv_gflops", p.conv_gflops, "%.3f")
          .end_object();
    }
    json.end_array();
    json.field("memcpy_gb_per_sec", model.memcpy_bytes_per_sec * 1e-9,
               "%.3f");
    json.field("disk_write_mb_per_sec",
               model.disk_write_bytes_per_sec * 1e-6, "%.3f");
    json.field("disk_read_mb_per_sec", model.disk_read_bytes_per_sec * 1e-6,
               "%.3f");
    json.field("disk_write_latency_us", model.disk_write_latency_us, "%.1f");
    json.field("disk_read_latency_us", model.disk_read_latency_us, "%.1f");
    json.field("profile_cache_hit_on_reload", second_cached);
    json.end_object();

    json.key("chain").begin_object();
    json.field("stages", kStages)
        .field("steps_per_stage", kStepsPerStage)
        .field("channels", static_cast<long long>(kChannels))
        .field("free_slots", kFreeSlots);
    json.key("step_forward_us").begin_array();
    for (const double us : costs.forward_us) json.value(us, "%.2f");
    json.end_array();
    json.field("backward_ratio", costs.backward_ratio(), "%.3f");
    json.end_object();

    json.key("schedules").begin_object();
    json.key("unit").begin_object();
    json.field("predicted_us", unit_predicted_us, "%.1f")
        .field("wall_ms", unit_s * 1e3, "%.4f")
        .end_object();
    json.key("measured").begin_object();
    json.field("predicted_us", measured_predicted_us, "%.1f")
        .field("wall_ms", measured_s * 1e3, "%.4f")
        .end_object();
    json.end_object();

    json.field("speedup", speedup, "%.4f");
    json.field("grad_max_abs_diff", static_cast<double>(grad_err), "%.1e");
    report->close();
  }
  return 0;
}

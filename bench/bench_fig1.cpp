// Reproduces Figure 1: "Peak memory requirement vs recompute factor" for
// LinearResNet_x, x in {18,34,50,101,152}, four panels:
//   (a) batch 1, image 224      (b) batch 8, image 224
//   (c) batch 1, image 500      (d) batch 8, image 500
// For each rho on a grid, the minimal number of Revolve checkpoint slots
// whose schedule stays within the 2*rho*l work budget is found (binary
// search over the DP cost table via the planner), and the resulting peak
// memory fixed + (s+1)*k*M_A is printed. The 2 GB Waggle line marks
// feasibility; the "fits 2GB at rho" row gives each curve's crossing point.
//
// Flags: --hetero  additionally solve the *heterogeneous* block-level chain
//                  of each real ResNet (stem/blocks/head with true per-step
//                  costs) and report its rho at the same memory, validating
//                  the homogenised LinearResNet model.
//        --compress  add the slot-codec axis: re-solve the hardest panel's
//                  peak-vs-rho curves per codec (none/lossless/fp16/bitmap/
//                  bitmap-fp16), report the 2 GB crossing per codec, and time
//                  a real checkpointed pass through the sync and async disk
//                  stores with each codec under EDGETRAIN_DISK_LATENCY_US
//                  injected spill latency. Also sweeps the sparse bitmap
//                  codec's achieved ratio vs activation density and re-solves
//                  the 2 GB crossings with *measured* per-slot bitmap ratios
//                  (the dynamic-ratio planner path) against fp16's static
//                  0.5. Release builds write BENCH_compress.json and
//                  BENCH_sparse.json.
//        --quick   CI smoke: shrink the density sweep and the wall-clock
//                  repeat counts; every section still runs end to end.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/disk_revolve.hpp"
#include "core/dynprog.hpp"
#include "core/executor.hpp"
#include "core/planner.hpp"
#include "core/slot_codec.hpp"
#include "core/tiered_slot_store.hpp"
#include "models/linear_resnet.hpp"
#include "models/memory_model.hpp"
#include "models/small_nets.hpp"
#include "nn/chain_runner.hpp"
#include "persist/io_latency.hpp"
#include "sync_disk_store.hpp"
#include "tensor/ops.hpp"

namespace {

using namespace edgetrain;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kLimit = models::kWaggleMemoryBytes;

struct Panel {
  const char* name;
  std::int64_t batch;
  int image;
};

void run_panel(const Panel& panel,
               const std::vector<models::ResNetMemoryModel>& memory_models) {
  std::printf("--- Figure 1%s: batch %lld, image %d ---\n", panel.name,
              static_cast<long long>(panel.batch), panel.image);
  std::printf("%-6s", "rho");
  std::vector<core::MemoryPlanner> planners;
  planners.reserve(memory_models.size());
  for (const auto& mm : memory_models) {
    const models::LinearResNet linear =
        models::LinearResNet::from_resnet(mm, panel.image, panel.batch);
    std::printf(" %12s", linear.name.c_str());
    planners.emplace_back(linear.to_chain_spec());
  }
  std::printf("   (peak memory, MB)\n");

  for (double rho = 1.0; rho <= 3.001; rho += 0.1) {
    std::printf("%-6.2f", rho);
    for (const auto& planner : planners) {
      const core::PlanPoint point = planner.plan_for_rho(rho);
      const char marker = point.peak_bytes > kLimit ? '*' : ' ';
      std::printf(" %11.1f%c", point.peak_bytes / kMiB, marker);
    }
    std::printf("\n");
  }

  std::printf("%-6s", "fits@");
  for (const auto& planner : planners) {
    const core::PlanReport report = planner.report_for_device(kLimit);
    if (!report.fits_with_checkpointing) {
      std::printf(" %12s", "never");
    } else if (report.fits_without_checkpointing) {
      std::printf(" %12s", "rho=1");
    } else {
      std::printf("    rho=%5.2f", report.min_rho_to_fit);
    }
  }
  std::printf("   (smallest rho fitting 2 GB)\n\n");
}

void run_hetero(const Panel& panel) {
  std::printf("--- heterogeneous block-level chains (%s) ---\n", panel.name);
  std::printf("%-10s %-10s %-14s %-14s %-14s %-12s\n", "model", "steps",
              "rho@mem(hom)", "rho(hetero)", "rho(bytes)", "mem MB");
  for (const models::ResNetVariant v : models::all_resnet_variants()) {
    const models::ResNetSpec spec = models::ResNetSpec::make(v);
    const models::ResNetMemoryModel mm(spec);
    // Homogenised plan at rho budget 1.5.
    const models::LinearResNet linear =
        models::LinearResNet::from_resnet(mm, panel.image, panel.batch);
    const core::MemoryPlanner planner(linear.to_chain_spec());
    const core::PlanPoint plan = planner.plan_for_rho(1.5);

    // Heterogeneous block chain with true per-step forward costs.
    const std::vector<double> costs =
        spec.chain_step_forward_costs(panel.image, panel.batch);
    const int l = static_cast<int>(costs.size());
    const core::hetero::HeteroSolver solver(costs, l - 1);
    const auto act_per_block =
        spec.chain_step_activation_elems(panel.image, panel.batch);

    // Boundary i is the output of chain step i-1; approximate its bytes as
    // that block's activation total over its op count (~one tensor of ~4).
    std::vector<double> boundary_bytes;
    double max_boundary = 0.0;
    double min_boundary = 1e300;
    for (int i = 1; i < l; ++i) {
      // elems / ~4 ops per block * 4 bytes per element == elems, numerically.
      const double bytes =
          static_cast<double>(act_per_block[static_cast<std::size_t>(i - 1)]);
      boundary_bytes.push_back(bytes);
      max_boundary = std::max(max_boundary, bytes);
      min_boundary = std::min(min_boundary, bytes);
    }
    const double act_budget = plan.peak_bytes - linear.fixed_bytes;

    // Uniform slots must be provisioned for the worst-case boundary.
    const int block_slots = std::clamp(
        static_cast<int>(act_budget / max_boundary) - 1, 0, l - 1);
    const double hetero_rho = solver.recompute_factor(block_slots);

    // Byte-budget DP spends the same bytes against the true sizes.
    std::vector<int> state_units;
    for (const double bytes : boundary_bytes) {
      state_units.push_back(
          std::max(1, static_cast<int>(bytes / min_boundary + 0.5)));
    }
    const int unit_budget = std::max(
        0, static_cast<int>(act_budget / min_boundary) -
               static_cast<int>(max_boundary / min_boundary));
    double byte_rho = hetero_rho;
    if (static_cast<std::size_t>(l + 1) * (l + 1) * (unit_budget + 1) <
        (96ULL << 20)) {
      const core::hetero::ByteBudgetSolver byte_solver(costs, state_units,
                                                       unit_budget);
      byte_rho = byte_solver.recompute_factor();
    }
    std::printf("%-10s %-10d %-14.3f %-14.3f %-14.3f %-12.1f\n",
                spec.name().c_str(), l, plan.achieved_rho, hetero_rho,
                byte_rho, plan.peak_bytes / kMiB);
  }
  std::printf("\n");
}

// --- the slot-codec axis (--compress) --------------------------------------

struct CurvePoint {
  double rho;
  double peak_mb;
};

struct CodecCurve {
  std::string model;
  core::SlotCodec codec;
  double planning_ratio;
  double min_rho_fit_2gb;  // +inf when it never fits
  std::vector<CurvePoint> points;
};

struct CodecTiming {
  core::SlotCodec codec;
  double sync_ms;
  double async_ms;
  double measured_ratio;
  float grad_err;  // max |diff| / max |reference|, vs the RAM-store run
};

constexpr core::SlotCodec kCodecs[] = {
    core::SlotCodec::None, core::SlotCodec::Lossless, core::SlotCodec::Fp16,
    core::SlotCodec::Bitmap, core::SlotCodec::BitmapFp16};

/// Re-solves the hardest panel (batch 8, image 500) per codec: the planner
/// charges resting checkpoints at planning_bytes_ratio(codec), so the same
/// 2 GB cap affords more slots and a provably lower recompute factor.
std::vector<CodecCurve> compress_curves() {
  std::vector<CodecCurve> curves;
  for (const models::ResNetVariant v :
       {models::ResNetVariant::ResNet50, models::ResNetVariant::ResNet101,
        models::ResNetVariant::ResNet152}) {
    const models::ResNetMemoryModel mm(models::ResNetSpec::make(v));
    const models::LinearResNet linear =
        models::LinearResNet::from_resnet(mm, 500, 8);
    for (const core::SlotCodec codec : kCodecs) {
      CodecCurve curve;
      curve.model = linear.name;
      curve.codec = codec;
      curve.planning_ratio = core::planning_bytes_ratio(codec);
      const core::MemoryPlanner planner(
          linear.to_chain_spec(curve.planning_ratio));
      for (double rho = 1.0; rho <= 3.001; rho += 0.25) {
        const core::PlanPoint point = planner.plan_for_rho(rho);
        curve.points.push_back({rho, point.peak_bytes / kMiB});
      }
      const core::PlanReport report = planner.report_for_device(kLimit);
      curve.min_rho_fit_2gb = report.fits_with_checkpointing
                                  ? report.min_rho_to_fit
                                  : std::numeric_limits<double>::infinity();
      curves.push_back(std::move(curve));
    }
  }
  return curves;
}

/// One checkpointed training pass per codec through the synchronous and
/// asynchronous disk stores, spill latency injected per IO op.
std::vector<CodecTiming> compress_wallclock(long latency_us, bool quick) {
  using Clock = std::chrono::steady_clock;
  constexpr int kRamSlots = 3;
  const int kRepeats = quick ? 1 : 5;

  // A real mini-ResNet (conv/bn/relu): its checkpointed boundary
  // activations are post-ReLU and zero-heavy, the regime the lossless
  // byte-plane RLE is built for. A plain conv stack would spill dense
  // random floats and show ratio ~1 -- true, but not the deployed case.
  std::mt19937 rng(2026);
  nn::LayerChain chain = models::build_mini_resnet(
      /*blocks_per_stage=*/1, /*base_channels=*/16, /*num_classes=*/4,
      /*in_channels=*/1, rng);
  const int depth = chain.size();
  Tensor x = Tensor::randn(Shape{4, 1, 16, 16}, rng);
  const std::vector<std::int32_t> labels{0, 2, 1, 3};
  const core::LossGradFn seed = [&](const Tensor& logits) {
    const ops::SoftmaxXentResult r = ops::softmax_xent_forward(logits, labels);
    return ops::softmax_xent_backward(r.probs, labels);
  };
  const std::string dir = "/tmp/edgetrain_bench_compress";
  std::filesystem::create_directories(dir);

  auto run_with = [&](const core::Schedule& schedule, core::SlotStore& store) {
    chain.zero_grad();
    chain.clear_saved();
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
  auto max_err = [](const std::vector<Tensor>& a,
                    const std::vector<Tensor>& b) {
    float err = 0.0F;
    for (std::size_t i = 0; i < a.size(); ++i) {
      err = std::max(err, Tensor::max_abs_diff(a[i], b[i]));
    }
    return err;
  };

  std::vector<CodecTiming> rows;
  for (const core::SlotCodec codec : kCodecs) {
    core::disk::DiskRevolveOptions options;
    options.ram_slots = kRamSlots;
    options.overlap_io = true;
    options.spill_bytes_ratio = core::planning_bytes_ratio(codec);
    const core::disk::DiskRevolveSolver solver(depth, options);
    const core::Schedule schedule = solver.make_schedule();
    const int first_disk_slot = kRamSlots + 1;

    // Zero-latency RAM reference for this schedule (warm allocators too).
    persist::set_disk_latency_us(0);
    core::TieredSlotStore ram(schedule.num_slots());
    (void)run_with(schedule, ram);
    const std::vector<Tensor> reference = run_with(schedule, ram);
    float ref_scale = 0.0F;
    for (const Tensor& t : reference) {
      for (std::int64_t i = 0; i < t.numel(); ++i) {
        ref_scale = std::max(ref_scale, std::abs(t.data()[i]));
      }
    }

    persist::set_disk_latency_us(latency_us);
    CodecTiming row{codec, 1e30, 1e30, 1.0, 0.0F};
    {
      bench::SyncDiskStore store(schedule.num_slots(), first_disk_slot, dir,
                                 codec);
      for (int repeat = 0; repeat < kRepeats; ++repeat) {
        const auto t0 = Clock::now();
        const std::vector<Tensor> grads = run_with(schedule, store);
        row.sync_ms = std::min(
            row.sync_ms,
            std::chrono::duration<double>(Clock::now() - t0).count() * 1e3);
        row.grad_err =
            std::max(row.grad_err, max_err(grads, reference) / ref_scale);
      }
      row.measured_ratio = store.measured_ratio();
    }
    {
      core::AsyncDiskSlotStoreOptions async_options;
      async_options.codec = codec;
      core::TieredSlotStore store(schedule.num_slots(), first_disk_slot,
                                  dir, async_options);
      for (int repeat = 0; repeat < kRepeats; ++repeat) {
        const auto t0 = Clock::now();
        const std::vector<Tensor> grads = run_with(schedule, store);
        row.async_ms = std::min(
            row.async_ms,
            std::chrono::duration<double>(Clock::now() - t0).count() * 1e3);
        row.grad_err =
            std::max(row.grad_err, max_err(grads, reference) / ref_scale);
      }
    }
    persist::set_disk_latency_us(0);
    rows.push_back(row);
  }
  return rows;
}

// --- the sparse bitmap axis (part of --compress) ---------------------------

/// Synthetic post-ReLU-like activation: `density` of the lanes carry
/// arbitrary positive magnitudes, the rest are exact +0.0f.
Tensor relu_like_activation(std::int64_t numel, double density,
                            std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<float> dist(0.0F, 1.0F);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  Tensor t = Tensor::zeros(Shape{numel});
  float* data = t.data();
  for (std::int64_t i = 0; i < numel; ++i) {
    data[i] = coin(rng) < density ? std::abs(dist(rng)) + 0.01F : 0.0F;
  }
  return t;
}

struct DensityRow {
  double density;
  double bitmap_ratio;
  double bitmap_fp16_ratio;
};

struct SparseCrossing {
  std::string model;
  double measured_ratio;   // achieved bitmap ratio at the probe density
  double rho_fp16;         // static 0.5 cast
  double rho_bitmap_plan;  // bitmap at its worst-case planning ratio (1.0)
  double rho_bitmap_meas;  // bitmap with measured per-slot ratios
};

double encoded_ratio(core::SlotCodec codec, const Tensor& act) {
  const std::vector<std::uint8_t> blob = core::codec::encode(codec, act);
  return static_cast<double>(blob.size()) /
         (static_cast<double>(act.numel()) * sizeof(float));
}

double crossing_rho(const core::MemoryPlanner& planner) {
  const core::PlanReport report = planner.report_for_device(kLimit);
  return report.fits_with_checkpointing
             ? report.min_rho_to_fit
             : std::numeric_limits<double>::infinity();
}

/// The dynamic-ratio story in numbers: what the bitmap codec actually
/// achieves as activations get denser, and what the planner's 2 GB
/// crossing becomes once it re-solves with the measured per-slot ratios
/// instead of the worst-case static bound. Returns nonzero when the
/// measured bitmap crossing fails to beat fp16 at 70% sparsity -- the
/// ISSUE's acceptance inequality, enforced here as in planner_test.
int run_sparse(bool quick) {
  const std::int64_t numel = quick ? (std::int64_t{1} << 14)
                                   : (std::int64_t{1} << 18);
  const std::vector<double> densities =
      quick ? std::vector<double>{0.0, 0.3, 0.7, 1.0}
            : std::vector<double>{0.0, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4,
                                  0.5, 0.6, 0.7, 0.8, 0.9, 1.0};

  std::printf("--- sparse bitmap codec: achieved ratio vs density "
              "(%lld elems) ---\n",
              static_cast<long long>(numel));
  std::printf("%-10s %-12s %-12s\n", "density", "bitmap", "bitmap-fp16");
  std::vector<DensityRow> rows;
  for (const double density : densities) {
    const Tensor act = relu_like_activation(
        numel, density, static_cast<std::uint32_t>(100.0 * density) + 1);
    DensityRow row{density, encoded_ratio(core::SlotCodec::Bitmap, act),
                   encoded_ratio(core::SlotCodec::BitmapFp16, act)};
    std::printf("%-10.2f %-12.4f %-12.4f\n", row.density, row.bitmap_ratio,
                row.bitmap_fp16_ratio);
    rows.push_back(row);
  }

  // 2 GB crossings with measured per-slot ratios at the paper's regime:
  // >= 70%-sparse post-ReLU activations (density 0.3).
  const double probe_density = 0.3;
  const Tensor probe = relu_like_activation(numel, probe_density, 11);
  const double measured = encoded_ratio(core::SlotCodec::Bitmap, probe);

  std::printf("\n--- 2 GB crossings, measured bitmap vs static codecs "
              "(batch 8, image 500, %.0f%% sparse) ---\n",
              100.0 * (1.0 - probe_density));
  std::printf("%-16s %-10s %-12s %-14s %-14s\n", "model", "measured",
              "rho(fp16)", "rho(bitmap:1)", "rho(bitmap:meas)");
  std::vector<SparseCrossing> crossings;
  bool measured_beats_fp16 = true;
  for (const models::ResNetVariant v :
       {models::ResNetVariant::ResNet50, models::ResNetVariant::ResNet101,
        models::ResNetVariant::ResNet152}) {
    const models::ResNetMemoryModel mm(models::ResNetSpec::make(v));
    const models::LinearResNet linear =
        models::LinearResNet::from_resnet(mm, 500, 8);
    SparseCrossing row;
    row.model = linear.name;
    row.measured_ratio = measured;
    row.rho_fp16 = crossing_rho(core::MemoryPlanner(linear.to_chain_spec(
        core::planning_bytes_ratio(core::SlotCodec::Fp16))));
    row.rho_bitmap_plan = crossing_rho(core::MemoryPlanner(
        linear.to_chain_spec(core::planning_bytes_ratio(
            core::SlotCodec::Bitmap))));
    core::ChainSpec spec = linear.to_chain_spec(measured);
    spec.checkpoint_slot_ratios.assign(
        static_cast<std::size_t>(linear.depth - 1), measured);
    row.rho_bitmap_meas = crossing_rho(core::MemoryPlanner(spec));
    if (!(row.rho_bitmap_meas < row.rho_fp16)) measured_beats_fp16 = false;
    std::printf("%-16s %-10.4f %-12.3f %-14.3f %-14.3f\n", row.model.c_str(),
                row.measured_ratio, row.rho_fp16, row.rho_bitmap_plan,
                row.rho_bitmap_meas);
    crossings.push_back(std::move(row));
  }
  if (!measured_beats_fp16) {
    std::printf("FAIL: measured bitmap ratios must plan a strictly lower "
                "2 GB crossing than fp16 at 70%% sparsity\n");
    return 1;
  }

  if (auto report =
          bench::BenchReport::create("bench_fig1", "BENCH_sparse.json")) {
    bench::JsonWriter& json = report->json();
    json.field("elems", static_cast<long long>(numel));
    json.field("probe_density", probe_density, "%.2f");
    report->end_context();
    json.key("ratio_vs_density").begin_array();
    for (const DensityRow& row : rows) {
      json.begin_object()
          .field("density", row.density, "%.2f")
          .field("bitmap_ratio", row.bitmap_ratio, "%.4f")
          .field("bitmap_fp16_ratio", row.bitmap_fp16_ratio, "%.4f")
          .end_object();
    }
    json.end_array();
    json.key("crossings_2gb").begin_array();
    for (const SparseCrossing& row : crossings) {
      json.begin_object()
          .field("model", row.model)
          .field("measured_bitmap_ratio", row.measured_ratio, "%.4f")
          .field("min_rho_fp16", row.rho_fp16, "%.3f")
          .field("min_rho_bitmap_planning", row.rho_bitmap_plan, "%.3f")
          .field("min_rho_bitmap_measured", row.rho_bitmap_meas, "%.3f")
          .end_object();
    }
    json.end_array();
    report->close();
  }
  return 0;
}

int run_compress(bool quick) {
  const long env_latency_us = persist::disk_latency_us();
  const long latency_us = env_latency_us > 0 ? env_latency_us : 500;

  std::printf("--- slot-codec axis: peak memory vs rho per codec "
              "(batch 8, image 500) ---\n");
  const std::vector<CodecCurve> curves = compress_curves();
  std::printf("%-16s %-10s %-8s %-14s\n", "model", "codec", "ratio",
              "fits 2GB at");
  for (const CodecCurve& curve : curves) {
    if (std::isinf(curve.min_rho_fit_2gb)) {
      std::printf("%-16s %-10s %-8.2f %-14s\n", curve.model.c_str(),
                  core::to_string(curve.codec).c_str(), curve.planning_ratio,
                  "never");
    } else {
      std::printf("%-16s %-10s %-8.2f rho=%-10.3f\n", curve.model.c_str(),
                  core::to_string(curve.codec).c_str(), curve.planning_ratio,
                  curve.min_rho_fit_2gb);
    }
  }

  std::printf("\n--- spill wall-clock per codec (%ld us/op injected, %s) "
              "---\n",
              latency_us,
              env_latency_us > 0 ? "from environment" : "default");
  const std::vector<CodecTiming> rows = compress_wallclock(latency_us, quick);
  std::printf("%-12s %-12s %-12s %-14s %-10s\n", "codec", "sync ms",
              "async ms", "measured", "grad err");
  bool lossless_exact = true;
  for (const CodecTiming& row : rows) {
    std::printf("%-12s %-12.2f %-12.2f %-14.3f %-10.1e\n",
                core::to_string(row.codec).c_str(), row.sync_ms, row.async_ms,
                row.measured_ratio, static_cast<double>(row.grad_err));
    // None, Lossless and Bitmap are exact codecs; the fp16 casts are not.
    if (row.codec != core::SlotCodec::Fp16 &&
        row.codec != core::SlotCodec::BitmapFp16 && row.grad_err != 0.0F) {
      lossless_exact = false;
    }
  }
  if (!lossless_exact) {
    std::printf("FAIL: none/lossless/bitmap codecs must give bit-identical "
                "gradients\n");
    return 1;
  }

  if (auto report =
          bench::BenchReport::create("bench_fig1", "BENCH_compress.json")) {
    bench::JsonWriter& json = report->json();
    json.field("disk_latency_us", static_cast<long long>(latency_us));
    report->end_context();
    json.key("curves").begin_array();
    for (const CodecCurve& curve : curves) {
      json.begin_object()
          .field("model", curve.model)
          .field("codec", core::to_string(curve.codec))
          .field("planning_ratio", curve.planning_ratio, "%.2f");
      json.key("min_rho_fit_2gb");
      if (std::isinf(curve.min_rho_fit_2gb)) {
        json.value_null();
      } else {
        json.value(curve.min_rho_fit_2gb);
      }
      json.key("points").begin_array();
      for (const CurvePoint& point : curve.points) {
        json.begin_object()
            .field("rho", point.rho, "%.2f")
            .field("peak_mb", point.peak_mb, "%.1f")
            .end_object();
      }
      json.end_array().end_object();
    }
    json.end_array();
    json.key("wallclock").begin_array();
    for (const CodecTiming& row : rows) {
      json.begin_object()
          .field("codec", core::to_string(row.codec))
          .field("sync_ms", row.sync_ms, "%.4f")
          .field("async_ms", row.async_ms, "%.4f")
          .field("measured_ratio", row.measured_ratio, "%.4f")
          .field("grad_err", static_cast<double>(row.grad_err), "%.3e")
          .end_object();
    }
    json.end_array();
    report->close();
  }
  std::printf("\n");
  return run_sparse(quick);
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<models::ResNetMemoryModel> memory_models = [] {
    std::vector<models::ResNetMemoryModel> result;
    for (const models::ResNetVariant v : models::all_resnet_variants()) {
      result.emplace_back(models::ResNetSpec::make(v));
    }
    return result;
  }();

  const Panel panels[] = {
      {"a", 1, 224}, {"b", 8, 224}, {"c", 1, 500}, {"d", 8, 500}};

  std::printf(
      "Figure 1: peak memory vs recompute factor (Revolve optimal "
      "checkpointing)\n'*' = exceeds the 2 GB Waggle budget\n\n");
  for (const Panel& panel : panels) run_panel(panel, memory_models);

  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--hetero") == 0) {
      run_hetero(panels[3]);  // batch 8, image 500 (the hardest panel)
    } else if (std::strncmp(argv[i], "--compress", 10) == 0) {
      if (const int rc = run_compress(quick); rc != 0) return rc;
    }
  }
  return 0;
}

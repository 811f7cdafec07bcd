// Ablation E10: checkpoint storage backends.
//
// Runs the same checkpointed training pass through the slot stores and
// reports checkpoint memory, disk traffic, and gradient error relative to
// full-precision RAM checkpoints:
//   ram    -- baseline (exact);
//   disk   -- every non-input slot spilled to files, synchronously
//             (sync_disk_store.hpp; exact, trades IO);
//   fp16 / int8 -- CompressedSlotStore with the lossy casts (2x / 4x
//             memory saving).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <random>

#include "core/executor.hpp"
#include "core/revolve.hpp"
#include "nn/chain_runner.hpp"
#include "nn/layers.hpp"
#include "sync_disk_store.hpp"

int main() {
  using namespace edgetrain;

  std::mt19937 rng(2024);
  nn::LayerChain chain;
  for (int i = 0; i < 10; ++i) {
    chain.push(std::make_unique<nn::Conv2d>(8, 8, 3, 1, 1, true, rng));
    chain.push(std::make_unique<nn::ReLU>());
  }
  Tensor x = Tensor::randn(Shape{2, 8, 14, 14}, rng);
  const core::Schedule schedule = core::revolve::make_schedule(chain.size(), 4);
  const double act_bytes = static_cast<double>(x.bytes());

  const core::LossGradFn seed = [](const Tensor& output) {
    return Tensor::full(output.shape(), 1.0F);
  };

  struct Run {
    std::vector<Tensor> grads;
    std::size_t store_resident = 0;
    std::size_t store_external = 0;
  };
  auto run_with = [&](core::SlotStore& store) {
    chain.zero_grad();
    chain.clear_saved();
    nn::LayerChainRunner runner(chain, nn::Phase::Train);
    runner.begin_pass();
    core::ScheduleExecutor executor;
    // Peak store occupancy happens mid-run; sample it via a wrapper would
    // complicate the bench -- report the per-slot cost instead: fill all
    // slots once after the run.
    (void)executor.run(runner, schedule, x, seed, store);
    Run run;
    for (const nn::ParamRef& p : chain.params()) {
      run.grads.push_back(p.grad->clone());
    }
    for (std::int32_t s = 0; s < schedule.num_slots(); ++s) store.put(s, x);
    run.store_resident = store.resident_bytes();
    run.store_external = store.external_bytes();
    return run;
  };

  core::RamSlotStore ram(schedule.num_slots());
  const Run reference = run_with(ram);
  float grad_scale = 0.0F;
  for (const Tensor& g : reference.grads) {
    grad_scale = std::max(grad_scale, g.max_abs());
  }

  auto report = [&](const char* name, const Run& run,
                    std::int64_t writes, std::int64_t reads) {
    float err = 0.0F;
    for (std::size_t i = 0; i < run.grads.size(); ++i) {
      err = std::max(err,
                     Tensor::max_abs_diff(run.grads[i], reference.grads[i]));
    }
    std::printf("%-8s %-12.1f %-12.1f %-10lld %-10lld %-12.2e\n", name,
                static_cast<double>(run.store_resident) / 1024.0,
                static_cast<double>(run.store_external) / 1024.0,
                static_cast<long long>(writes), static_cast<long long>(reads),
                static_cast<double>(err) / grad_scale);
  };

  std::printf("Checkpoint backends (chain of 20 steps, %d slots of %.1f KiB "
              "each; grad error relative to max |grad|)\n\n",
              schedule.num_slots(), act_bytes / 1024.0);
  std::printf("%-8s %-12s %-12s %-10s %-10s %-12s\n", "store", "RAM KiB",
              "disk KiB", "writes", "reads", "grad err");
  report("ram", reference, 0, 0);

  // A private directory: a shared one would let concurrent runs overwrite
  // each other's slot_N.ckpt files.
  const std::string dir = "/tmp/edgetrain_bench_slot_stores";
  std::filesystem::create_directories(dir);
  bench::SyncDiskStore disk(schedule.num_slots(), 1, dir);
  const Run spilled = run_with(disk);
  report("disk", spilled, disk.disk_writes(), disk.disk_reads());

  core::CompressedSlotStore half(schedule.num_slots(), core::SlotCodec::Fp16);
  report("fp16", run_with(half), 0, 0);

  core::CompressedSlotStore int8(schedule.num_slots(), core::SlotCodec::Int8);
  report("int8", run_with(int8), 0, 0);

  std::printf("\nfp16 halves and int8 quarters checkpoint RAM; disk spill "
              "frees all but one RAM slot at zero gradient error.\n");
  return 0;
}

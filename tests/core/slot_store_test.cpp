#include "core/tiered_slot_store.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <random>
#include <set>
#include <string>

#include "core/executor.hpp"
#include "core/revolve.hpp"
#include "core/slot_codec.hpp"
#include "models/small_nets.hpp"
#include "nn/chain_runner.hpp"
#include "nn/layers.hpp"
#include "tensor/ops.hpp"
#include "test_dir.hpp"

namespace edgetrain::core {
namespace {

// ---------------------------------------------------------------------------
// Stores
// ---------------------------------------------------------------------------

TEST(RamSlotStore, PutGetDrop) {
  TieredSlotStore store(3);
  Tensor t = Tensor::full(Shape{4}, 2.0F);
  store.put(1, t);
  EXPECT_EQ(Tensor::max_abs_diff(store.get(1), t), 0.0F);
  EXPECT_EQ(store.resident_bytes(), t.bytes());
  store.drop(1);
  EXPECT_EQ(store.resident_bytes(), 0U);
  EXPECT_THROW((void)store.get(1), std::logic_error);
}

TEST(RamSlotStore, SharesStorageWithoutCopy) {
  TieredSlotStore store(1);
  Tensor t = Tensor::zeros(Shape{8});
  store.put(0, t);
  Tensor out = store.get(0);
  out.at(0) = 5.0F;
  EXPECT_EQ(t.at(0), 5.0F);
}

/// Threads of this process, as the kernel lists them.
std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

/// Spill-file-named entries ("slot_*") of @p dir. Other tests running in
/// parallel may create unrelated files in the same places.
std::set<std::string> spill_files(const std::filesystem::path& dir) {
  std::set<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("slot_", 0) == 0) names.insert(name);
  }
  return names;
}

// The executor builds a RAM-only store for every run without a caller
// store, so a RAM-only store must stay that cheap: no IO thread, and no
// spill file from put/get/drop or its destructor. A RAM-only store has no
// spill directory, so a stray spill path would resolve against "/" or,
// relatively, against the working directory; neither may gain one.
TEST(TieredSlotStore, RamOnlyStoreStartsNoThreadAndCreatesNoFile) {
  std::mt19937 rng(5);
  const Tensor t = Tensor::randn(Shape{4096}, rng);
  // Warm the compute pool the codec kernels use, so its threads are
  // already counted.
  (void)codec::encode(SlotCodec::Lossless, t);
  const std::set<std::string> cwd_before =
      spill_files(std::filesystem::current_path());
  const std::set<std::string> root_before = spill_files("/");
  const std::size_t threads_before = thread_count();
  {
    TieredSlotStore handles(3);
    TieredSlotStore blobs(3, SlotCodec::Lossless);
    EXPECT_EQ(thread_count(), threads_before);
    for (TieredSlotStore* store : {&handles, &blobs}) {
      Schedule tape(1, 3);
      tape.restore(0, 1);
      store->begin_replay(tape);
      store->put(1, t);
      store->on_replay_position(0);
      EXPECT_EQ(Tensor::max_abs_diff(store->get(1), t), 0.0F);
      store->end_replay();
      store->put(2, t);
      store->drop(1);
      store->flush();
    }
    EXPECT_EQ(handles.external_bytes(), 0U);
    EXPECT_EQ(blobs.external_bytes(), 0U);
    EXPECT_EQ(thread_count(), threads_before);
  }
  EXPECT_EQ(thread_count(), threads_before);
  EXPECT_EQ(spill_files(std::filesystem::current_path()), cwd_before);
  EXPECT_EQ(spill_files("/"), root_before);
}

// ---------------------------------------------------------------------------
// Executor integration
// ---------------------------------------------------------------------------

struct StoreRun {
  Tensor input_grad;
  std::vector<Tensor> param_grads;
};

StoreRun run_with_store(nn::LayerChain& chain, const Schedule& schedule,
                        const Tensor& x, SlotStore& store) {
  chain.zero_grad();
  chain.clear_saved();
  nn::LayerChainRunner runner(chain, nn::Phase::Train);
  runner.begin_pass();
  ScheduleExecutor executor;
  const LossGradFn seed = [](const Tensor& output) {
    return Tensor::full(output.shape(), 1.0F);
  };
  const ExecutionResult result =
      executor.run(runner, schedule, x, seed, store);
  StoreRun run;
  run.input_grad = result.input_grad.clone();
  for (const nn::ParamRef& p : chain.params()) {
    run.param_grads.push_back(p.grad->clone());
  }
  return run;
}

TEST(ExecutorWithStores, DiskSpillGradsBitIdentical) {
  std::mt19937 rng(17);
  nn::LayerChain chain = models::build_conv_chain(8, 4, rng);
  Tensor x = Tensor::randn(Shape{1, 4, 8, 8}, rng);
  const Schedule schedule = revolve::make_schedule(8, 3);

  TieredSlotStore ram(schedule.num_slots());
  const StoreRun reference = run_with_store(chain, schedule, x, ram);

  // Spill every non-input slot to disk: lossless, so grads stay identical.
  TieredSlotStore disk(schedule.num_slots(), 1,
                       test::test_dir("slot_store_disk_spill"));
  const StoreRun spilled = run_with_store(chain, schedule, x, disk);
  EXPECT_GT(disk.disk_writes(), 0);

  EXPECT_EQ(Tensor::max_abs_diff(reference.input_grad, spilled.input_grad),
            0.0F);
  for (std::size_t i = 0; i < reference.param_grads.size(); ++i) {
    EXPECT_EQ(Tensor::max_abs_diff(reference.param_grads[i],
                                   spilled.param_grads[i]),
              0.0F);
  }
}

TEST(ExecutorWithStores, QuantizedCheckpointsGiveApproximateGrads) {
  // Needs nonlinearity: in a purely linear chain the gradients do not
  // depend on the activations at all, so lossy checkpoints would be
  // invisible. Conv+ReLU pairs make weight gradients activation-dependent.
  std::mt19937 rng(19);
  nn::LayerChain chain;
  for (int i = 0; i < 4; ++i) {
    chain.push(std::make_unique<nn::Conv2d>(4, 4, 3, 1, 1, true, rng));
    chain.push(std::make_unique<nn::ReLU>());
  }
  Tensor x = Tensor::randn(Shape{1, 4, 8, 8}, rng);
  const Schedule schedule = revolve::make_schedule(chain.size(), 3);

  auto max_param_err = [](const StoreRun& a, const StoreRun& b) {
    float err = 0.0F;
    for (std::size_t i = 0; i < a.param_grads.size(); ++i) {
      err = std::max(err,
                     Tensor::max_abs_diff(a.param_grads[i], b.param_grads[i]));
    }
    return err;
  };
  auto max_param_scale = [](const StoreRun& a) {
    float scale = 0.0F;
    for (const Tensor& g : a.param_grads) scale = std::max(scale, g.max_abs());
    return scale;
  };

  TieredSlotStore ram(schedule.num_slots());
  const StoreRun reference = run_with_store(chain, schedule, x, ram);
  const float scale = max_param_scale(reference);

  TieredSlotStore half(schedule.num_slots(), SlotCodec::Fp16);
  const StoreRun halved = run_with_store(chain, schedule, x, half);
  const float half_err = max_param_err(reference, halved);
  EXPECT_GT(half_err, 0.0F);          // lossy checkpoints are visible...
  EXPECT_LT(half_err, 0.01F * scale); // ...but small at fp16

  TieredSlotStore int8(schedule.num_slots(), SlotCodec::Int8);
  const StoreRun quantised = run_with_store(chain, schedule, x, int8);
  const float int8_err = max_param_err(reference, quantised);
  EXPECT_GT(int8_err, half_err);       // int8 is coarser than fp16
  EXPECT_LT(int8_err, 0.25F * scale);  // yet still usable
}

TEST(ExecutorWithStores, QuantizedStoreHalvesCheckpointMemory) {
  std::mt19937 rng(23);
  nn::LayerChain chain = models::build_conv_chain(12, 8, rng);
  Tensor x = Tensor::randn(Shape{1, 8, 12, 12}, rng);
  const Schedule schedule = revolve::make_schedule(12, 5);

  TieredSlotStore ram(schedule.num_slots());
  (void)run_with_store(chain, schedule, x, ram);
  TieredSlotStore half(schedule.num_slots(), SlotCodec::Fp16);

  // Peak store occupancy: hold all slots with one activation each.
  Tensor act = Tensor::randn(Shape{1, 8, 12, 12}, rng);
  for (std::int32_t s = 0; s < schedule.num_slots(); ++s) {
    ram.put(s, act);
    half.put(s, act);
  }
  // Ram store shares one buffer; compare per-slot cost instead.
  EXPECT_EQ(half.resident_bytes(),
            static_cast<std::size_t>(schedule.num_slots()) * act.bytes() / 2);
}

}  // namespace
}  // namespace edgetrain::core

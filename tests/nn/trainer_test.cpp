#include "nn/trainer.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "models/small_nets.hpp"
#include "tensor/ops.hpp"
#include "test_dir.hpp"

namespace edgetrain::nn {
namespace {

struct Batch {
  Tensor x;
  std::vector<std::int32_t> labels;
};

/// Quadrant task: a bright square in quadrant q has label q.
Batch quadrant_batch(std::int64_t n, std::mt19937& rng) {
  Batch batch;
  batch.x = Tensor::randn(Shape{n, 1, 12, 12}, rng, 0.2F);
  std::uniform_int_distribution<std::int32_t> dist(0, 3);
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int32_t label = dist(rng);
    batch.labels.push_back(label);
    float* img = batch.x.data() + i * 144;
    const int oy = (label / 2) * 6;
    const int ox = (label % 2) * 6;
    for (int y = 0; y < 6; ++y) {
      for (int x = 0; x < 6; ++x) img[(oy + y) * 12 + ox + x] += 1.2F;
    }
  }
  return batch;
}

double eval_accuracy(LayerChain& chain, std::mt19937& rng) {
  const Batch test = quadrant_batch(64, rng);
  RunContext ctx;
  ctx.phase = Phase::Eval;
  ctx.save_for_backward = false;
  const auto preds = ops::argmax_rows(chain.forward(test.x, ctx));
  std::size_t correct = 0;
  for (std::size_t i = 0; i < preds.size(); ++i) {
    if (preds[i] == test.labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(preds.size());
}

/// Checkpoint placements the cases below exercise. The values are part of
/// the parameterised test names (gtest prints StrategyCase's bytes), so
/// they stay fixed.
enum class StoreKind : std::uint8_t { Ram, DiskSpill, Fp16, Int8 };

void set_store_kind(TrainerOptions& options, StoreKind kind,
                    const std::string& spill_directory) {
  switch (kind) {
    case StoreKind::Ram:
      break;
    case StoreKind::DiskSpill:
      options.spill_directory = spill_directory;
      break;
    case StoreKind::Fp16:
      options.slot_codec = core::SlotCodec::Fp16;
      break;
    case StoreKind::Int8:
      options.slot_codec = core::SlotCodec::Int8;
      break;
  }
}

struct StrategyCase {
  CheckpointStrategy strategy;
  StoreKind backend;
};

class TrainerStrategyTest : public ::testing::TestWithParam<StrategyCase> {};

TEST_P(TrainerStrategyTest, LearnsQuadrantTask) {
  const auto [strategy, backend] = GetParam();
  std::mt19937 rng(606);
  LayerChain chain = models::build_patch_cnn(12, 1, 4, 4, rng);
  TrainerOptions options;
  options.strategy = strategy;
  set_store_kind(options, backend, test::test_dir("trainer_learns_quadrant"));
  options.free_slots = 2;
  options.lr = 0.08F;
  Trainer trainer(chain, options);

  float loss = 0.0F;
  std::mt19937 data_rng(607);
  for (int step = 0; step < 50; ++step) {
    const Batch batch = quadrant_batch(8, data_rng);
    loss = trainer.step(batch.x, batch.labels).loss;
  }
  EXPECT_LT(loss, 0.8F);
  EXPECT_GT(eval_accuracy(chain, data_rng), 0.8);
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndBackends, TrainerStrategyTest,
    ::testing::Values(
        StrategyCase{CheckpointStrategy::FullStorage, StoreKind::Ram},
        StrategyCase{CheckpointStrategy::Revolve, StoreKind::Ram},
        StrategyCase{CheckpointStrategy::Sequential, StoreKind::Ram},
        StrategyCase{CheckpointStrategy::Periodic, StoreKind::Ram},
        StrategyCase{CheckpointStrategy::Revolve, StoreKind::DiskSpill},
        StrategyCase{CheckpointStrategy::Revolve, StoreKind::Fp16},
        StrategyCase{CheckpointStrategy::Revolve, StoreKind::Int8}));

TEST(Trainer, RevolveIdenticalToFullStorageTrajectory) {
  auto run = [](CheckpointStrategy strategy, StoreKind backend) {
    std::mt19937 rng(611);
    LayerChain chain = models::build_patch_cnn(12, 1, 4, 4, rng);
    TrainerOptions options;
    options.strategy = strategy;
    set_store_kind(options, backend,
                   test::test_dir("trainer_revolve_trajectory"));
    options.free_slots = 1;
    Trainer trainer(chain, options);
    std::mt19937 data_rng(613);
    for (int step = 0; step < 8; ++step) {
      const Batch batch = quadrant_batch(4, data_rng);
      (void)trainer.step(batch.x, batch.labels);
    }
    std::vector<Tensor> weights;
    for (const ParamRef& p : chain.params()) weights.push_back(p.value->clone());
    return weights;
  };
  const auto full = run(CheckpointStrategy::FullStorage, StoreKind::Ram);
  const auto revolve = run(CheckpointStrategy::Revolve, StoreKind::Ram);
  // Spilled checkpoints are lossless: the weights match bit for bit.
  const auto spilled =
      run(CheckpointStrategy::Revolve, StoreKind::DiskSpill);
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(Tensor::max_abs_diff(full[i], revolve[i]), 0.0F) << i;
    EXPECT_EQ(Tensor::max_abs_diff(revolve[i], spilled[i]), 0.0F) << i;
  }
}

TEST(Trainer, CheckpointedStepUsesLessMemory) {
  std::mt19937 rng(617);
  LayerChain chain = models::build_conv_chain(16, 8, rng);

  auto peak_of = [&](CheckpointStrategy strategy, int slots) {
    TrainerOptions options;
    options.strategy = strategy;
    options.free_slots = slots;
    Trainer trainer(chain, options);
    Tensor x = Tensor::randn(Shape{1, 8, 14, 14}, rng);
    const core::LossGradFn seed = [](const Tensor& output) {
      return Tensor::full(output.shape(), 1.0F);
    };
    return trainer.step_with_loss(x, seed).peak_bytes;
  };

  const std::size_t full = peak_of(CheckpointStrategy::FullStorage, 0);
  const std::size_t tight = peak_of(CheckpointStrategy::Revolve, 1);
  EXPECT_LT(tight, full);
}

TEST(Trainer, ReportsAdvances) {
  std::mt19937 rng(619);
  LayerChain chain = models::build_conv_chain(8, 4, rng);
  TrainerOptions options;
  options.strategy = CheckpointStrategy::Revolve;
  options.free_slots = 1;
  Trainer trainer(chain, options);
  Tensor x = Tensor::randn(Shape{1, 4, 8, 8}, rng);
  const core::LossGradFn seed = [](const Tensor& output) {
    return Tensor::full(output.shape(), 1.0F);
  };
  EXPECT_GT(trainer.step_with_loss(x, seed).advances, 0);
  EXPECT_EQ(trainer.schedule().num_steps(), 8);
}

}  // namespace
}  // namespace edgetrain::nn

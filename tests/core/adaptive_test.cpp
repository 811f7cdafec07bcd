// Dynamic-ratio adaptive re-planning: the AdaptiveReplanner must start
// from the codec's worst-case planning ratio, latch measured per-slot
// drift past the threshold through the executor hooks, re-solve the slot
// count from the measured vector at the pass boundary, and leave the
// gradients bit-identical across the plan switch (checkpointing is exact;
// only the footprint/recompute trade changes).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <random>
#include <vector>

#include "core/adaptive.hpp"
#include "core/executor.hpp"
#include "core/slot_codec.hpp"
#include "core/tiered_slot_store.hpp"
#include "models/small_nets.hpp"
#include "nn/chain_runner.hpp"
#include "nn/layers.hpp"
#include "tensor/ops.hpp"

namespace edgetrain::core {
namespace {

/// Wraps a TieredSlotStore (which is final) but reports a configurable
/// measured ratio for every slot -- drives the latch deterministically
/// without a real codec.
class FakeRatioStore : public SlotStore {
 public:
  explicit FakeRatioStore(int num_slots) : inner_(num_slots) {}
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
  [[nodiscard]] double measured_slot_ratio(std::int32_t) const override {
    return ratio;
  }
  double ratio = 1.0;

 private:
  TieredSlotStore inner_;
};

/// Reports, for each slot, the ratio of its latest put: a slot's first
/// put measures first_ratio, every later put measures later_ratio.
class PutSequenceStore : public SlotStore {
 public:
  PutSequenceStore(int num_slots, double first_ratio, double later_ratio)
      : inner_(num_slots),
        ratios_(static_cast<std::size_t>(num_slots), 1.0),
        puts_(static_cast<std::size_t>(num_slots), 0),
        first_ratio_(first_ratio),
        later_ratio_(later_ratio) {}
  void put(std::int32_t slot, const Tensor& value) override {
    inner_.put(slot, value);
    const auto k = static_cast<std::size_t>(slot);
    ratios_[k] = puts_[k]++ == 0 ? first_ratio_ : later_ratio_;
  }
  [[nodiscard]] Tensor get(std::int32_t slot) override {
    return inner_.get(slot);
  }
  void drop(std::int32_t slot) override { inner_.drop(slot); }
  [[nodiscard]] std::size_t resident_bytes() const override {
    return inner_.resident_bytes();
  }
  [[nodiscard]] std::size_t external_bytes() const override { return 0; }
  [[nodiscard]] double measured_slot_ratio(std::int32_t slot) const override {
    return ratios_[static_cast<std::size_t>(slot)];
  }
  [[nodiscard]] int puts(std::int32_t slot) const {
    return puts_[static_cast<std::size_t>(slot)];
  }

 private:
  TieredSlotStore inner_;
  std::vector<double> ratios_;
  std::vector<int> puts_;
  double first_ratio_;
  double later_ratio_;
};

AdaptiveReplannerOptions unit_options(double capacity) {
  AdaptiveReplannerOptions options;
  options.capacity_bytes = capacity;
  options.fixed_bytes = 0.0;
  options.activation_bytes_per_step = 1.0;
  options.fallback_ratio = 1.0;  // SlotCodec::Bitmap's planning ratio
  options.drift_threshold = 0.10;
  return options;
}

struct ToyPass {
  // Replays the replanner's current schedule on a tiny chain with the
  // hooks armed, so Store actions flow through the drift latch.
  static void run(AdaptiveReplanner& replanner, SlotStore& store,
                  nn::LayerChain& chain, const Tensor& input) {
    chain.zero_grad();
    chain.clear_saved();
    nn::LayerChainRunner runner(chain, nn::Phase::Train);
    runner.begin_pass();
    ScheduleExecutor executor;
    const std::vector<std::int32_t> labels{0};
    const LossGradFn loss_grad = [&](const Tensor& logits) {
      const ops::SoftmaxXentResult r =
          ops::softmax_xent_forward(logits, labels);
      return ops::softmax_xent_backward(r.probs, labels);
    };
    (void)executor.run(runner, replanner.schedule(), input, loss_grad,
                       store, replanner.hooks(store));
  }
};

TEST(AdaptiveReplannerTest, InitialPlanUsesWorstCaseFallback) {
  // capacity 2 + eps at act 1, fallback 1: exactly one free slot.
  AdaptiveReplanner replanner(8, unit_options(2.0 + 1e-9));
  EXPECT_EQ(replanner.free_slots(), 1);
  EXPECT_EQ(replanner.replans(), 0);
  EXPECT_FALSE(replanner.drift_latched());
  ASSERT_EQ(replanner.pricing().measured().size(), 1U);
  EXPECT_DOUBLE_EQ(replanner.pricing().measured()[0], 1.0);
  EXPECT_EQ(replanner.schedule().validate(), std::nullopt);
}

TEST(AdaptiveReplannerTest, RejectsImpossibleCapacity) {
  EXPECT_THROW(AdaptiveReplanner(8, unit_options(0.5)),
               std::invalid_argument);
}

TEST(AdaptiveReplannerTest, MeasuredDriftGrowsThePlanAtPassBoundary) {
  std::mt19937 rng(11);
  nn::LayerChain chain = models::build_mlp(6, 8, 6, 3, rng);
  const Tensor input = Tensor::randn(Shape{1, 6}, rng);
  AdaptiveReplanner replanner(chain.size(), unit_options(2.0 + 1e-9));
  ASSERT_EQ(replanner.free_slots(), 1);

  FakeRatioStore store(replanner.schedule().num_slots());
  store.ratio = 0.25;  // 4x better than the worst-case plan: 75% drift
  ToyPass::run(replanner, store, chain, input);
  EXPECT_TRUE(replanner.finish_pass(store));
  EXPECT_EQ(replanner.replans(), 1);
  // room = 1 activation unit at ratio 0.25 -> 4 slots now fit.
  EXPECT_EQ(replanner.free_slots(), 4);
  for (const double ratio : replanner.pricing().measured()) {
    EXPECT_DOUBLE_EQ(ratio, 0.25);
  }
  EXPECT_EQ(replanner.schedule().validate(), std::nullopt);

  // Steady state: the measurement now matches the plan -- no more churn.
  FakeRatioStore next(replanner.schedule().num_slots());
  next.ratio = 0.25;
  ToyPass::run(replanner, next, chain, input);
  EXPECT_FALSE(replanner.finish_pass(next));
  EXPECT_EQ(replanner.replans(), 1);
}

TEST(AdaptiveReplannerTest, ReplanPricesEachSlotAtTheWorstRatioItHeld) {
  // The single checkpoint slot first holds a state that packs to 0.5, then
  // states that pack to 0.25. Both were resident during the pass, so the
  // re-plan must price the slot at 0.5 (two slots fit the one unit of
  // room), not at the last put's 0.25 (which would buy four).
  std::mt19937 rng(13);
  nn::LayerChain chain = models::build_mlp(6, 8, 6, 3, rng);
  const Tensor input = Tensor::randn(Shape{1, 6}, rng);
  AdaptiveReplanner replanner(chain.size(), unit_options(2.0 + 1e-9));
  ASSERT_EQ(replanner.free_slots(), 1);

  PutSequenceStore store(replanner.schedule().num_slots(), 0.5, 0.25);
  ToyPass::run(replanner, store, chain, input);
  ASSERT_GT(store.puts(1), 1);
  EXPECT_TRUE(replanner.finish_pass(store));
  EXPECT_EQ(replanner.free_slots(), 2);
  for (const double ratio : replanner.pricing().measured()) {
    EXPECT_DOUBLE_EQ(ratio, 0.5);
  }
}

TEST(AdaptiveReplannerTest, DriftBelowThresholdDoesNotReplan) {
  std::mt19937 rng(12);
  nn::LayerChain chain = models::build_mlp(6, 8, 6, 3, rng);
  const Tensor input = Tensor::randn(Shape{1, 6}, rng);
  // capacity 2.8 at fallback 1.0 still buys one slot; at ratio ~0.9 it
  // would buy two -- so the only thing gating the second slot is whether
  // the drift latch arms.
  AdaptiveReplanner replanner(chain.size(), unit_options(2.8));

  FakeRatioStore store(replanner.schedule().num_slots());
  store.ratio = 0.92;  // 8% below the planned 1.0: inside the band
  ToyPass::run(replanner, store, chain, input);
  EXPECT_FALSE(replanner.drift_latched());
  EXPECT_FALSE(replanner.finish_pass(store));
  EXPECT_EQ(replanner.replans(), 0);
  EXPECT_EQ(replanner.free_slots(), 1);

  // 12% drift crosses the 10% threshold and re-plans.
  store.ratio = 0.88;
  ToyPass::run(replanner, store, chain, input);
  EXPECT_TRUE(replanner.finish_pass(store));
  EXPECT_EQ(replanner.replans(), 1);
  EXPECT_GT(replanner.free_slots(), 1);
}

TEST(AdaptiveReplannerTest,
     BitmapStoreDriftReplansAndGradientsStayBitIdentical) {
  // End-to-end: a real bitmap store on a residual chain whose every
  // boundary is post-ReLU (~50% zeros) measures far below the worst-case
  // plan, the re-plan buys more slots, and the gradient is bit-identical
  // before and after the plan switch (and to full storage).
  std::mt19937 rng(4040);
  nn::LayerChain chain;
  for (int i = 0; i < 8; ++i) {
    chain.push(std::make_unique<nn::BasicBlock>(4, 4, 1, rng));
  }
  const Tensor input = Tensor::randn(Shape{1, 4, 8, 8}, rng);
  const std::vector<std::int32_t> labels{1};
  const double act_bytes =
      static_cast<double>(input.numel()) * sizeof(float);

  auto run = [&](const Schedule& schedule, SlotStore& store,
                 const ExecutorHooks& hooks) {
    chain.zero_grad();
    chain.clear_saved();
    nn::LayerChainRunner runner(chain, nn::Phase::Train);
    runner.begin_pass();
    ScheduleExecutor executor;
    const LossGradFn loss_grad = [&](const Tensor& logits) {
      const ops::SoftmaxXentResult r =
          ops::softmax_xent_forward(logits, labels);
      return ops::softmax_xent_backward(r.probs, labels);
    };
    const ExecutionResult result =
        executor.run(runner, schedule, input, loss_grad, store, hooks);
    std::vector<Tensor> grads{result.input_grad.clone()};
    for (const nn::ParamRef& p : chain.params()) {
      grads.push_back(p.grad->clone());
    }
    return grads;
  };

  TieredSlotStore full_store(chain.size() + 1);
  const std::vector<Tensor> reference =
      run(full_storage_schedule(chain.size()), full_store, ExecutorHooks{});

  AdaptiveReplannerOptions options;
  // Room for two plaintext checkpoints and half of a third: the plaintext
  // plan affords s = 2, and three slots priced at the worst ratio each
  // held fit when those ratios stay below 0.83. This chain's post-ReLU
  // checkpoints measure 0.56-0.79, so three slots need ~2.3 activations:
  // at a capacity of 3 activations no third slot fits them.
  options.capacity_bytes = (1.0 + 2.5) * act_bytes;
  options.fixed_bytes = 0.0;
  options.activation_bytes_per_step = act_bytes;
  options.fallback_ratio = planning_bytes_ratio(SlotCodec::Bitmap);  // 1.0
  options.drift_threshold = 0.10;
  AdaptiveReplanner replanner(chain.size(), options);
  ASSERT_EQ(replanner.free_slots(), 2);

  // Pass 1 under the conservative plan.
  TieredSlotStore store1(replanner.schedule().num_slots(), SlotCodec::Bitmap);
  const std::vector<Tensor> pass1 =
      run(replanner.schedule(), store1, replanner.hooks(store1));
  ASSERT_EQ(pass1.size(), reference.size());
  for (std::size_t g = 0; g < pass1.size(); ++g) {
    EXPECT_EQ(Tensor::max_abs_diff(pass1[g], reference[g]), 0.0F) << g;
  }
  // Post-ReLU boundaries pack well below plaintext: the latch armed
  // mid-pass through the hooks.
  EXPECT_TRUE(replanner.drift_latched());
  ASSERT_TRUE(replanner.finish_pass(store1));
  EXPECT_EQ(replanner.replans(), 1);
  EXPECT_GT(replanner.free_slots(), 2);  // measured ratios bought slots

  // Pass 2 under the re-planned schedule: bit-identical gradients, and
  // the checkpoints it holds at once (the input slot included) fit the
  // capacity the plan was bought for.
  TieredSlotStore store2(replanner.schedule().num_slots(), SlotCodec::Bitmap);
  const ExecutorHooks measure = replanner.hooks(store2);
  std::size_t peak_resident = 0;
  ExecutorHooks watch;
  watch.on_action = [&](std::int64_t position, const Action& action) {
    peak_resident = std::max(peak_resident, store2.resident_bytes());
    measure.on_action(position, action);
  };
  const std::vector<Tensor> pass2 = run(replanner.schedule(), store2, watch);
  ASSERT_EQ(pass2.size(), reference.size());
  for (std::size_t g = 0; g < pass2.size(); ++g) {
    EXPECT_EQ(Tensor::max_abs_diff(pass2[g], reference[g]), 0.0F) << g;
  }
  EXPECT_LE(static_cast<double>(peak_resident), options.capacity_bytes);
  // Steady state: re-priced from pass 2, the plan keeps its shape.
  const int bought = replanner.free_slots();
  EXPECT_FALSE(replanner.finish_pass(store2));
  EXPECT_EQ(replanner.free_slots(), bought);
}

}  // namespace
}  // namespace edgetrain::core

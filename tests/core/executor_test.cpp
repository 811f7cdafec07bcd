// The keystone integration test: checkpointed execution of a real network
// must produce bit-identical gradients to full storage, stay within the
// schedule's slot bound, and use measurably less memory.
#include "core/executor.hpp"

#include <gtest/gtest.h>

#include <random>

#include "core/revolve.hpp"
#include "core/sequential.hpp"
#include "models/small_nets.hpp"
#include "nn/chain_runner.hpp"
#include "nn/layers.hpp"
#include "tensor/ops.hpp"

namespace edgetrain::core {
namespace {

struct GradSnapshot {
  Tensor input_grad;
  std::vector<Tensor> param_grads;
};

/// Runs one training pass of `chain` under `schedule` and snapshots all
/// gradients. Parameters are NOT updated.
GradSnapshot run_pass(nn::LayerChain& chain, const Schedule& schedule,
                      const Tensor& input,
                      const std::vector<std::int32_t>& labels,
                      std::size_t* peak_bytes = nullptr) {
  chain.zero_grad();
  chain.clear_saved();
  nn::LayerChainRunner runner(chain, nn::Phase::Train);
  runner.begin_pass();
  ScheduleExecutor executor;
  const LossGradFn loss_grad = [&](const Tensor& logits) {
    const ops::SoftmaxXentResult result =
        ops::softmax_xent_forward(logits, labels);
    return ops::softmax_xent_backward(result.probs, labels);
  };
  const ExecutionResult result =
      executor.run(runner, schedule, input, loss_grad);
  if (peak_bytes != nullptr) {
    *peak_bytes = result.peak_tracked_bytes - result.baseline_bytes;
  }
  GradSnapshot snapshot;
  snapshot.input_grad = result.input_grad.clone();
  for (const nn::ParamRef& p : chain.params()) {
    snapshot.param_grads.push_back(p.grad->clone());
  }
  return snapshot;
}

void expect_identical(const GradSnapshot& a, const GradSnapshot& b) {
  EXPECT_EQ(Tensor::max_abs_diff(a.input_grad, b.input_grad), 0.0F);
  ASSERT_EQ(a.param_grads.size(), b.param_grads.size());
  for (std::size_t i = 0; i < a.param_grads.size(); ++i) {
    EXPECT_EQ(Tensor::max_abs_diff(a.param_grads[i], b.param_grads[i]), 0.0F)
        << "param " << i;
  }
}

class RevolveGradEquivalenceTest : public ::testing::TestWithParam<int> {};

// Bit-identical gradients for every Revolve slot count on a CNN chain with
// conv, batch-norm, pooling and residual blocks.
TEST_P(RevolveGradEquivalenceTest, MatchesFullStorage) {
  const int free_slots = GetParam();
  std::mt19937 rng(99);
  nn::LayerChain chain =
      models::build_mini_resnet(1, 4, 3, 1, rng);  // 8 chain steps
  const int l = chain.size();
  Tensor input = Tensor::randn(Shape{2, 1, 12, 12}, rng);
  const std::vector<std::int32_t> labels{0, 2};

  const GradSnapshot reference =
      run_pass(chain, full_storage_schedule(l), input, labels);
  const GradSnapshot checkpointed = run_pass(
      chain, revolve::make_schedule(l, std::min(free_slots, l - 1)), input,
      labels);
  expect_identical(reference, checkpointed);
}

INSTANTIATE_TEST_SUITE_P(SlotCounts, RevolveGradEquivalenceTest,
                         ::testing::Values(0, 1, 2, 3, 5, 7));

class SequentialGradEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(SequentialGradEquivalenceTest, MatchesFullStorage) {
  const int segments = GetParam();
  std::mt19937 rng(77);
  nn::LayerChain chain = models::build_mini_resnet(1, 4, 3, 1, rng);
  const int l = chain.size();
  Tensor input = Tensor::randn(Shape{2, 1, 12, 12}, rng);
  const std::vector<std::int32_t> labels{1, 2};

  const GradSnapshot reference =
      run_pass(chain, full_storage_schedule(l), input, labels);
  const GradSnapshot checkpointed =
      run_pass(chain, seq::make_schedule(l, std::min(segments, l)), input,
               labels);
  expect_identical(reference, checkpointed);
}

INSTANTIATE_TEST_SUITE_P(Segments, SequentialGradEquivalenceTest,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(Executor, BatchNormRunningStatsNotDoubleUpdated) {
  // Run the same pass full-storage and checkpointed on two identically
  // initialised chains; running statistics must end up identical even
  // though the checkpointed pass re-forwards BN layers.
  auto make_chain = [] {
    std::mt19937 rng(123);
    return models::build_mini_resnet(1, 4, 3, 1, rng);
  };
  nn::LayerChain full = make_chain();
  nn::LayerChain ckpt = make_chain();
  std::mt19937 rng(5);
  Tensor input = Tensor::randn(Shape{2, 1, 12, 12}, rng);
  const std::vector<std::int32_t> labels{0, 1};

  (void)run_pass(full, full_storage_schedule(full.size()), input, labels);
  (void)run_pass(ckpt, revolve::make_schedule(ckpt.size(), 1), input, labels);

  // Compare the BN running stats layer by layer.
  for (int i = 0; i < full.size(); ++i) {
    auto* bn_full = dynamic_cast<nn::BatchNorm2d*>(&full.layer(i));
    auto* bn_ckpt = dynamic_cast<nn::BatchNorm2d*>(&ckpt.layer(i));
    ASSERT_EQ(bn_full == nullptr, bn_ckpt == nullptr);
    if (bn_full == nullptr) continue;
    EXPECT_EQ(Tensor::max_abs_diff(bn_full->running_mean(),
                                   bn_ckpt->running_mean()),
              0.0F);
    EXPECT_EQ(Tensor::max_abs_diff(bn_full->running_var(),
                                   bn_ckpt->running_var()),
              0.0F);
  }
}

TEST(Executor, DropoutGradsIdenticalUnderCheckpointing) {
  // Stochastic layers must replay their masks during recomputation: a chain
  // with dropout still yields bit-identical gradients to full storage.
  auto build = [] {
    std::mt19937 rng(555);
    nn::LayerChain chain;
    chain.push(std::make_unique<nn::Conv2d>(1, 4, 3, 1, 1, false, rng));
    chain.push(std::make_unique<nn::ReLU>());
    chain.push(std::make_unique<nn::Dropout>(0.4F));
    chain.push(std::make_unique<nn::Conv2d>(4, 4, 3, 1, 1, false, rng));
    chain.push(std::make_unique<nn::Dropout>(0.4F, /*seed=*/77));
    chain.push(std::make_unique<nn::GlobalAvgPool>());
    chain.push(std::make_unique<nn::Linear>(4, 3, true, rng));
    return chain;
  };
  nn::LayerChain chain = build();
  std::mt19937 rng(556);
  Tensor input = Tensor::randn(Shape{2, 1, 10, 10}, rng);
  const std::vector<std::int32_t> labels{0, 2};

  const GradSnapshot reference =
      run_pass(chain, full_storage_schedule(chain.size()), input, labels);
  const GradSnapshot checkpointed = run_pass(
      chain, revolve::make_schedule(chain.size(), 1), input, labels);
  expect_identical(reference, checkpointed);
}

TEST(Executor, DropoutMasksDifferAcrossPasses) {
  std::mt19937 rng(557);
  nn::LayerChain chain;
  chain.push(std::make_unique<nn::Dropout>(0.5F));
  nn::LayerChainRunner runner(chain, nn::Phase::Train);
  Tensor x = Tensor::full(Shape{1, 256}, 1.0F).reshaped(Shape{1, 256});

  runner.begin_pass();
  Tensor first = runner.forward(0, x, false);
  runner.begin_pass();
  Tensor second = runner.forward(0, x, false);
  EXPECT_GT(Tensor::max_abs_diff(first, second), 0.0F);
}

TEST(Executor, CheckpointingReducesMeasuredPeakMemory) {
  // A deep homogeneous conv chain: the measured footprint of a one-slot
  // Revolve pass must be well below full storage.
  std::mt19937 rng(11);
  nn::LayerChain chain = models::build_conv_chain(40, 8, rng);
  Tensor input = Tensor::randn(Shape{1, 8, 16, 16}, rng);
  // Conv chains have no classifier; seed with a ones cotangent.
  const LossGradFn seed = [](const Tensor& output) {
    return Tensor::full(output.shape(), 1.0F);
  };

  auto measure = [&](const Schedule& schedule) {
    chain.zero_grad();
    chain.clear_saved();
    nn::LayerChainRunner runner(chain, nn::Phase::Train);
    runner.begin_pass();
    ScheduleExecutor executor;
    const ExecutionResult result = executor.run(runner, schedule, input, seed);
    return result.peak_tracked_bytes - result.baseline_bytes;
  };

  const std::size_t full = measure(full_storage_schedule(40));
  const std::size_t tight = measure(revolve::make_schedule(40, 1));
  EXPECT_LT(static_cast<double>(tight), 0.6 * static_cast<double>(full));
}

TEST(Executor, MeasuredPeakTracksSlotCount) {
  std::mt19937 rng(13);
  nn::LayerChain chain = models::build_conv_chain(20, 8, rng);
  Tensor input = Tensor::randn(Shape{1, 8, 12, 12}, rng);
  const LossGradFn seed = [](const Tensor& output) {
    return Tensor::full(output.shape(), 1.0F);
  };
  std::size_t prev = 0;
  for (const int s : {1, 3, 7, 15, 19}) {
    chain.zero_grad();
    chain.clear_saved();
    nn::LayerChainRunner runner(chain, nn::Phase::Train);
    runner.begin_pass();
    ScheduleExecutor executor;
    const ExecutionResult result =
        executor.run(runner, revolve::make_schedule(20, s), input, seed);
    const std::size_t peak =
        result.peak_tracked_bytes - result.baseline_bytes;
    if (prev != 0) {
      EXPECT_GE(peak, prev);  // more slots -> more memory
    }
    prev = peak;
  }
}

TEST(Executor, OutputIsChainOutput) {
  std::mt19937 rng(17);
  nn::LayerChain chain = models::build_conv_chain(4, 4, rng);
  Tensor input = Tensor::randn(Shape{1, 4, 6, 6}, rng);
  const LossGradFn seed = [](const Tensor& output) {
    return Tensor::full(output.shape(), 0.0F);
  };
  nn::LayerChainRunner runner(chain, nn::Phase::Train);
  runner.begin_pass();
  ScheduleExecutor executor;
  const ExecutionResult result =
      executor.run(runner, revolve::make_schedule(4, 1), input, seed);
  ASSERT_TRUE(result.output.defined());
  // Reference forward.
  chain.clear_saved();
  nn::RunContext ctx;
  ctx.save_for_backward = false;
  ctx.first_visit = false;
  Tensor reference = chain.forward(input, ctx);
  EXPECT_LT(Tensor::max_abs_diff(result.output, reference), 1e-6F);
}

// Failure injection: malformed schedules must surface as exceptions, never
// as silent wrong results or undefined behaviour.
/// Passes every call through to another runner, counting forwards.
class CountingRunner : public ChainRunner {
 public:
  explicit CountingRunner(ChainRunner& inner) : inner_(inner) {}

  [[nodiscard]] int num_steps() const override { return inner_.num_steps(); }
  [[nodiscard]] Tensor forward(int step, const Tensor& input,
                               bool save) override {
    ++forwards;
    return inner_.forward(step, input, save);
  }
  [[nodiscard]] Tensor backward(int step, const Tensor& grad_output) override {
    return inner_.backward(step, grad_output);
  }

  int forwards = 0;

 private:
  ChainRunner& inner_;
};

class ExecutorFailureTest : public ::testing::Test {
 protected:
  ExecutorFailureTest() : rng_(91) {
    chain_ = models::build_conv_chain(3, 4, rng_);
    input_ = Tensor::randn(Shape{1, 4, 6, 6}, rng_);
  }

  /// The executor must reject @p schedule before running any of it.
  void expect_throws(const Schedule& schedule) {
    nn::LayerChainRunner layers(chain_, nn::Phase::Train);
    layers.begin_pass();
    CountingRunner runner(layers);
    ScheduleExecutor executor;
    const LossGradFn seed = [](const Tensor& output) {
      return Tensor::full(output.shape(), 0.0F);
    };
    EXPECT_THROW((void)executor.run(runner, schedule, input_, seed),
                 std::logic_error);
    EXPECT_EQ(runner.forwards, 0);
    chain_.clear_saved();
  }

  std::mt19937 rng_;
  nn::LayerChain chain_;
  Tensor input_;
};

TEST_F(ExecutorFailureTest, ForwardFromWrongState) {
  Schedule bad(3, 1);
  bad.store(0, 0);
  bad.forward(1);  // current state is 0
  expect_throws(bad);
}

TEST_F(ExecutorFailureTest, RestoreFromEmptySlot) {
  Schedule bad(3, 2);
  bad.store(0, 0);
  bad.restore(0, 1);
  bad.forward_save(0);
  expect_throws(bad);
}

TEST_F(ExecutorFailureTest, RestoreOfWrongState) {
  // Slot 0 holds state 0, but the schedule claims state 1 and reverses as
  // if it were: replayed blindly, this runs to the end on the wrong state
  // and returns a wrong gradient.
  Schedule bad(3, 1);
  bad.store(0, 0);
  bad.forward(0);
  bad.restore(1, 0);
  bad.forward_save(1);
  bad.forward_save(2);
  bad.backward(2);
  bad.backward(1);
  bad.restore(0, 0);
  bad.forward_save(0);
  bad.backward(0);
  bad.free(0);
  expect_throws(bad);
}

TEST_F(ExecutorFailureTest, BackwardBeforeOutputExists) {
  Schedule bad(3, 1);
  bad.store(0, 0);
  bad.forward_save(0);
  bad.backward(0);  // seeding requires the chain output first
  expect_throws(bad);
}

TEST_F(ExecutorFailureTest, RestoreBetweenOutputAndFirstBackward) {
  // The loss must be seeded from the chain output, not from whatever
  // state a Restore brought back after it.
  Schedule bad(3, 1);
  bad.store(0, 0);
  bad.forward_save(0);
  bad.forward_save(1);
  bad.forward_save(2);
  bad.restore(0, 0);
  bad.backward(2);
  bad.backward(1);
  bad.backward(0);
  bad.free(0);
  expect_throws(bad);
}

TEST_F(ExecutorFailureTest, StoreOfConsumedOutput) {
  // The loss consumes the chain output at the first Backward; storing it
  // afterwards would hand the store an empty tensor.
  Schedule bad(3, 2);
  bad.store(0, 0);
  bad.forward_save(0);
  bad.forward_save(1);
  bad.forward_save(2);
  bad.backward(2);
  bad.store(3, 1);
  bad.backward(1);
  bad.backward(0);
  bad.free(1);
  bad.free(0);
  expect_throws(bad);
}

TEST_F(ExecutorFailureTest, BackwardWithoutSavedInternals) {
  Schedule bad(3, 1);
  bad.store(0, 0);
  bad.forward(0);
  bad.forward(1);
  bad.forward(2);
  bad.restore(0, 0);
  // Step 2 was never run in saving mode; the layer must refuse.
  Schedule seeded(3, 1);
  seeded.store(0, 0);
  seeded.forward(0);
  seeded.forward(1);
  seeded.forward_save(2);
  seeded.backward(2);
  seeded.backward(1);  // no ForwardSave(1) happened
  expect_throws(seeded);
}

TEST_F(ExecutorFailureTest, ScheduleNeverReachingOutput) {
  Schedule bad(3, 1);
  bad.store(0, 0);
  bad.forward(0);
  expect_throws(bad);
}

TEST(Executor, MismatchedStepsThrows) {
  std::mt19937 rng(19);
  nn::LayerChain chain = models::build_conv_chain(4, 4, rng);
  nn::LayerChainRunner runner(chain, nn::Phase::Train);
  ScheduleExecutor executor;
  Tensor input = Tensor::randn(Shape{1, 4, 6, 6}, rng);
  const LossGradFn seed = [](const Tensor& output) {
    return Tensor::full(output.shape(), 0.0F);
  };
  EXPECT_THROW(
      (void)executor.run(runner, revolve::make_schedule(5, 1), input, seed),
      std::logic_error);
}

}  // namespace
}  // namespace edgetrain::core

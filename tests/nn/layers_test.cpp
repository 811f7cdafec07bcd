// Per-layer numerical gradient checks and save-for-backward semantics.
#include "nn/layers.hpp"

#include <gtest/gtest.h>

#include <random>

#include "nn/gradcheck.hpp"

namespace edgetrain::nn {
namespace {

RunContext saving_ctx() {
  RunContext ctx;
  ctx.phase = Phase::Train;
  ctx.save_for_backward = true;
  ctx.first_visit = true;
  return ctx;
}

TEST(Conv2dLayer, GradCheck) {
  std::mt19937 rng(101);
  Conv2d layer(2, 3, 3, 1, 1, true, rng);
  Tensor x = Tensor::randn(Shape{2, 2, 6, 6}, rng);
  const GradCheckResult result = check_layer(layer, x, rng);
  EXPECT_TRUE(result.passed) << "max rel err " << result.max_rel_error;
}

TEST(Conv2dLayer, StridedGradCheck) {
  std::mt19937 rng(103);
  Conv2d layer(2, 4, 3, 2, 1, false, rng);
  Tensor x = Tensor::randn(Shape{1, 2, 8, 8}, rng);
  const GradCheckResult result = check_layer(layer, x, rng);
  EXPECT_TRUE(result.passed) << "max rel err " << result.max_rel_error;
}

TEST(BatchNormLayer, GradCheck) {
  std::mt19937 rng(107);
  BatchNorm2d layer(3);
  Tensor x = Tensor::randn(Shape{2, 3, 4, 4}, rng);
  const GradCheckResult result = check_layer(layer, x, rng, 1e-3F, 8e-2F);
  EXPECT_TRUE(result.passed) << "max rel err " << result.max_rel_error;
}

TEST(LinearLayer, GradCheck) {
  std::mt19937 rng(109);
  Linear layer(6, 4, true, rng);
  Tensor x = Tensor::randn(Shape{3, 6}, rng);
  const GradCheckResult result = check_layer(layer, x, rng);
  EXPECT_TRUE(result.passed) << "max rel err " << result.max_rel_error;
}

TEST(BasicBlockLayer, GradCheckIdentityShortcut) {
  std::mt19937 rng(113);
  BasicBlock layer(4, 4, 1, rng);
  Tensor x = Tensor::randn(Shape{2, 4, 5, 5}, rng);
  const GradCheckResult result =
      check_layer(layer, x, rng, 1e-3F, 8e-2F, /*max_violations=*/2);
  EXPECT_TRUE(result.passed) << "max rel err " << result.max_rel_error;
}

TEST(BasicBlockLayer, GradCheckProjectionShortcut) {
  std::mt19937 rng(127);
  BasicBlock layer(3, 6, 2, rng);
  Tensor x = Tensor::randn(Shape{2, 3, 6, 6}, rng);
  const GradCheckResult result =
      check_layer(layer, x, rng, 1e-3F, 8e-2F, /*max_violations=*/2);
  EXPECT_TRUE(result.passed) << "max rel err " << result.max_rel_error;
}

TEST(BottleneckLayer, GradCheck) {
  std::mt19937 rng(131);
  Bottleneck layer(4, 2, 2, rng);  // projection shortcut, stride 2
  Tensor x = Tensor::randn(Shape{2, 4, 6, 6}, rng);
  // Batch norm centres the pre-activations at zero, so a few probed
  // coordinates legitimately flip a ReLU kink within +-epsilon; allow a
  // handful of outliers (the per-op adjoints are verified tightly in
  // ops_test and the simpler layer checks above).
  const GradCheckResult result =
      check_layer(layer, x, rng, 1e-3F, 1e-1F, /*max_violations=*/4);
  EXPECT_TRUE(result.passed) << result.violations << "/" << result.checks
                             << " outliers, max rel err "
                             << result.max_rel_error;
}

TEST(MaxPoolLayer, GradCheck) {
  std::mt19937 rng(137);
  MaxPool2d layer(2, 2, 0);
  // Distinct values so argmax is stable under the FD perturbation.
  Tensor x = Tensor::uniform(Shape{1, 2, 6, 6}, rng, 0.0F, 10.0F);
  const GradCheckResult result = check_layer(layer, x, rng, 1e-4F, 8e-2F);
  EXPECT_TRUE(result.passed) << "max rel err " << result.max_rel_error;
}

TEST(GlobalAvgPoolLayer, GradCheck) {
  std::mt19937 rng(139);
  GlobalAvgPool layer;
  Tensor x = Tensor::randn(Shape{2, 3, 4, 4}, rng);
  const GradCheckResult result = check_layer(layer, x, rng);
  EXPECT_TRUE(result.passed) << "max rel err " << result.max_rel_error;
}

TEST(ReLULayer, GradCheck) {
  std::mt19937 rng(149);
  ReLU layer;
  // Keep values away from the kink: |x| >= 0.2, alternating signs.
  Tensor x = Tensor::uniform(Shape{2, 3, 4, 4}, rng, 0.2F, 1.0F);
  for (std::int64_t i = 0; i < x.numel(); i += 2) x.at(i) = -x.at(i);
  const GradCheckResult result = check_layer(layer, x, rng, 1e-4F, 5e-2F);
  EXPECT_TRUE(result.passed) << "max rel err " << result.max_rel_error;
}

TEST(DropoutLayer, IdentityInEval) {
  std::mt19937 rng(199);
  Dropout layer(0.5F);
  Tensor x = Tensor::randn(Shape{64}, rng);
  RunContext eval;
  eval.phase = Phase::Eval;
  eval.save_for_backward = false;
  Tensor y = layer.forward(x, eval);
  EXPECT_EQ(Tensor::max_abs_diff(x, y), 0.0F);
}

TEST(DropoutLayer, SamePassTokenSameMask) {
  std::mt19937 rng(211);
  Dropout layer(0.5F);
  Tensor x = Tensor::randn(Shape{256}, rng);
  RunContext ctx = saving_ctx();
  ctx.pass_token = 42;
  Tensor a = layer.forward(x, ctx);
  ctx.first_visit = false;  // recomputation of the same pass
  Tensor b = layer.forward(x, ctx);
  EXPECT_EQ(Tensor::max_abs_diff(a, b), 0.0F);
  ctx.pass_token = 43;  // next pass: fresh mask
  Tensor c = layer.forward(x, ctx);
  EXPECT_GT(Tensor::max_abs_diff(a, c), 0.0F);
}

TEST(DropoutLayer, BackwardAppliesForwardMask) {
  std::mt19937 rng(223);
  Dropout layer(0.5F);
  Tensor x = Tensor::full(Shape{128}, 1.0F);
  RunContext ctx = saving_ctx();
  ctx.pass_token = 9;
  Tensor y = layer.forward(x, ctx);
  Tensor gx = layer.backward(Tensor::full(Shape{128}, 1.0F));
  for (std::int64_t i = 0; i < 128; ++i) {
    EXPECT_EQ(gx.at(i) == 0.0F, y.at(i) == 0.0F) << i;
  }
}

TEST(DropoutLayer, RejectsBadRate) {
  EXPECT_THROW(Dropout{1.0F}, std::invalid_argument);
}

TEST(Layer, BackwardWithoutSaveThrows) {
  std::mt19937 rng(151);
  Conv2d layer(1, 1, 3, 1, 1, false, rng);
  RunContext ctx = saving_ctx();
  ctx.save_for_backward = false;
  Tensor x = Tensor::randn(Shape{1, 1, 4, 4}, rng);
  (void)layer.forward(x, ctx);
  EXPECT_THROW((void)layer.backward(Tensor::zeros(Shape{1, 1, 4, 4})),
               std::logic_error);
}

TEST(Layer, NonSavingForwardRetainsNothing) {
  std::mt19937 rng(157);
  Conv2d layer(4, 4, 3, 1, 1, false, rng);
  Tensor x = Tensor::randn(Shape{1, 4, 16, 16}, rng);
  RunContext ctx = saving_ctx();
  ctx.save_for_backward = false;
  const std::size_t before = MemoryTracker::instance().current_bytes();
  Tensor y = layer.forward(x, ctx);
  const std::size_t after = MemoryTracker::instance().current_bytes();
  // Only the output should remain allocated (plus nothing retained inside).
  EXPECT_LE(after - before, y.bytes() + 64);
}

TEST(Layer, ParamCountsMatchFormulas) {
  std::mt19937 rng(163);
  Conv2d conv(3, 8, 3, 1, 1, false, rng);
  EXPECT_EQ(conv.param_count(), 3 * 8 * 9);
  Conv2d conv_bias(3, 8, 5, 1, 2, true, rng);
  EXPECT_EQ(conv_bias.param_count(), 3 * 8 * 25 + 8);
  BatchNorm2d bn(16);
  EXPECT_EQ(bn.param_count(), 32);
  Linear linear(10, 7, true, rng);
  EXPECT_EQ(linear.param_count(), 77);
  BasicBlock block(8, 8, 1, rng);  // identity shortcut
  EXPECT_EQ(block.param_count(), 8 * 8 * 9 * 2 + 16 * 2);
}

TEST(Layer, OutputShapes) {
  std::mt19937 rng(167);
  Conv2d conv(3, 8, 3, 2, 1, false, rng);
  EXPECT_EQ(conv.output_shape(Shape{2, 3, 32, 32}), (Shape{2, 8, 16, 16}));
  MaxPool2d pool(3, 2, 1);
  EXPECT_EQ(pool.output_shape(Shape{2, 8, 16, 16}), (Shape{2, 8, 8, 8}));
  GlobalAvgPool gap;
  EXPECT_EQ(gap.output_shape(Shape{2, 8, 7, 7}), (Shape{2, 8}));
  Flatten flatten;
  EXPECT_EQ(flatten.output_shape(Shape{2, 8, 4, 4}), (Shape{2, 128}));
  Bottleneck bottleneck(4, 2, 2, rng);
  EXPECT_EQ(bottleneck.output_shape(Shape{1, 4, 8, 8}), (Shape{1, 8, 4, 4}));
}

TEST(Layer, ZeroGradClearsGradients) {
  std::mt19937 rng(173);
  Linear layer(4, 2, true, rng);
  Tensor x = Tensor::randn(Shape{2, 4}, rng);
  (void)layer.forward(x, saving_ctx());
  (void)layer.backward(Tensor::full(Shape{2, 2}, 1.0F));
  std::vector<ParamRef> params;
  layer.collect_params(params);
  EXPECT_GT(params[0].grad->max_abs(), 0.0F);
  layer.zero_grad();
  EXPECT_EQ(params[0].grad->max_abs(), 0.0F);
}

TEST(Layer, GradientsAccumulateAcrossBackwardCalls) {
  std::mt19937 rng(179);
  Linear layer(3, 2, false, rng);
  Tensor x = Tensor::randn(Shape{1, 3}, rng);
  Tensor g = Tensor::full(Shape{1, 2}, 1.0F);
  (void)layer.forward(x, saving_ctx());
  (void)layer.backward(g);
  std::vector<ParamRef> params;
  layer.collect_params(params);
  Tensor once = params[0].grad->clone();
  (void)layer.forward(x, saving_ctx());
  (void)layer.backward(g);
  for (std::int64_t i = 0; i < once.numel(); ++i) {
    EXPECT_FLOAT_EQ(params[0].grad->at(i), 2.0F * once.at(i));
  }
}

TEST(BatchNormLayer, EvalModeUsesRunningStats) {
  std::mt19937 rng(181);
  BatchNorm2d layer(2);
  Tensor x = Tensor::randn(Shape{4, 2, 3, 3}, rng, 2.0F);
  // A few training passes to move the running stats.
  for (int i = 0; i < 5; ++i) (void)layer.forward(x, saving_ctx());
  RunContext eval;
  eval.phase = Phase::Eval;
  eval.save_for_backward = false;
  Tensor y1 = layer.forward(x, eval);
  Tensor y2 = layer.forward(x, eval);
  EXPECT_EQ(Tensor::max_abs_diff(y1, y2), 0.0F);  // deterministic in eval
}

}  // namespace
}  // namespace edgetrain::nn

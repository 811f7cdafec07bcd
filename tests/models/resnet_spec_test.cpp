#include "models/resnet.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <random>
#include <type_traits>

namespace edgetrain::models {
namespace {

// The canonical torchvision trainable-parameter counts (1000 classes).
//
// gtest_discover_tests names each case after the raw bytes of its
// parameter, so the struct must have no padding: padding bytes are
// uninitialised and would change the test names from run to run. The
// explicit zero word fills the gap between the enum and the int64.
struct ParamCase {
  ParamCase(ResNetVariant v, std::int64_t p, int d, int b)
      : variant(v), params(p), depth(d), blocks(b) {}
  ResNetVariant variant;
  std::int32_t zero_pad = 0;
  std::int64_t params;
  int depth;
  int blocks;
};
static_assert(std::has_unique_object_representations_v<ParamCase>);

class ParamCountTest : public ::testing::TestWithParam<ParamCase> {};

TEST_P(ParamCountTest, MatchesCanonicalValue) {
  const ParamCase c = GetParam();
  const ResNetSpec spec = ResNetSpec::make(c.variant);
  EXPECT_EQ(spec.param_count(), c.params);
  EXPECT_EQ(spec.depth(), c.depth);
  // chain steps = stem + blocks + head
  EXPECT_EQ(spec.num_chain_steps(), c.blocks + 2);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, ParamCountTest,
    ::testing::Values(
        ParamCase{ResNetVariant::ResNet18, 11689512, 18, 8},
        ParamCase{ResNetVariant::ResNet34, 21797672, 34, 16},
        ParamCase{ResNetVariant::ResNet50, 25557032, 50, 16},
        ParamCase{ResNetVariant::ResNet101, 44549160, 101, 33},
        ParamCase{ResNetVariant::ResNet152, 60192808, 152, 50}));

TEST(ResNetSpec, ActivationsLinearInBatch) {
  const ResNetSpec spec = ResNetSpec::make(ResNetVariant::ResNet34);
  const std::int64_t one = spec.activation_elems(224, 1);
  for (const std::int64_t k : {2, 3, 8, 30}) {
    EXPECT_EQ(spec.activation_elems(224, k), k * one);
  }
}

TEST(ResNetSpec, ActivationsGrowWithImageSize) {
  const ResNetSpec spec = ResNetSpec::make(ResNetVariant::ResNet50);
  std::int64_t prev = 0;
  for (const int image : {64, 128, 224, 350, 500}) {
    const std::int64_t elems = spec.activation_elems(image, 1);
    EXPECT_GT(elems, prev);
    prev = elems;
  }
}

TEST(ResNetSpec, ActivationsApproximatelyAreaScaled) {
  // The exact conv arithmetic should track (s/224)^2 within a few percent
  // for sizes that are multiples of the stride structure.
  const ResNetSpec spec = ResNetSpec::make(ResNetVariant::ResNet18);
  const double base = static_cast<double>(spec.activation_elems(224, 1));
  for (const int image : {448, 896}) {
    const double scale = static_cast<double>(image) / 224.0;
    const double expect = base * scale * scale;
    const double got = static_cast<double>(spec.activation_elems(image, 1));
    EXPECT_NEAR(got / expect, 1.0, 0.03) << "image " << image;
  }
}

TEST(ResNetSpec, ChainStepActivationsSumToTotal) {
  for (const ResNetVariant v : all_resnet_variants()) {
    const ResNetSpec spec = ResNetSpec::make(v);
    const auto per_step = spec.chain_step_activation_elems(224, 2);
    const std::int64_t sum =
        std::accumulate(per_step.begin(), per_step.end(), std::int64_t{0});
    EXPECT_EQ(sum, spec.activation_elems(224, 2)) << spec.name();
    EXPECT_EQ(static_cast<int>(per_step.size()), spec.num_chain_steps());
  }
}

TEST(ResNetSpec, ChainStepCostsArePositiveAndConvDominated) {
  const ResNetSpec spec = ResNetSpec::make(ResNetVariant::ResNet18);
  const auto costs = spec.chain_step_forward_costs(224, 1);
  ASSERT_EQ(static_cast<int>(costs.size()), spec.num_chain_steps());
  double total = 0.0;
  for (const double c : costs) {
    EXPECT_GT(c, 0.0);
    total += c;
  }
  // ResNet-18 at 224 is ~1.8 GMAC; our op-level count should be in range.
  EXPECT_GT(total, 1.5e9);
  EXPECT_LT(total, 2.5e9);
}

TEST(ResNetSpec, BottleneckFlagMatchesVariant) {
  EXPECT_FALSE(uses_bottleneck(ResNetVariant::ResNet18));
  EXPECT_FALSE(uses_bottleneck(ResNetVariant::ResNet34));
  EXPECT_TRUE(uses_bottleneck(ResNetVariant::ResNet50));
  EXPECT_TRUE(uses_bottleneck(ResNetVariant::ResNet101));
  EXPECT_TRUE(uses_bottleneck(ResNetVariant::ResNet152));
}

TEST(ResNetSpec, CustomClassCountChangesOnlyHead) {
  const ResNetSpec base = ResNetSpec::make(ResNetVariant::ResNet18, 1000);
  const ResNetSpec small = ResNetSpec::make(ResNetVariant::ResNet18, 10);
  EXPECT_EQ(base.param_count() - small.param_count(),
            512 * 990 + 990);  // fc weight + bias delta
}

TEST(BuildResNetChain, ParamsMatchSpecAndForwardRuns) {
  std::mt19937 rng(401);
  // Use the 18-layer variant with a small class count on a small image.
  nn::LayerChain chain =
      build_resnet_chain(ResNetVariant::ResNet18, 10, 3, rng);
  const ResNetSpec spec = ResNetSpec::make(ResNetVariant::ResNet18, 10);
  EXPECT_EQ(chain.param_count(), spec.param_count());
  // The executable chain splits the stem into 4 layers and the head into 2.
  EXPECT_EQ(chain.size(), spec.num_chain_steps() + 4);

  Tensor x = Tensor::randn(Shape{1, 3, 64, 64}, rng);
  nn::RunContext ctx;
  ctx.save_for_backward = false;
  Tensor y = chain.forward(x, ctx);
  EXPECT_EQ(y.shape(), (Shape{1, 10}));
}

}  // namespace
}  // namespace edgetrain::models

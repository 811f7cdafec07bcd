#include "models/vgg.hpp"

#include <gtest/gtest.h>

#include <type_traits>

#include "models/memory_model.hpp"

namespace edgetrain::models {
namespace {

// Canonical torchvision parameter counts (plain VGG, 1000 classes).
//
// Padding-free for the same reason as ParamCase in resnet_spec_test: the
// discovered test names print the parameter's raw bytes.
struct VggCase {
  VggCase(VggVariant v, std::int64_t p) : variant(v), params(p) {}
  VggVariant variant;
  std::int32_t zero_pad = 0;
  std::int64_t params;
};
static_assert(std::has_unique_object_representations_v<VggCase>);

class VggParamTest : public ::testing::TestWithParam<VggCase> {};

TEST_P(VggParamTest, MatchesCanonicalValue) {
  const VggCase c = GetParam();
  EXPECT_EQ(VggSpec::make(c.variant).param_count(), c.params);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, VggParamTest,
    ::testing::Values(VggCase{VggVariant::Vgg11, 132863336},
                      VggCase{VggVariant::Vgg13, 133047848},
                      VggCase{VggVariant::Vgg16, 138357544},
                      VggCase{VggVariant::Vgg19, 143667240}));

TEST(VggSpec, ActivationsLinearInBatch) {
  const VggSpec spec = VggSpec::make(VggVariant::Vgg16);
  const std::int64_t one = spec.activation_elems(224, 1);
  EXPECT_EQ(spec.activation_elems(224, 4), 4 * one);
}

TEST(VggSpec, DeeperVariantsUseMoreActivations) {
  std::int64_t prev = 0;
  for (const VggVariant v : all_vgg_variants()) {
    const std::int64_t elems = VggSpec::make(v).activation_elems(224, 1);
    EXPECT_GT(elems, prev) << name_of(v);
    prev = elems;
  }
}

TEST(VggSpec, FixedStateDominatesWaggleBudget) {
  // The edge-relevant headline: VGG's fixed training state (weights, grads,
  // two Adam moments = 16 bytes/param) consumes ~99% of the 2 GB budget
  // for every variant, and strictly exceeds it for VGG-16/19. Activation
  // checkpointing cannot reduce fixed state, so the VGG family is
  // effectively untrainable on the Waggle node no matter the schedule --
  // unlike every ResNet, whose fixed state tops out at ~45% of the budget.
  for (const VggVariant v : all_vgg_variants()) {
    const VggSpec spec = VggSpec::make(v);
    const double fixed_bytes =
        4.0 * static_cast<double>(spec.param_count()) * 4.0;
    EXPECT_GT(fixed_bytes, 0.98 * kWaggleMemoryBytes) << name_of(v);
    if (v == VggVariant::Vgg16 || v == VggVariant::Vgg19) {
      EXPECT_GT(fixed_bytes, kWaggleMemoryBytes) << name_of(v);
    }
  }
  // ResNet contrast: even ResNet-152's fixed state is under half the budget.
  const ResNetMemoryModel biggest(ResNetSpec::make(ResNetVariant::ResNet152));
  EXPECT_LT(biggest.fixed_bytes(), 0.5 * kWaggleMemoryBytes);
}

TEST(VggSpec, NamesAndDepths) {
  EXPECT_EQ(name_of(VggVariant::Vgg16), "VGG16");
  EXPECT_EQ(depth_of(VggVariant::Vgg19), 19);
  EXPECT_EQ(VggSpec::make(VggVariant::Vgg11).depth(), 11);
}

}  // namespace
}  // namespace edgetrain::models

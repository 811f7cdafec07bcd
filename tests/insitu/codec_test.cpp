#include "insitu/codec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "insitu/scene.hpp"

namespace edgetrain::insitu {
namespace {

GrayImage gradient_image(int h, int w) {
  GrayImage image(h, w);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      image.at(y, x) = 0.5F + 0.4F * std::sin(0.07F * static_cast<float>(x)) *
                                  std::cos(0.05F * static_cast<float>(y));
    }
  }
  return image;
}

TEST(Codec, RoundTripPreservesDimensions) {
  for (const auto& [h, w] : {std::pair{8, 8}, std::pair{24, 24},
                             std::pair{17, 31}, std::pair{224, 224}}) {
    const GrayImage image = gradient_image(h, w);
    const GrayImage decoded = decode_image(encode_image(image, 50));
    EXPECT_EQ(decoded.height, h);
    EXPECT_EQ(decoded.width, w);
  }
}

TEST(Codec, SmoothImageHighPsnrAtQuality50) {
  const GrayImage image = gradient_image(64, 64);
  const GrayImage decoded = decode_image(encode_image(image, 50));
  EXPECT_GT(psnr(image, decoded), 32.0);
}

TEST(Codec, FlatImageIsTinyAndNearLossless) {
  GrayImage image(32, 32);
  for (auto& p : image.pixels) p = 0.5F;
  const auto bytes = encode_image(image, 50);
  EXPECT_LT(bytes.size(), 80U);  // ~4 bytes per block + header
  const GrayImage decoded = decode_image(bytes);
  EXPECT_GT(psnr(image, decoded), 45.0);
}

TEST(Codec, QualityTradesSizeForFidelity) {
  const GrayImage image = gradient_image(64, 64);
  const auto low = encode_image(image, 10);
  const auto high = encode_image(image, 90);
  EXPECT_LT(low.size(), high.size());
  EXPECT_LT(psnr(image, decode_image(low)), psnr(image, decode_image(high)));
}

// The paper's storage claim: a 224x224 image in "less than 10kb".
TEST(Codec, PaperTenKilobyteClaimAt224) {
  // Synthetic street-scene-like content: background texture + objects.
  SceneConfig config;
  config.frame_width = 224;
  config.frame_height = 224;
  config.object_size = 48;
  config.num_classes = 4;
  config.noise = 0.02F;
  config.seed = 31;
  SceneSimulator sim(config);
  Frame frame = sim.next_frame(1.0F, 3);
  for (int i = 0; i < 5; ++i) frame = sim.next_frame(1.0F, 3);

  const auto bytes = encode_image(frame.image, 50);
  EXPECT_LT(bytes.size(), 10U * 1024U) << bytes.size() << " bytes";
  EXPECT_GT(psnr(frame.image, decode_image(bytes)), 28.0);
}

TEST(Codec, NoiseCostsBits) {
  GrayImage clean = gradient_image(64, 64);
  GrayImage noisy = clean;
  std::mt19937 rng(3);
  std::normal_distribution<float> noise(0.0F, 0.08F);
  for (auto& p : noisy.pixels) {
    p = std::clamp(p + noise(rng), 0.0F, 1.0F);
  }
  EXPECT_GT(encode_image(noisy, 50).size(), encode_image(clean, 50).size());
}

TEST(Codec, RejectsMalformedPayloads) {
  const GrayImage image = gradient_image(16, 16);
  auto bytes = encode_image(image, 50);
  // Bad magic.
  auto bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW((void)decode_image(bad_magic), std::runtime_error);
  // Truncated.
  auto truncated = bytes;
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW((void)decode_image(truncated), std::runtime_error);
  // Trailing garbage.
  auto trailing = bytes;
  trailing.push_back(0x01);
  EXPECT_THROW((void)decode_image(trailing), std::runtime_error);
}

TEST(Codec, RejectsEmptyImage) {
  GrayImage empty;
  EXPECT_THROW((void)encode_image(empty, 50), std::invalid_argument);
}

TEST(Psnr, IdenticalImagesAreInfinite) {
  const GrayImage image = gradient_image(8, 8);
  EXPECT_TRUE(std::isinf(psnr(image, image)));
}

TEST(Psnr, KnownValue) {
  GrayImage a(2, 2);
  GrayImage b(2, 2);
  for (auto& p : b.pixels) p = 0.1F;  // MSE = 0.01
  EXPECT_NEAR(psnr(a, b), 20.0, 1e-4);
}

TEST(Psnr, SizeMismatchThrows) {
  GrayImage a(2, 2);
  GrayImage b(2, 3);
  EXPECT_THROW((void)psnr(a, b), std::invalid_argument);
}

TEST(Codec, GlyphPatchesSurviveForClassification) {
  // Codec artefacts must not destroy glyph identity at patch scale.
  SceneConfig config;
  config.seed = 77;
  SceneSimulator sim(config);
  for (std::int32_t label = 0; label < 4; ++label) {
    GrayImage patch(24, 24);
    patch.pixels = sim.canonical_patch(label, 24);
    const GrayImage decoded = decode_image(encode_image(patch, 50));
    EXPECT_GT(psnr(patch, decoded), 22.0) << "label " << label;
  }
}

}  // namespace
}  // namespace edgetrain::insitu

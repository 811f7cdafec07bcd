#include "insitu/teacher.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "models/small_nets.hpp"
#include "nn/trainer.hpp"
#include "tensor/ops.hpp"

namespace edgetrain::insitu {

void PatchDataset::add(std::vector<float> pixels, std::int32_t label) {
  if (pixels.size() != static_cast<std::size_t>(patch_) *
                           static_cast<std::size_t>(patch_)) {
    throw std::invalid_argument("PatchDataset::add: pixel count mismatch");
  }
  patches_.push_back(std::move(pixels));
  labels_.push_back(label);
}

void PatchDataset::shuffle(std::mt19937& rng) {
  std::vector<std::size_t> order(labels_.size());
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<std::vector<float>> patches;
  std::vector<std::int32_t> labels;
  patches.reserve(order.size());
  labels.reserve(order.size());
  for (const std::size_t i : order) {
    patches.push_back(std::move(patches_[i]));
    labels.push_back(labels_[i]);
  }
  patches_ = std::move(patches);
  labels_ = std::move(labels);
}

Tensor PatchDataset::batch(std::size_t begin, std::size_t count) const {
  const auto n = static_cast<std::int64_t>(count);
  Tensor out = Tensor::empty(
      Shape{n, 1, patch_, patch_});
  float* dst = out.data();
  const std::size_t per = static_cast<std::size_t>(patch_) *
                          static_cast<std::size_t>(patch_);
  for (std::size_t i = 0; i < count; ++i) {
    std::copy(patches_[begin + i].begin(), patches_[begin + i].end(),
              dst + i * per);
  }
  return out;
}

std::vector<std::int32_t> PatchDataset::label_slice(std::size_t begin,
                                                    std::size_t count) const {
  return {labels_.begin() + static_cast<std::ptrdiff_t>(begin),
          labels_.begin() + static_cast<std::ptrdiff_t>(begin + count)};
}

Tensor PatchDataset::gather(const std::vector<std::size_t>& indices) const {
  Tensor out = Tensor::empty(
      Shape{static_cast<std::int64_t>(indices.size()), 1, patch_, patch_});
  float* dst = out.data();
  const std::size_t per = static_cast<std::size_t>(patch_) *
                          static_cast<std::size_t>(patch_);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const std::vector<float>& src = patches_.at(indices[i]);
    std::copy(src.begin(), src.end(), dst + i * per);
  }
  return out;
}

std::vector<std::int32_t> PatchDataset::gather_labels(
    const std::vector<std::size_t>& indices) const {
  std::vector<std::int32_t> out;
  out.reserve(indices.size());
  for (const std::size_t i : indices) out.push_back(labels_.at(i));
  return out;
}

std::vector<std::pair<std::int32_t, float>> predictions_from_logits(
    const Tensor& logits) {
  const std::int64_t n = logits.shape()[0];
  const std::int64_t k = logits.shape()[1];
  std::vector<std::pair<std::int32_t, float>> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = logits.data() + i * k;
    float mx = row[0];
    std::int32_t best = 0;
    for (std::int64_t j = 1; j < k; ++j) {
      if (row[j] > mx) {
        mx = row[j];
        best = static_cast<std::int32_t>(j);
      }
    }
    double denom = 0.0;
    for (std::int64_t j = 0; j < k; ++j) {
      denom += std::exp(static_cast<double>(row[j]) - mx);
    }
    out.emplace_back(best, static_cast<float>(1.0 / denom));
  }
  return out;
}

nn::TrainerOptions trainer_options(const TrainOptions& options) {
  nn::TrainerOptions trainer;
  trainer.strategy = options.checkpoint_free_slots >= 0
                         ? nn::CheckpointStrategy::Revolve
                         : nn::CheckpointStrategy::FullStorage;
  trainer.free_slots = std::max(options.checkpoint_free_slots, 0);
  trainer.lr = options.lr;
  trainer.momentum = options.momentum;
  return trainer;
}

PatchClassifier::PatchClassifier(int patch, int num_classes,
                                 std::int64_t base_channels,
                                 std::uint32_t seed)
    : patch_(patch), num_classes_(num_classes), rng_(seed) {
  chain_ = models::build_patch_cnn(patch, 1, base_channels, num_classes, rng_);
}

TrainStats PatchClassifier::train(const PatchDataset& data,
                                  const TrainOptions& options,
                                  PatchClassifier* distill_from) {
  if (data.empty()) throw std::invalid_argument("train: empty dataset");
  TrainStats stats;

  nn::Trainer trainer(chain_, trainer_options(options));

  // Covers every executor pass (including checkpointed recompute) so all
  // forwards of a step agree on precision; optimizer state stays fp32.
  std::optional<ops::ScopedGemmPrecision> precision_scope;
  if (options.bf16_compute) {
    precision_scope.emplace(ops::GemmPrecision::Bf16);
  }

  PatchDataset shuffled = data;  // local copy we can reshuffle per epoch
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    shuffled.shuffle(rng_);
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t begin = 0; begin + 1 <= shuffled.size();
         begin += static_cast<std::size_t>(options.batch_size)) {
      const std::size_t count = std::min(
          static_cast<std::size_t>(options.batch_size),
          shuffled.size() - begin);
      if (count < 2) break;  // batch norm needs > 1 sample
      Tensor x = shuffled.batch(begin, count);
      const std::vector<std::int32_t> labels =
          shuffled.label_slice(begin, count);

      Tensor teacher_logits;
      if (distill_from != nullptr) teacher_logits = distill_from->logits(x);

      float loss_value = 0.0F;
      const core::LossGradFn loss_grad = [&](const Tensor& student_logits) {
        if (distill_from != nullptr) {
          ops::DistillResult result = ops::distill_loss(
              student_logits, teacher_logits, labels, options.distill_alpha,
              options.distill_temperature);
          loss_value = result.loss;
          return std::move(result.grad_student_logits);
        }
        ops::SoftmaxXentResult result =
            ops::softmax_xent_forward(student_logits, labels);
        loss_value = result.loss;
        return ops::softmax_xent_backward(result.probs, labels);
      };
      const nn::StepStats step = trainer.step_with_loss(x, loss_grad);

      epoch_loss += loss_value;
      ++batches;
      stats.peak_step_bytes = std::max(stats.peak_step_bytes, step.peak_bytes);
      stats.total_advances += step.advances;
    }
    stats.epoch_losses.push_back(
        batches > 0 ? static_cast<float>(epoch_loss / static_cast<double>(batches))
                    : 0.0F);
  }
  return stats;
}

Tensor PatchClassifier::logits(const Tensor& batch) {
  nn::RunContext ctx;
  ctx.phase = nn::Phase::Eval;
  ctx.save_for_backward = false;
  return chain_.forward(batch, ctx);
}

std::pair<std::int32_t, float> PatchClassifier::predict(
    const std::vector<float>& pixels) {
  Tensor x = Tensor::empty(Shape{1, 1, patch_, patch_});
  std::copy(pixels.begin(), pixels.end(), x.data());
  nn::RunContext ctx;
  ctx.phase = nn::Phase::Eval;
  ctx.save_for_backward = false;
  Tensor logits = chain_.forward(x, ctx);

  const std::int64_t k = logits.shape()[1];
  float mx = logits.data()[0];
  std::int32_t best = 0;
  for (std::int64_t j = 1; j < k; ++j) {
    if (logits.data()[j] > mx) {
      mx = logits.data()[j];
      best = static_cast<std::int32_t>(j);
    }
  }
  double denom = 0.0;
  for (std::int64_t j = 0; j < k; ++j) {
    denom += std::exp(static_cast<double>(logits.data()[j]) - mx);
  }
  return {best, static_cast<float>(1.0 / denom)};
}

std::vector<std::pair<std::int32_t, float>> PatchClassifier::predict_batch(
    const Tensor& batch) {
  return predictions_from_logits(logits(batch));
}

double PatchClassifier::evaluate(const PatchDataset& data) {
  if (data.empty()) return 0.0;
  nn::RunContext ctx;
  ctx.phase = nn::Phase::Eval;
  ctx.save_for_backward = false;
  std::size_t correct = 0;
  constexpr std::size_t kBatch = 32;
  for (std::size_t begin = 0; begin < data.size(); begin += kBatch) {
    const std::size_t count = std::min(kBatch, data.size() - begin);
    Tensor logits = chain_.forward(data.batch(begin, count), ctx);
    const std::vector<std::int32_t> predictions = ops::argmax_rows(logits);
    const std::vector<std::int32_t> truth = data.label_slice(begin, count);
    for (std::size_t i = 0; i < count; ++i) {
      if (predictions[i] == truth[i]) ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

}  // namespace edgetrain::insitu

// edgetrain: patch classifier used for both the teacher and the student.
//
// A small CNN over grayscale patches. Training runs through the schedule
// executor, so the student can be trained under a Waggle-style memory cap
// with a Revolve schedule while the (cloud-side) teacher trains with full
// storage -- the paper's Section III + Section VI combination in one class.
#pragma once

#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "nn/chain.hpp"
#include "nn/trainer.hpp"
#include "tensor/tensor.hpp"

namespace edgetrain::insitu {

/// Labelled patch dataset (patches are patch*patch grayscale vectors).
class PatchDataset {
 public:
  explicit PatchDataset(int patch) : patch_(patch) {}

  void add(std::vector<float> pixels, std::int32_t label);
  [[nodiscard]] std::size_t size() const noexcept { return labels_.size(); }
  [[nodiscard]] bool empty() const noexcept { return labels_.empty(); }
  [[nodiscard]] int patch() const noexcept { return patch_; }
  [[nodiscard]] const std::vector<std::int32_t>& labels() const noexcept {
    return labels_;
  }

  void shuffle(std::mt19937& rng);

  /// NCHW tensor of examples [begin, begin+count) and their labels.
  [[nodiscard]] Tensor batch(std::size_t begin, std::size_t count) const;
  [[nodiscard]] std::vector<std::int32_t> label_slice(std::size_t begin,
                                                      std::size_t count) const;

  /// NCHW tensor of arbitrary examples (for random minibatch sampling from
  /// datasets whose storage order is correlated, e.g. by track).
  [[nodiscard]] Tensor gather(const std::vector<std::size_t>& indices) const;
  [[nodiscard]] std::vector<std::int32_t> gather_labels(
      const std::vector<std::size_t>& indices) const;

 private:
  int patch_;
  std::vector<std::vector<float>> patches_;
  std::vector<std::int32_t> labels_;
};

struct TrainOptions {
  int epochs = 8;
  int batch_size = 16;
  float lr = 0.05F;
  float momentum = 0.9F;
  /// Train through a Revolve schedule with this many free checkpoint slots
  /// (-1 = full storage, the rho = 1 baseline).
  int checkpoint_free_slots = -1;
  /// Knowledge distillation (used when train() is given a teacher):
  /// loss = alpha * CE(hard labels) + (1-alpha) * T^2 * KL(teacher, student).
  float distill_alpha = 0.3F;
  float distill_temperature = 2.0F;
  /// Mixed-precision training: forward/backward GEMMs round their operands
  /// to bfloat16 (fp32 accumulate) while weights, gradients and optimizer
  /// state stay fp32 masters (ops::ScopedGemmPrecision around the executor
  /// run, so checkpointed recompute passes use the same precision and
  /// schedules remain bit-deterministic).
  bool bf16_compute = false;
};

struct TrainStats {
  std::vector<float> epoch_losses;
  std::size_t peak_step_bytes = 0;     ///< max executor footprint over steps
  std::int64_t total_advances = 0;     ///< recomputation forwards executed
  [[nodiscard]] float final_loss() const {
    return epoch_losses.empty() ? 0.0F : epoch_losses.back();
  }
};

/// The nn::Trainer configuration a TrainOptions trains through: Revolve
/// with checkpoint_free_slots free slots (full storage when negative) and
/// SGD at lr and momentum.
[[nodiscard]] nn::TrainerOptions trainer_options(const TrainOptions& options);

/// Row-wise argmax label + softmax confidence of that label, one pair per
/// row of logits[N,K]; the numeric recipe (max-subtracted double-precision
/// denominator) matches PatchClassifier::predict exactly, so fp32 batched,
/// fp32 per-patch and quantized teachers all score confidence identically.
[[nodiscard]] std::vector<std::pair<std::int32_t, float>>
predictions_from_logits(const Tensor& logits);

class PatchClassifier {
 public:
  PatchClassifier(int patch, int num_classes, std::int64_t base_channels,
                  std::uint32_t seed);

  [[nodiscard]] int num_classes() const noexcept { return num_classes_; }
  [[nodiscard]] int patch() const noexcept { return patch_; }
  [[nodiscard]] nn::LayerChain& chain() noexcept { return chain_; }

  /// SGD training over the dataset; see TrainOptions for checkpointing.
  /// When @p distill_from is non-null its temperature-softened predictions
  /// are mixed into the loss (Hinton distillation; paper citation [7]).
  TrainStats train(const PatchDataset& data, const TrainOptions& options,
                   PatchClassifier* distill_from = nullptr);

  /// Predicted label and softmax confidence for one patch.
  [[nodiscard]] std::pair<std::int32_t, float> predict(
      const std::vector<float>& pixels);

  /// Batched predict: one chain forward for all rows of @p batch
  /// ([N,1,p,p]), amortizing per-call layer overhead across patches. Per
  /// row the result is bit-identical to predict() on that patch alone
  /// (every kernel in the eval chain computes each image independently;
  /// asserted by tests/insitu/quant_classifier_test.cpp).
  [[nodiscard]] std::vector<std::pair<std::int32_t, float>> predict_batch(
      const Tensor& batch);

  /// Eval-mode logits for a batch tensor [N,1,p,p].
  [[nodiscard]] Tensor logits(const Tensor& batch);

  /// Accuracy over a dataset (eval mode, batched).
  [[nodiscard]] double evaluate(const PatchDataset& data);

 private:
  int patch_;
  int num_classes_;
  std::mt19937 rng_;
  nn::LayerChain chain_;
};

}  // namespace edgetrain::insitu

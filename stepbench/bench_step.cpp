// bench_step: the end-to-end training-step benchmark.
//
// One process runs one workload as a closed loop: one caller, and each
// step starts when the previous one returns. The compute pool is fixed at
// one thread. A run sets the workload up five times (setup_s is the
// median), runs 8 untimed warm-up steps, then times steps for --seconds of
// wall clock (and at least 200 steps). The step mirrors
// nn::Trainer::step_with_loss (zero_grad ->
// begin_pass -> ScheduleExecutor::run -> Optimizer::step); it is written
// out here so the benchmark chooses the slot store and can wrap the runner
// and the store with the timers of step_timing.hpp.
//
// --trace 0 times unwrapped steps and reports the end-to-end metrics.
// --trace 1 alternates blocks of unwrapped and wrapped steps: the wrapped
// steps give the per-layer metrics and a Chrome trace of the last 20 of
// them, and the ratio of the two medians is the tracing overhead.
//
// Each run checks its own output and exits nonzero when a check fails:
// after the timed phase one probe step must reproduce full-storage
// RamSlotStore gradients bit for bit, every loss must be finite, the
// harvester's label purity must reach 0.95, and no spill, snapshot or tmp
// file may remain in the run's private directory.
//
// usage: bench_step --workload NAME --seed S --seconds T --trace 0|1
//                   --tmp DIR [--out FILE] [--trace-out FILE]
//                   [--calib-profile FILE]
//        bench_step --selfcheck --tmp DIR
// The last line of standard output is the run's result as one JSON object.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "calib/calibrate.hpp"
#include "calib/chain_costs.hpp"
#include "core/async_slot_store.hpp"
#include "core/executor.hpp"
#include "core/revolve.hpp"
#include "core/slot_store.hpp"
#include "insitu/harvester.hpp"
#include "insitu/scene.hpp"
#include "insitu/teacher.hpp"
#include "models/resnet.hpp"
#include "models/small_nets.hpp"
#include "nn/chain_runner.hpp"
#include "nn/optim.hpp"
#include "nn/serialize.hpp"
#include "persist/crc32.hpp"
#include "persist/io_latency.hpp"
#include "persist/resumable.hpp"
#include "persist/snapshot.hpp"
#include "step_timing.hpp"
#include "tensor/alloc.hpp"
#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"

namespace edgetrain::stepbench {
namespace {

namespace fs = std::filesystem;

// One compute thread: on a shared 4-CPU host a second pool thread left the
// ResNet steps' median unchanged (batch-1 kernels barely use it), made
// harvest_train's tiny steps 22% slower and tripled their run-to-run
// spread.
constexpr unsigned kComputeThreads = 1;
constexpr int kSetupRepeats = 5;
constexpr int kWarmupSteps = 8;
/// Runs go past --seconds until this many steps, so that at least 10
/// samples lie beyond step_ms_p95.
constexpr std::int64_t kMinTimedSteps = 200;
constexpr std::size_t kMaxTimedSteps = 1 << 20;
/// Traced runs alternate blocks of this many unwrapped and wrapped steps.
constexpr std::int64_t kTraceBlock = 8;
constexpr std::size_t kTraceRingSteps = 20;
constexpr std::size_t kLossWindow = 64;
/// The weights CRC after this many timed steps does not depend on how many
/// steps the run's wall-clock budget allows, so it fingerprints a seed.
constexpr std::int64_t kFingerprintSteps = 32;
constexpr int kSelfcheckSteps = 3;
constexpr double kMiB = 1024.0 * 1024.0;

const std::array<const char*, 4> kWorkloads = {
    "resnet18_full", "resnet18_revolve_bitmap", "convchain_spill_sd",
    "harvest_train"};

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::array<MetricDef, 6> kEndToEnd = {{
    {"step_ms_p50", "ms"},
    {"step_ms_p95", "ms"},
    {"samples_per_s", "1/s"},
    {"peak_tracked_mib", "MiB"},
    {"rss_peak_mib", "MiB"},
    {"setup_s", "s"},
}};

const std::array<MetricDef, 43> kPerLayer = {{
    {"nn.forward_ms", "ms"},
    {"nn.recompute_ms", "ms"},
    {"nn.backward_ms", "ms"},
    {"nn.loss_ms", "ms"},
    {"nn.optimizer_ms", "ms"},
    {"nn.loss_final", "loss"},
    {"core.recomputes_per_step", "count"},
    {"core.rho_analytic", "ratio"},
    {"core.rho_measured", "ratio"},
    {"core.executor_other_ms", "ms"},
    {"core.unattributed_frac", "ratio"},
    {"core.store_put_ms", "ms"},
    {"core.store_get_ms", "ms"},
    {"core.store_other_ms", "ms"},
    {"core.store_puts_per_step", "count"},
    {"core.store_gets_per_step", "count"},
    {"core.codec_ratio", "ratio"},
    {"core.store_resident_peak_mib", "MiB"},
    {"core.disk_writes_per_step", "count"},
    {"core.disk_reads_per_step", "count"},
    {"core.blocking_reads_per_step", "count"},
    {"core.write_behind_hits_per_step", "count"},
    {"core.prefetch_hit_frac", "ratio"},
    {"persist.snapshot_ms_mean", "ms"},
    {"persist.snapshot_ms_max", "ms"},
    {"persist.snapshot_kib", "KiB"},
    {"persist.snapshots", "count"},
    {"insitu.harvest_ms", "ms"},
    {"insitu.frames_per_s", "1/s"},
    {"insitu.gather_ms", "ms"},
    {"insitu.queries_per_step", "count"},
    {"insitu.quantized_frac", "ratio"},
    {"insitu.label_purity", "ratio"},
    {"insitu.dropped_frac", "ratio"},
    {"insitu.teacher_train_s", "s"},
    {"tensor.fwd_gflops", "GFLOP/s"},
    {"tensor.allocs_per_step", "count"},
    {"tensor.scratch_allocs_per_step", "count"},
    {"calib.step_pred_err_pct", "%"},
    {"calib.fwd_pred_err_pct_median", "%"},
    {"models.build_s", "s"},
    {"core.plan_s", "s"},
    {"trace_overhead_pct", "%"},
}};

using Metrics = std::map<std::string, double>;

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

template <typename F>
double time_seconds(F&& fn) {
  const std::int64_t begin = now_ns();
  fn();
  return static_cast<double>(now_ns() - begin) * 1e-9;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.bytes()) == 0;
}

std::uint32_t weights_crc(nn::LayerChain& chain) {
  const std::vector<std::uint8_t> bytes = nn::serialize_weights(chain);
  return persist::crc32(bytes.data(), bytes.size());
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (const double v : values) {
    if (out.size() > 1) out += ", ";
    out += json_number(v);
  }
  return out + "]";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// ---------------------------------------------------------------------------
// The training step
// ---------------------------------------------------------------------------

enum class Head : std::uint8_t { SoftmaxXent, Mse };

/// Chain, schedule, store and SGD of one workload, stepped like
/// nn::Trainer::step_with_loss. The wrapped runner and store are built
/// once, so a wrapped step allocates nothing the unwrapped one does not.
class TrainCore {
 public:
  TrainCore(nn::LayerChain chain, core::Schedule schedule,
            std::unique_ptr<core::SlotStore> store, Head head, float lr,
            float momentum)
      : chain_(std::move(chain)),
        schedule_(std::move(schedule)),
        store_(std::move(store)),
        head_(head),
        optimizer_(chain_.params(), lr, momentum),
        runner_(chain_, nn::Phase::Train),
        log_(2 * schedule_.size() + 64),
        timed_runner_(runner_, log_),
        timed_store_(*store_, log_),
        loss_fn_([this](const Tensor& y) { return loss_grad(y); }) {}
  TrainCore(const TrainCore&) = delete;
  TrainCore& operator=(const TrainCore&) = delete;

  void set_labels(const std::vector<std::int32_t>& labels) { labels_ = labels; }
  void set_target(const Tensor& target) { target_ = target; }

  /// One optimisation step on @p x; returns its loss.
  float step(const Tensor& x, bool wrapped) {
    wrapped_ = wrapped;
    SpanLog* log = wrapped ? &log_ : nullptr;
    {
      const ScopedSpan span(log, SpanKind::ZeroGrad);
      optimizer_.zero_grad();
      if (wrapped) {
        timed_runner_.begin_pass();
      } else {
        runner_.begin_pass();
      }
    }
    core::ExecutionResult result;
    {
      const ScopedSpan span(log, SpanKind::Run);
      result = wrapped ? executor_.run(timed_runner_, schedule_, x, loss_fn_,
                                       timed_store_)
                       : executor_.run(runner_, schedule_, x, loss_fn_, *store_);
    }
    {
      const ScopedSpan span(log, SpanKind::Optimizer);
      optimizer_.step();
    }
    peak_bytes_ = std::max(peak_bytes_, result.peak_tracked_bytes -
                                            std::min(result.peak_tracked_bytes,
                                                     result.baseline_bytes));
    return last_loss_;
  }

  /// Empty when the configured schedule and store reproduce the input and
  /// parameter gradients of full storage with a RamSlotStore bit for bit on
  /// @p x, from the current weights; otherwise names what differed.
  std::string probe(const Tensor& x) {
    wrapped_ = false;
    auto gradients = [&](const core::Schedule& schedule,
                         core::SlotStore& store) {
      optimizer_.zero_grad();
      runner_.begin_pass();
      std::vector<Tensor> out;
      out.push_back(
          executor_.run(runner_, schedule, x, loss_fn_, store).input_grad);
      for (const nn::ParamRef& p : chain_.params()) {
        out.push_back(p.grad->clone());
      }
      return out;
    };
    const std::vector<Tensor> configured = gradients(schedule_, *store_);
    const core::Schedule full = core::full_storage_schedule(chain_.size());
    core::RamSlotStore ram(full.num_slots());
    const std::vector<Tensor> reference = gradients(full, ram);
    const std::vector<nn::ParamRef> params = chain_.params();
    for (std::size_t i = 0; i < reference.size(); ++i) {
      if (!bitwise_equal(configured[i], reference[i])) {
        return i == 0 ? std::string("input gradient")
                      : "gradient of " + params[i - 1].name;
      }
    }
    return {};
  }

  void reset_measurements() {
    peak_bytes_ = 0;
    timed_store_.reset_samples();
  }

  [[nodiscard]] nn::LayerChain& chain() { return chain_; }
  [[nodiscard]] nn::SGD& optimizer() { return optimizer_; }
  [[nodiscard]] nn::LayerChainRunner& runner() { return runner_; }
  [[nodiscard]] SpanLog& log() { return log_; }
  [[nodiscard]] const StoreSamples& store_samples() const {
    return timed_store_.samples();
  }
  /// Max over steps of the executor's peak tracked bytes above baseline.
  [[nodiscard]] std::size_t peak_bytes() const { return peak_bytes_; }

 private:
  Tensor loss_grad(const Tensor& y) {
    const ScopedSpan span(wrapped_ ? &log_ : nullptr, SpanKind::Loss);
    if (head_ == Head::SoftmaxXent) {
      const ops::SoftmaxXentResult result = ops::softmax_xent_forward(y, labels_);
      last_loss_ = result.loss;
      return ops::softmax_xent_backward(result.probs, labels_);
    }
    // Mean squared error against target_.
    Tensor grad = Tensor::empty(y.shape());
    const float* out = y.data();
    const float* want = target_.data();
    float* g = grad.data();
    const std::int64_t n = y.numel();
    const float scale = 2.0F / static_cast<float>(n);
    double sum = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      const float d = out[i] - want[i];
      sum += static_cast<double>(d) * static_cast<double>(d);
      g[i] = scale * d;
    }
    last_loss_ = static_cast<float>(sum / static_cast<double>(n));
    return grad;
  }

  nn::LayerChain chain_;
  core::Schedule schedule_;
  std::unique_ptr<core::SlotStore> store_;
  Head head_;
  nn::SGD optimizer_;
  nn::LayerChainRunner runner_;
  core::ScheduleExecutor executor_;
  SpanLog log_;
  TimedRunner timed_runner_;
  TimedStore timed_store_;
  core::LossGradFn loss_fn_;
  std::vector<std::int32_t> labels_;
  Tensor target_;
  float last_loss_ = 0.0F;
  bool wrapped_ = false;
  std::size_t peak_bytes_ = 0;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct StoreCounters {
  std::int64_t writes = 0;
  std::int64_t reads = 0;
  std::int64_t prefetch_hits = 0;
  std::int64_t blocking_reads = 0;
  std::int64_t write_behind_hits = 0;

  /// Restores of spilled slots, however they were served.
  [[nodiscard]] std::int64_t restores() const {
    return prefetch_hits + blocking_reads + write_behind_hits;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] TrainCore& core() { return *core_; }
  [[nodiscard]] int batch() const { return batch_; }
  [[nodiscard]] int frames_per_step() const { return frames_per_step_; }
  [[nodiscard]] double build_s() const { return build_s_; }
  [[nodiscard]] double plan_s() const { return plan_s_; }
  [[nodiscard]] double rho_analytic() const { return rho_analytic_; }
  /// Analytic forward FLOPs of one step.
  [[nodiscard]] double forward_flops() const { return forward_flops_; }
  /// The ResNet this workload trains and its image size, if any.
  [[nodiscard]] const std::optional<models::ResNetSpec>& resnet() const {
    return resnet_;
  }
  [[nodiscard]] int image() const { return image_; }

  /// Untimed work before step @p step's clock starts.
  virtual void prepare(std::int64_t /*step*/) {}
  /// One timed step; returns its loss.
  virtual float step(std::int64_t step, bool wrapped) = 0;
  /// The batch the last step trained on, for the probe step.
  [[nodiscard]] virtual Tensor last_input() const = 0;
  /// Called once before the first timed step.
  virtual void begin_timed() { core_->reset_measurements(); }
  /// Adds workload-specific per-layer metrics over @p steps timed steps.
  virtual void layer_metrics(Metrics& /*m*/, std::int64_t /*steps*/) const {}
  [[nodiscard]] virtual StoreCounters store_counters() const { return {}; }
  /// Checks outputs and releases files; appends one message per failure.
  virtual void finish(std::vector<std::string>& /*failures*/) {}

 protected:
  std::unique_ptr<TrainCore> core_;
  int batch_ = 1;
  int frames_per_step_ = 0;
  double build_s_ = 0.0;
  double plan_s_ = 0.0;
  double rho_analytic_ = 1.0;
  double forward_flops_ = 0.0;
  std::optional<models::ResNetSpec> resnet_;
  int image_ = 0;
};

/// ResNet-18 at 64x64, batch 1, on per-class prototype images plus noise
/// (so the loss falls). Full storage is the control: kernels and SGD do all
/// the work. Revolve s=2 with the bitmap codec is the paper's
/// memory-for-recompute trade on a real ResNet.
class ResNetWorkload final : public Workload {
 public:
  ResNetWorkload(std::uint32_t seed, bool revolve_bitmap) : rng_(seed) {
    constexpr int kClasses = 10;
    constexpr int kPerClass = 4;
    constexpr int kFreeSlots = 2;
    constexpr float kNoise = 0.5F;
    image_ = 64;
    resnet_ = models::ResNetSpec::make(models::ResNetVariant::ResNet18,
                                       kClasses);
    nn::LayerChain chain;
    build_s_ = time_seconds([&] {
      chain = models::build_resnet_chain(models::ResNetVariant::ResNet18,
                                         kClasses, 3, rng_);
    });
    core::Schedule schedule;
    plan_s_ = time_seconds([&] {
      schedule = revolve_bitmap
                     ? core::revolve::make_schedule(chain.size(), kFreeSlots)
                     : core::full_storage_schedule(chain.size());
    });
    if (revolve_bitmap) {
      rho_analytic_ = core::revolve::recompute_factor(chain.size(), kFreeSlots);
    }
    std::unique_ptr<core::SlotStore> store;
    if (revolve_bitmap) {
      store = std::make_unique<core::CompressedSlotStore>(
          schedule.num_slots(), core::SlotCodec::Bitmap);
    } else {
      store = std::make_unique<core::RamSlotStore>(schedule.num_slots());
    }
    core_ = std::make_unique<TrainCore>(std::move(chain), std::move(schedule),
                                        std::move(store), Head::SoftmaxXent,
                                        1e-3F, 0.9F);

    const Shape shape{1, 3, image_, image_};
    std::vector<Tensor> prototypes;
    for (int c = 0; c < kClasses; ++c) {
      prototypes.push_back(Tensor::randn(shape, rng_));
    }
    for (int i = 0; i < kClasses * kPerClass; ++i) {
      Tensor x = prototypes[static_cast<std::size_t>(i % kClasses)].clone();
      x.axpy_(kNoise, Tensor::randn(shape, rng_));
      inputs_.push_back(std::move(x));
      labels_.push_back(i % kClasses);
    }
    order_.resize(inputs_.size());
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    std::shuffle(order_.begin(), order_.end(), rng_);
    const std::vector<double> costs =
        resnet_->chain_step_forward_costs(image_, 1);
    forward_flops_ = 2.0 * std::accumulate(costs.begin(), costs.end(), 0.0);
  }

  float step(std::int64_t step, bool wrapped) override {
    current_ = order_[static_cast<std::size_t>(step) % order_.size()];
    label_[0] = labels_[current_];
    core_->set_labels(label_);
    return core_->step(inputs_[current_], wrapped);
  }

  [[nodiscard]] Tensor last_input() const override { return inputs_[current_]; }

 private:
  std::mt19937 rng_;
  std::vector<Tensor> inputs_;
  std::vector<std::int32_t> labels_;
  std::vector<std::size_t> order_;
  std::vector<std::int32_t> label_ = {0};
  std::size_t current_ = 0;
};

/// A 32-step conv chain at 24x24 whose every free Revolve slot (s=5)
/// spills to AsyncDiskSlotStore under 500 us of injected SD latency per
/// file op, with a crash-safe snapshot every 50 steps. IO wait, prefetch
/// and snapshot stalls dominate; the kernels are small.
class ConvChainWorkload final : public Workload {
 public:
  ConvChainWorkload(std::uint32_t seed, const fs::path& dir) : rng_(seed) {
    constexpr int kDepth = 32;
    constexpr std::int64_t kChannels = 16;
    constexpr int kFreeSlots = 5;
    constexpr int kPool = 16;
    constexpr long kDiskLatencyUs = 500;
    constexpr std::int64_t kImage = 24;
    persist::set_disk_latency_us(kDiskLatencyUs);

    nn::LayerChain chain;
    build_s_ = time_seconds([&] {
      chain = models::build_conv_chain(kDepth, kChannels, rng_);
    });
    // He init doubles the activation variance at each of the 32 linear
    // convs; halving each weight's variance keeps the MSE finite.
    for (const nn::ParamRef& p : chain.params()) {
      p.value->scale_(static_cast<float>(1.0 / std::sqrt(2.0)));
    }
    core::Schedule schedule;
    plan_s_ = time_seconds(
        [&] { schedule = core::revolve::make_schedule(kDepth, kFreeSlots); });
    rho_analytic_ = core::revolve::recompute_factor(kDepth, kFreeSlots);
    fs::create_directories(dir / "spill");
    auto store = std::make_unique<core::AsyncDiskSlotStore>(
        schedule.num_slots(), /*first_disk_slot=*/1, (dir / "spill").string());
    async_ = store.get();
    snapshots_ = std::make_unique<persist::SnapshotManager>(
        (dir / "snapshots").string(), kSnapshotsKept);
    core_ = std::make_unique<TrainCore>(std::move(chain), std::move(schedule),
                                        std::move(store), Head::Mse, 1e-3F,
                                        0.9F);

    const Shape shape{1, kChannels, kImage, kImage};
    for (int i = 0; i < kPool; ++i) {
      inputs_.push_back(Tensor::randn(shape, rng_));
      targets_.push_back(Tensor::randn(shape, rng_));
    }
    snapshot_ms_.reserve(kMaxTimedSteps / kSnapshotEvery + 1);
    forward_flops_ =
        2.0 * kDepth * static_cast<double>(kChannels * kChannels * 9 * kImage * kImage);
  }

  float step(std::int64_t step, bool wrapped) override {
    current_ = static_cast<std::size_t>(step) % inputs_.size();
    core_->set_target(targets_[current_]);
    const float loss = core_->step(inputs_[current_], wrapped);
    if ((step + 1) % kSnapshotEvery == 0) snapshot(step + 1, wrapped);
    return loss;
  }

  [[nodiscard]] Tensor last_input() const override { return inputs_[current_]; }

  void begin_timed() override {
    Workload::begin_timed();
    baseline_ = store_counters();
    snapshot_ms_.clear();
  }

  [[nodiscard]] StoreCounters store_counters() const override {
    return {async_->disk_writes(), async_->disk_reads(),
            async_->prefetch_hits(), async_->blocking_reads(),
            async_->write_behind_hits()};
  }

  void layer_metrics(Metrics& m, std::int64_t steps) const override {
    const StoreCounters now = store_counters();
    const auto per_step = [&](std::int64_t count) {
      return ratio(static_cast<double>(count), static_cast<double>(steps));
    };
    m["core.disk_writes_per_step"] = per_step(now.writes - baseline_.writes);
    m["core.disk_reads_per_step"] = per_step(now.reads - baseline_.reads);
    m["core.blocking_reads_per_step"] =
        per_step(now.blocking_reads - baseline_.blocking_reads);
    m["core.write_behind_hits_per_step"] =
        per_step(now.write_behind_hits - baseline_.write_behind_hits);
    const auto hits =
        static_cast<double>(now.prefetch_hits - baseline_.prefetch_hits);
    m["core.prefetch_hit_frac"] = ratio(
        hits, hits + static_cast<double>(now.blocking_reads -
                                         baseline_.blocking_reads));
    if (!snapshot_ms_.empty()) {
      m["persist.snapshot_ms_mean"] =
          std::accumulate(snapshot_ms_.begin(), snapshot_ms_.end(), 0.0) /
          static_cast<double>(snapshot_ms_.size());
      m["persist.snapshot_ms_max"] =
          *std::max_element(snapshot_ms_.begin(), snapshot_ms_.end());
      m["persist.snapshot_kib"] =
          static_cast<double>(fs::file_size(last_snapshot_)) / 1024.0;
    }
    m["persist.snapshots"] = static_cast<double>(snapshot_ms_.size());
  }

  void finish(std::vector<std::string>& failures) override {
    const std::vector<std::string> kept = snapshots_->list();
    const std::size_t expected =
        std::min<std::size_t>(kSnapshotsKept, snapshots_written_);
    if (kept.size() != expected) {
      failures.push_back("snapshot rotation kept " +
                         std::to_string(kept.size()) + " files, expected " +
                         std::to_string(expected));
    }
    if (snapshots_written_ > 0) {
      const std::optional<persist::TrainerState> latest =
          snapshots_->load_latest();
      if (!latest || latest->step != last_snapshot_step_ ||
          latest->model != last_snapshot_model_) {
        failures.push_back("newest snapshot does not restore the last write");
      }
    }
    for (const std::string& path : kept) fs::remove(path);
  }

 private:
  static constexpr int kSnapshotEvery = 50;
  static constexpr int kSnapshotsKept = 2;

  void snapshot(std::int64_t steps_done, bool wrapped) {
    const std::int64_t begin = now_ns();
    persist::TrainerState state;
    state.step = static_cast<std::uint64_t>(steps_done);
    state.data_cursor = state.step;
    state.pass_token = core_->runner().pass_token();
    state.model = nn::serialize_weights(core_->chain());
    state.optimizer = persist::encode_optimizer_state(core_->optimizer());
    state.buffers = nn::serialize_buffers(core_->chain());
    last_snapshot_ = snapshots_->write(state);
    const std::int64_t end = now_ns();
    if (wrapped) core_->log().add(SpanKind::Snapshot, -1, begin, end);
    snapshot_ms_.push_back(static_cast<double>(end - begin) * 1e-6);
    ++snapshots_written_;
    last_snapshot_step_ = state.step;
    last_snapshot_model_ = std::move(state.model);
  }

  std::mt19937 rng_;
  core::AsyncDiskSlotStore* async_ = nullptr;  // owned by core_
  std::unique_ptr<persist::SnapshotManager> snapshots_;
  std::vector<Tensor> inputs_;
  std::vector<Tensor> targets_;
  std::size_t current_ = 0;
  StoreCounters baseline_;
  std::vector<double> snapshot_ms_;
  std::string last_snapshot_;
  std::size_t snapshots_written_ = 0;
  std::uint64_t last_snapshot_step_ = 0;
  std::vector<std::uint8_t> last_snapshot_model_;
};

/// The in-situ loop: each step labels 16 camera frames through the
/// harvester (int8 teacher, 256 MiB SD budget), then trains the student
/// (PatchClassifier chain, batch 16, Revolve s=2) on a minibatch drawn from
/// the harvested dataset. Frames are rendered before the step's clock.
///
/// One object in view at a time, and teacher queries only at confidence
/// 0.9 in the right quarter of the frame, keep label purity above the 0.95
/// check on every seed tried (1-100, worst 0.973). With two objects, tracks
/// that cross mislabel whole tracks, and under the library's default gate
/// confident teacher errors at x 0.65-0.75 do the same: some seeds fell to
/// 0.73-0.88.
class HarvestWorkload final : public Workload {
 public:
  explicit HarvestWorkload(std::uint32_t seed)
      : sim_(scene(seed)), pick_rng_(seed) {
    constexpr int kChannels = 8;
    constexpr int kFreeSlots = 2;
    constexpr int kTeacherPerClass = 100;
    batch_ = 16;
    frames_per_step_ = 16;

    teacher_ = std::make_unique<insitu::PatchClassifier>(kPatch, kClasses,
                                                         kChannels, seed + 1);
    teacher_train_s_ = time_seconds([&] {
      insitu::PatchDataset data(kPatch);
      for (int e = 0; e < kTeacherPerClass; ++e) {
        for (int k = 0; k < kClasses; ++k) {
          data.add(sim_.canonical_patch(k, kPatch), k);
        }
      }
      insitu::TrainOptions options;
      options.epochs = 4;
      (void)teacher_->train(data, options);
    });
    insitu::HarvestConfig config;
    config.patch = kPatch;
    config.teacher_confidence = 0.9F;
    config.query_min_x_fraction = 0.75F;
    config.teacher_precision = insitu::TeacherPrecision::Int8;
    config.storage_capacity_bytes = 256ULL << 20;
    harvester_ = std::make_unique<insitu::Harvester>(*teacher_, config);

    std::mt19937 init(seed + 2);
    nn::LayerChain chain;
    build_s_ = time_seconds([&] {
      chain = models::build_patch_cnn(kPatch, 1, kChannels, kClasses, init);
    });
    core::Schedule schedule;
    plan_s_ = time_seconds(
        [&] { schedule = core::revolve::make_schedule(chain.size(), kFreeSlots); });
    rho_analytic_ = core::revolve::recompute_factor(chain.size(), kFreeSlots);
    auto store = std::make_unique<core::RamSlotStore>(schedule.num_slots());
    core_ = std::make_unique<TrainCore>(std::move(chain), std::move(schedule),
                                        std::move(store), Head::SoftmaxXent,
                                        0.05F, 0.9F);

    // Harvest until a few minibatches' worth of labelled patches exist.
    for (int frame = 0;
         harvester_->dataset().size() < 4 * static_cast<std::size_t>(batch_);
         ++frame) {
      if (frame == 5000) throw std::runtime_error("harvest_train: no labels");
      harvester_->consume(next_frame());
    }
    frames_.resize(static_cast<std::size_t>(frames_per_step_));
    indices_.resize(static_cast<std::size_t>(batch_));
    // Conv 3x3 1->c at p x p, conv 3x3 c->2c at p/2, linear 2c->classes.
    const double p = kPatch;
    forward_flops_ = 2.0 * batch_ *
                     (p * p * kChannels * 9 +
                      (p / 2) * (p / 2) * 2 * kChannels * 9 * kChannels +
                      2 * kChannels * kClasses);
  }

  void prepare(std::int64_t /*step*/) override {
    for (insitu::Frame& frame : frames_) frame = next_frame();
  }

  float step(std::int64_t /*step*/, bool wrapped) override {
    SpanLog* log = wrapped ? &core_->log() : nullptr;
    {
      const ScopedSpan span(log, SpanKind::Harvest);
      for (const insitu::Frame& frame : frames_) harvester_->consume(frame);
    }
    {
      const ScopedSpan span(log, SpanKind::Gather);
      const insitu::PatchDataset& data = harvester_->dataset();
      std::uniform_int_distribution<std::size_t> pick(0, data.size() - 1);
      for (std::size_t& index : indices_) index = pick(pick_rng_);
      x_ = data.gather(indices_);
      core_->set_labels(data.gather_labels(indices_));
    }
    return core_->step(x_, wrapped);
  }

  [[nodiscard]] Tensor last_input() const override { return x_; }

  void begin_timed() override {
    Workload::begin_timed();
    baseline_ = harvester_->stats();
  }

  void layer_metrics(Metrics& m, std::int64_t steps) const override {
    const insitu::HarvestStats stats = harvester_->stats();
    const std::int64_t queries = stats.teacher_queries - baseline_.teacher_queries;
    m["insitu.queries_per_step"] =
        ratio(static_cast<double>(queries), static_cast<double>(steps));
    m["insitu.quantized_frac"] =
        ratio(static_cast<double>(stats.quantized_queries -
                                  baseline_.quantized_queries),
              static_cast<double>(queries));
    m["insitu.label_purity"] = stats.label_purity;
    m["insitu.dropped_frac"] =
        ratio(static_cast<double>(stats.images_dropped_storage),
              static_cast<double>(stats.images_harvested +
                                  stats.images_dropped_storage));
    m["insitu.teacher_train_s"] = teacher_train_s_;
  }

  void finish(std::vector<std::string>& failures) override {
    const double purity = harvester_->stats().label_purity;
    if (purity < 0.95) {
      failures.push_back("label purity " + std::to_string(purity) +
                         " below 0.95");
    }
  }

 private:
  static constexpr int kPatch = 20;
  static constexpr int kClasses = 4;

  insitu::Frame next_frame() {
    return sim_.next_frame(/*spawn_prob=*/0.25F, /*max_objects=*/1);
  }

  static insitu::SceneConfig scene(std::uint32_t seed) {
    insitu::SceneConfig config;
    config.frame_width = 128;
    config.frame_height = 44;
    config.object_size = 16;
    config.num_classes = kClasses;
    config.speed = 5.0F;
    config.max_skew = 0.85F;
    config.seed = seed;
    return config;
  }

  insitu::SceneSimulator sim_;
  std::mt19937 pick_rng_;
  std::unique_ptr<insitu::PatchClassifier> teacher_;
  std::unique_ptr<insitu::Harvester> harvester_;
  double teacher_train_s_ = 0.0;
  std::vector<insitu::Frame> frames_;
  std::vector<std::size_t> indices_;
  Tensor x_;
  insitu::HarvestStats baseline_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint32_t seed,
                                        const fs::path& dir) {
  persist::set_disk_latency_us(0);
  if (name == "resnet18_full") {
    return std::make_unique<ResNetWorkload>(seed, false);
  }
  if (name == "resnet18_revolve_bitmap") {
    return std::make_unique<ResNetWorkload>(seed, true);
  }
  if (name == "convchain_spill_sd") {
    return std::make_unique<ConvChainWorkload>(seed, dir);
  }
  if (name == "harvest_train") return std::make_unique<HarvestWorkload>(seed);
  return nullptr;
}

// ---------------------------------------------------------------------------
// Aggregating spans
// ---------------------------------------------------------------------------

/// Span time summed over every wrapped step, per kind and per chain step.
struct Totals {
  explicit Totals(int chain_steps)
      : forward_ms(static_cast<std::size_t>(chain_steps), 0.0),
        recompute_ms(forward_ms.size(), 0.0),
        backward_ms(forward_ms.size(), 0.0),
        recomputes(forward_ms.size(), 0) {}

  void add(const SpanLog& log, std::int64_t begin_ns, std::int64_t end_ns) {
    for (const Span& span : log) {
      const double span_ms =
          static_cast<double>(span.end_ns - span.begin_ns) * 1e-6;
      const auto kind = static_cast<std::size_t>(span.kind);
      kind_ms[kind] += span_ms;
      ++calls[kind];
      if (is_top_level(span.kind)) attributed_ms += span_ms;
      const auto step = static_cast<std::size_t>(span.index);
      switch (span.kind) {
        case SpanKind::Forward:
          forward_ms[step] += span_ms;
          break;
        case SpanKind::Recompute:
          recompute_ms[step] += span_ms;
          ++recomputes[step];
          break;
        case SpanKind::Backward:
          backward_ms[step] += span_ms;
          break;
        default:
          break;
      }
    }
    step_ms += static_cast<double>(end_ns - begin_ns) * 1e-6;
    dropped += log.dropped();
    ++steps;
  }

  [[nodiscard]] double ms(SpanKind kind) const {
    return kind_ms[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] double per_step(double total) const {
    return ratio(total, static_cast<double>(steps));
  }
  [[nodiscard]] double unattributed_frac() const {
    return 1.0 - ratio(attributed_ms, step_ms);
  }

  std::array<double, kSpanKinds> kind_ms{};
  std::array<std::int64_t, kSpanKinds> calls{};
  std::vector<double> forward_ms;
  std::vector<double> recompute_ms;
  std::vector<double> backward_ms;
  std::vector<std::int64_t> recomputes;
  double step_ms = 0.0;
  double attributed_ms = 0.0;
  std::int64_t steps = 0;
  std::int64_t dropped = 0;
};

/// Spans of the last kTraceRingSteps wrapped steps, written as a Chrome
/// trace-event file (opens offline in Perfetto or chrome://tracing).
class TraceRing {
 public:
  explicit TraceRing(std::size_t spans_per_step)
      : spans_per_step_(spans_per_step),
        spans_(kTraceRingSteps * spans_per_step),
        steps_(kTraceRingSteps) {}

  void add(std::int64_t step, std::int64_t begin_ns, std::int64_t end_ns,
           const SpanLog& log) {
    const std::size_t slot = added_++ % kTraceRingSteps;
    steps_[slot] = {step, begin_ns, end_ns, log.size()};
    std::copy(log.begin(), log.end(),
              spans_.begin() + static_cast<std::ptrdiff_t>(slot * spans_per_step_));
  }

  [[nodiscard]] bool write(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
    const std::size_t count = std::min(added_, kTraceRingSteps);
    std::int64_t origin = std::numeric_limits<std::int64_t>::max();
    for (std::size_t i = 0; i < count; ++i) {
      origin = std::min(origin, steps_[i].begin_ns);
    }
    const auto us = [origin](std::int64_t ns) {
      return static_cast<double>(ns - origin) * 1e-3;
    };
    std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", file);
    bool first = true;
    const auto event = [&](const char* name, std::int64_t step,
                           std::int32_t index, std::int64_t b,
                           std::int64_t e) {
      std::fprintf(file,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"step\": %lld, \"index\": %d}}",
                   first ? "" : ",\n", name, us(b), us(e) - us(b),
                   static_cast<long long>(step), index);
      first = false;
    };
    for (std::size_t i = 0; i < count; ++i) {
      const StepRecord& rec = steps_[i];
      event("step", rec.step, -1, rec.begin_ns, rec.end_ns);
      const Span* spans = spans_.data() + i * spans_per_step_;
      for (std::size_t j = 0; j < rec.spans; ++j) {
        event(span_name(spans[j].kind), rec.step, spans[j].index,
              spans[j].begin_ns, spans[j].end_ns);
      }
    }
    std::fputs("\n]}\n", file);
    return std::fclose(file) == 0;
  }

 private:
  struct StepRecord {
    std::int64_t step = 0;
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = 0;
    std::size_t spans = 0;
  };

  std::size_t spans_per_step_;
  std::vector<Span> spans_;
  std::vector<StepRecord> steps_;
  std::size_t added_ = 0;
};

/// calib::predict_resnet (through load_or_calibrate) against the measured
/// per-chain-step times. build_resnet_chain runs the stem as four chain
/// steps and the head as two, where ResNetSpec counts one of each.
void calib_metrics(Metrics& m, const models::ResNetSpec& spec, int image,
                   const Totals& totals, const std::string& profile,
                   const fs::path& scratch) {
  calib::CalibrationOptions options;
  options.thread_counts = {static_cast<int>(kComputeThreads)};
  options.scratch_dir = scratch.string();
  const calib::DeviceModel model = calib::load_or_calibrate(profile, options);
  const calib::ChainCosts predicted = calib::predict_resnet(
      spec, image, 1, model, static_cast<int>(kComputeThreads));

  const std::size_t chain_steps = totals.forward_ms.size();
  const std::size_t spec_steps = predicted.forward_us.size();
  const auto spec_step = [&](std::size_t i) {
    if (i < 4) return std::size_t{0};
    if (i + 2 >= chain_steps) return spec_steps - 1;
    return i - 3;
  };
  std::vector<double> measured_fwd(spec_steps, 0.0);
  std::vector<double> visits(spec_steps, 0.0);
  std::vector<double> members(spec_steps, 0.0);
  double measured_total = 0.0;
  for (std::size_t i = 0; i < chain_steps; ++i) {
    const std::size_t s = spec_step(i);
    measured_fwd[s] += totals.per_step(totals.forward_ms[i]);
    visits[s] += 1.0 + totals.per_step(static_cast<double>(totals.recomputes[i]));
    members[s] += 1.0;
    measured_total += totals.per_step(totals.forward_ms[i] +
                                      totals.recompute_ms[i] +
                                      totals.backward_ms[i]);
  }
  std::vector<double> fwd_err;
  double predicted_total = 0.0;
  for (std::size_t s = 0; s < spec_steps; ++s) {
    const double fwd_ms = predicted.forward_us[s] * 1e-3;
    fwd_err.push_back(100.0 * std::abs(fwd_ms - measured_fwd[s]) /
                      measured_fwd[s]);
    predicted_total += fwd_ms * visits[s] / members[s] +
                       predicted.backward_us[s] * 1e-3;
  }
  m["calib.fwd_pred_err_pct_median"] = percentile(fwd_err, 0.5);
  m["calib.step_pred_err_pct"] =
      100.0 * std::abs(predicted_total - measured_total) / measured_total;
}

// ---------------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint32_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selfcheck = false;
  std::string tmp;
  std::string out;
  std::string trace_out;
  std::string calib_profile;
};

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selfcheck") {
      o.selfcheck = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    char* parsed_end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      const unsigned long seed = std::strtoul(value.c_str(), &parsed_end, 10);
      if (*parsed_end != '\0' || seed > 0xFFFFFFFFUL) return std::nullopt;
      o.seed = static_cast<std::uint32_t>(seed);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &parsed_end);
      if (*parsed_end != '\0') return std::nullopt;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      o.trace = value == "1";
    } else if (arg == "--tmp") {
      o.tmp = value;
    } else if (arg == "--out") {
      o.out = value;
    } else if (arg == "--trace-out") {
      o.trace_out = value;
    } else if (arg == "--calib-profile") {
      o.calib_profile = value;
    } else {
      return std::nullopt;
    }
  }
  if (o.tmp.empty() || (!o.selfcheck && o.workload.empty()) ||
      !(o.seconds > 0.0 && o.seconds < 3600.0)) {
    return std::nullopt;
  }
  return o;
}

std::string context_json(double loadavg_1m) {
  return std::string("{\"num_cpus\": ") +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"compute_threads\": " + std::to_string(kComputeThreads) +
         ", \"build_type\": " + json_string(STEPBENCH_BUILD_TYPE) +
         ", \"compiler\": " + json_string(__VERSION__) +
         ", \"disk_latency_us\": " + std::to_string(persist::disk_latency_us()) +
         ", \"loadavg_1m_at_start\": " + json_number(loadavg_1m) + "}";
}

/// Regular files under @p dir (recursively); the run must leave none.
std::vector<std::string> leftover_files(const fs::path& dir) {
  std::vector<std::string> out;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file()) out.push_back(it->path().string());
  }
  return out;
}

int run(const Options& opts, std::int64_t process_start_ns) {
  double loadavg_1m = -1.0;
  if (getloadavg(&loadavg_1m, 1) != 1) loadavg_1m = -1.0;

  ThreadPool::set_global_threads(kComputeThreads);
  const fs::path tmp = fs::path(opts.tmp);
  fs::create_directories(tmp);

  // Set up several times; setup_s is the median. The first set-up is
  // timed from process start.
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  for (int r = 0; r < kSetupRepeats; ++r) {
    w.reset();
    const std::int64_t begin = r == 0 ? process_start_ns : now_ns();
    w = make_workload(opts.workload, opts.seed, tmp);
    if (!w) {
      std::fprintf(stderr, "bench_step: unknown workload '%s'\n",
                   opts.workload.c_str());
      return 2;
    }
    setup_s.push_back(static_cast<double>(now_ns() - begin) * 1e-9);
  }

  for (std::int64_t step = 0; step < kWarmupSteps; ++step) {
    w->prepare(step);
    (void)w->step(step, false);
  }

  TrainCore& core = w->core();
  SpanLog& log = core.log();
  Totals totals(core.chain().size());
  TraceRing ring(log.capacity());
  std::vector<double> plain_ms;
  std::vector<double> wrapped_ms;
  std::vector<float> losses;
  plain_ms.reserve(kMaxTimedSteps);
  wrapped_ms.reserve(opts.trace ? kMaxTimedSteps : 0);
  losses.reserve(kMaxTimedSteps);
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::uint32_t fingerprint_crc = 0;
  const MemoryTracker& tracker = MemoryTracker::instance();
  const std::uint64_t allocs_before = tracker.allocation_count();
  const std::uint64_t scratch_before = tracker.scratch_allocation_count();
  w->begin_timed();

  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opts.seconds * 1e9);
  for (std::int64_t i = 0;; ++i) {
    if ((now_ns() >= deadline && attempted >= kMinTimedSteps) ||
        static_cast<std::size_t>(attempted) >= kMaxTimedSteps) {
      break;
    }
    const std::int64_t step = kWarmupSteps + i;
    const bool wrapped = opts.trace && (i / kTraceBlock) % 2 == 1;
    w->prepare(step);
    log.clear();
    float loss = 0.0F;
    bool ok = true;
    const std::int64_t begin = now_ns();
    try {
      loss = w->step(step, wrapped);
    } catch (const std::exception& e) {
      ok = false;
      if (failed == 0) std::fprintf(stderr, "step %lld threw: %s\n",
                                    static_cast<long long>(step), e.what());
    }
    const std::int64_t end = now_ns();
    ++attempted;
    if (!ok) {
      ++failed;
      continue;
    }
    const double ms = static_cast<double>(end - begin) * 1e-6;
    (wrapped ? wrapped_ms : plain_ms).push_back(ms);
    losses.push_back(loss);
    if (wrapped) {
      totals.add(log, begin, end);
      ring.add(step, begin, end, log);
    }
    if (attempted == kFingerprintSteps) fingerprint_crc = weights_crc(core.chain());
  }
  const std::int64_t completed = attempted - failed;
  const double allocs_per_step = ratio(
      static_cast<double>(tracker.allocation_count() - allocs_before),
      static_cast<double>(completed));
  const double scratch_allocs_per_step = ratio(
      static_cast<double>(tracker.scratch_allocation_count() - scratch_before),
      static_cast<double>(completed));
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double rss_peak_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;

  // --- checks ---------------------------------------------------------------
  std::vector<std::string> failures;
  if (!std::all_of(losses.begin(), losses.end(),
                   [](float l) { return std::isfinite(l); })) {
    failures.push_back("non-finite loss");
  }
  const std::uint32_t final_crc = weights_crc(core.chain());
  const std::string probe = core.probe(w->last_input());
  if (!probe.empty()) {
    failures.push_back("probe step: " + probe +
                       " differs from full storage");
  }

  // --- metrics --------------------------------------------------------------
  const std::size_t window = std::min(kLossWindow, losses.size());
  const double loss_final =
      window == 0 ? 0.0
                  : std::accumulate(losses.end() - static_cast<std::ptrdiff_t>(window),
                                    losses.end(), 0.0) /
                        static_cast<double>(window);
  Metrics m;
  const double plain_total_ms =
      std::accumulate(plain_ms.begin(), plain_ms.end(), 0.0);
  m["step_ms_p50"] = percentile(plain_ms, 0.5);
  m["step_ms_p95"] = percentile(plain_ms, 0.95);
  m["samples_per_s"] = ratio(static_cast<double>(w->batch()) *
                                 static_cast<double>(plain_ms.size()) * 1e3,
                             plain_total_ms);
  m["peak_tracked_mib"] = static_cast<double>(core.peak_bytes()) / kMiB;
  m["rss_peak_mib"] = rss_peak_mib;
  m["setup_s"] = percentile(setup_s, 0.5);

  if (opts.trace) {
    const auto per_step = [&](SpanKind kind) {
      return totals.per_step(totals.ms(kind));
    };
    const auto calls_per_step = [&](SpanKind kind) {
      return totals.per_step(static_cast<double>(
          totals.calls[static_cast<std::size_t>(kind)]));
    };
    const double fwd = per_step(SpanKind::Forward);
    const double rec = per_step(SpanKind::Recompute);
    const double bwd = per_step(SpanKind::Backward);
    const double store_ms = per_step(SpanKind::StorePut) +
                            per_step(SpanKind::StoreGet) +
                            per_step(SpanKind::StoreOther);
    const StoreSamples& samples = core.store_samples();
    for (const MetricDef& def : kPerLayer) m[def.name] = 0.0;
    m["nn.forward_ms"] = fwd;
    m["nn.recompute_ms"] = rec;
    m["nn.backward_ms"] = bwd;
    m["nn.loss_ms"] = per_step(SpanKind::Loss);
    m["nn.optimizer_ms"] =
        per_step(SpanKind::Optimizer) + per_step(SpanKind::ZeroGrad);
    m["nn.loss_final"] = loss_final;
    m["core.recomputes_per_step"] = calls_per_step(SpanKind::Recompute);
    m["core.rho_analytic"] = w->rho_analytic();
    m["core.rho_measured"] = ratio(fwd + rec + bwd, fwd + bwd);
    m["core.executor_other_ms"] = per_step(SpanKind::Run) - fwd - rec - bwd -
                                  per_step(SpanKind::Loss) - store_ms;
    m["core.unattributed_frac"] = totals.unattributed_frac();
    m["core.store_put_ms"] = per_step(SpanKind::StorePut);
    m["core.store_get_ms"] = per_step(SpanKind::StoreGet);
    m["core.store_other_ms"] = per_step(SpanKind::StoreOther);
    m["core.store_puts_per_step"] = calls_per_step(SpanKind::StorePut);
    m["core.store_gets_per_step"] = calls_per_step(SpanKind::StoreGet);
    m["core.codec_ratio"] = ratio(samples.ratio_sum, static_cast<double>(samples.puts));
    m["core.store_resident_peak_mib"] =
        static_cast<double>(samples.resident_peak_bytes) / kMiB;
    const double harvest_ms = per_step(SpanKind::Harvest);
    m["insitu.harvest_ms"] = harvest_ms;
    m["insitu.gather_ms"] = per_step(SpanKind::Gather);
    m["insitu.frames_per_s"] =
        ratio(static_cast<double>(w->frames_per_step()) * 1e3, harvest_ms);
    m["tensor.fwd_gflops"] = ratio(w->forward_flops() * 1e-6, fwd);
    m["tensor.allocs_per_step"] = allocs_per_step;
    m["tensor.scratch_allocs_per_step"] = scratch_allocs_per_step;
    m["models.build_s"] = w->build_s();
    m["core.plan_s"] = w->plan_s();
    m["trace_overhead_pct"] =
        100.0 * (ratio(percentile(wrapped_ms, 0.5), percentile(plain_ms, 0.5)) - 1.0);
    w->layer_metrics(m, completed);
    if (totals.dropped > 0) failures.push_back("span buffer overflowed");
  }

  // Per-chain-step table, then release the workload and its files.
  std::string chain_table = "[";
  for (std::size_t i = 0; i < totals.forward_ms.size() && opts.trace; ++i) {
    if (i > 0) chain_table += ", ";
    chain_table += "{\"step\": " + std::to_string(i) + ", \"layer\": " +
                   json_string(core.chain().layer(static_cast<int>(i)).name()) +
                   ", \"forward_ms\": " +
                   json_number(totals.per_step(totals.forward_ms[i])) +
                   ", \"recompute_ms\": " +
                   json_number(totals.per_step(totals.recompute_ms[i])) +
                   ", \"backward_ms\": " +
                   json_number(totals.per_step(totals.backward_ms[i])) +
                   ", \"recomputes_per_step\": " +
                   json_number(totals.per_step(
                       static_cast<double>(totals.recomputes[i]))) +
                   "}";
  }
  chain_table += "]";
  const std::optional<models::ResNetSpec> resnet = w->resnet();
  const int image = w->image();
  const int batch = w->batch();
  w->finish(failures);
  w.reset();
  for (const std::string& path : leftover_files(tmp)) {
    failures.push_back("file left behind: " + path);
  }
  if (opts.trace && resnet) {
    calib_metrics(m, *resnet, image, totals, opts.calib_profile, tmp / "calib");
  }
  fs::remove_all(tmp);
  if (opts.trace && !opts.trace_out.empty() && !ring.write(opts.trace_out)) {
    failures.push_back("cannot write " + opts.trace_out);
  }

  // --- report ---------------------------------------------------------------
  std::vector<MetricDef> reported;
  if (opts.trace) {
    reported.assign(kPerLayer.begin(), kPerLayer.end());
  } else {
    reported.assign(kEndToEnd.begin(), kEndToEnd.end());
  }
  std::printf("bench_step %s seed %u: %lld timed steps (%lld failed), batch "
              "%d, %u compute threads\n",
              opts.workload.c_str(), opts.seed,
              static_cast<long long>(attempted), static_cast<long long>(failed),
              batch, kComputeThreads);
  std::printf("final weights crc32 %08x, after %lld steps %08x, loss_final %.6f\n",
              final_crc, static_cast<long long>(kFingerprintSteps),
              fingerprint_crc, loss_final);
  std::string metrics_json = "{";
  for (const MetricDef& def : reported) {
    std::printf("  %-34s %14.6f %s\n", def.name, m[def.name], def.unit);
    if (metrics_json.size() > 1) metrics_json += ", ";
    metrics_json += json_string(def.name) + ": {\"value\": " +
                    json_number(m[def.name]) + ", \"unit\": " +
                    json_string(def.unit) + "}";
  }
  metrics_json += "}";
  std::string checks_json = "[";
  for (const std::string& f : failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
    if (checks_json.size() > 1) checks_json += ", ";
    checks_json += json_string(f);
  }
  checks_json += "]";
  const bool correct = failures.empty();

  if (!opts.out.empty()) {
    std::FILE* file = std::fopen(opts.out.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "bench_step: cannot write %s\n", opts.out.c_str());
      return 1;
    }
    char crc[24];
    std::snprintf(crc, sizeof crc, "%08x", final_crc);
    char fingerprint[24];
    std::snprintf(fingerprint, sizeof fingerprint, "%08x", fingerprint_crc);
    std::fprintf(
        file,
        "{\"context\": %s,\n \"workload\": %s, \"seed\": %u, \"seconds\": %s, "
        "\"trace\": %s,\n \"attempted\": %lld, \"failed\": %lld, "
        "\"correct\": %s, \"failed_checks\": %s,\n \"failed_frac\": %s, "
        "\"loss_final\": %s, \"weights_crc\": \"%s\", "
        "\"weights_crc_after_%lld_steps\": \"%s\",\n \"setup_s_samples\": "
        "%s, \"plain_steps\": %zu, \"wrapped_steps\": %zu,\n "
        "\"metrics\": %s,\n \"chain_steps\": %s}\n",
        context_json(loadavg_1m).c_str(), json_string(opts.workload).c_str(),
        opts.seed, json_number(opts.seconds).c_str(),
        opts.trace ? "true" : "false", static_cast<long long>(attempted),
        static_cast<long long>(failed), correct ? "true" : "false",
        checks_json.c_str(),
        json_number(ratio(static_cast<double>(failed),
                          static_cast<double>(attempted)))
            .c_str(),
        json_number(loss_final).c_str(), crc,
        static_cast<long long>(kFingerprintSteps), fingerprint,
        json_array(setup_s).c_str(), plain_ms.size(), wrapped_ms.size(),
        metrics_json.c_str(), chain_table.c_str());
    std::fclose(file);
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), metrics_json.c_str());
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Self-check: the wrappers must be transparent
// ---------------------------------------------------------------------------

bool same_gradients(nn::LayerChain& a, nn::LayerChain& b) {
  const std::vector<nn::ParamRef> pa = a.params();
  const std::vector<nn::ParamRef> pb = b.params();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    if (!bitwise_equal(*pa[i].grad, *pb[i].grad)) return false;
  }
  return pa.size() == pb.size();
}

int run_selfcheck(const Options& opts) {
  ThreadPool::set_global_threads(kComputeThreads);
  const fs::path tmp = fs::path(opts.tmp);
  int failures = 0;
  for (const char* name : kWorkloads) {
    const auto plain = make_workload(name, 1, tmp / "plain");
    std::vector<float> plain_losses;
    for (int step = 0; step < kSelfcheckSteps; ++step) {
      plain->prepare(step);
      plain_losses.push_back(plain->step(step, false));
    }
    const auto wrapped = make_workload(name, 1, tmp / "wrapped");
    Totals totals(wrapped->core().chain().size());
    std::vector<float> wrapped_losses;
    for (int step = 0; step < kSelfcheckSteps; ++step) {
      wrapped->prepare(step);
      wrapped->core().log().clear();
      const std::int64_t begin = now_ns();
      wrapped_losses.push_back(wrapped->step(step, true));
      totals.add(wrapped->core().log(), begin, now_ns());
    }
    const bool losses_ok =
        std::memcmp(plain_losses.data(), wrapped_losses.data(),
                    plain_losses.size() * sizeof(float)) == 0;
    const bool grads_ok =
        same_gradients(plain->core().chain(), wrapped->core().chain()) &&
        weights_crc(plain->core().chain()) == weights_crc(wrapped->core().chain());
    // Which path serves a restore (prefetch, staged write, blocking read)
    // depends on IO timing, so two unwrapped runs already differ by a few;
    // only the number of restores is exact. A wrapper that drops the
    // lookahead calls cuts prefetch hits several-fold.
    const StoreCounters a = plain->store_counters();
    const StoreCounters b = wrapped->store_counters();
    const auto close = [](std::int64_t x, std::int64_t y) {
      return 3 * std::abs(x - y) <= std::max<std::int64_t>(6, std::max(x, y));
    };
    const bool counters_ok = a.restores() == b.restores() &&
                             close(a.prefetch_hits, b.prefetch_hits) &&
                             close(a.writes, b.writes);
    const double unattributed = totals.unattributed_frac();
    const bool ok = losses_ok && grads_ok && counters_ok && unattributed <= 0.05;
    std::printf("%-24s losses %s, gradients %s, store counters %s "
                "(restores %lld/%lld, writes %lld/%lld, prefetch hits "
                "%lld/%lld, blocking reads %lld/%lld, write-behind hits "
                "%lld/%lld), unattributed %.4f: %s\n",
                name, losses_ok ? "equal" : "DIFFER",
                grads_ok ? "equal" : "DIFFER", counters_ok ? "match" : "DIFFER",
                static_cast<long long>(a.restores()),
                static_cast<long long>(b.restores()),
                static_cast<long long>(a.writes), static_cast<long long>(b.writes),
                static_cast<long long>(a.prefetch_hits),
                static_cast<long long>(b.prefetch_hits),
                static_cast<long long>(a.blocking_reads),
                static_cast<long long>(b.blocking_reads),
                static_cast<long long>(a.write_behind_hits),
                static_cast<long long>(b.write_behind_hits), unattributed,
                ok ? "ok" : "FAIL");
    std::vector<std::string> ignored;
    plain->finish(ignored);
    wrapped->finish(ignored);
    if (!ok) ++failures;
  }
  fs::remove_all(tmp);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace edgetrain::stepbench

int main(int argc, char** argv) {
  using namespace edgetrain::stepbench;
  const std::int64_t process_start_ns = now_ns();
  const std::optional<Options> opts = parse(argc, argv);
  if (!opts) {
    std::fprintf(stderr,
                 "usage: bench_step --workload NAME --seed S --seconds T "
                 "--trace 0|1 --tmp DIR [--out FILE] [--trace-out FILE] "
                 "[--calib-profile FILE]\n       bench_step --selfcheck --tmp DIR\n");
    return 2;
  }
  try {
    return opts->selfcheck ? run_selfcheck(*opts) : run(*opts, process_start_ns);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_step: %s\n", e.what());
    return 1;
  }
}

// Outside-in timing of one training step.
//
// Every span is taken around a public call the step loop makes into the
// library, so the library itself stays uninstrumented:
//
//   * TimedRunner wraps nn::LayerChainRunner. A chain step's first forward
//     in a pass is a forward; every later visit in the same pass is a
//     recompute (the same rule LayerChainRunner uses for first_visit).
//   * TimedStore wraps any core::SlotStore. It forwards every call,
//     including the schedule-lookahead hooks the async store prefetches
//     from, so wrapping a store never changes what it does.
//
// Spans land in a SpanLog whose capacity is fixed before the timed phase,
// so recording never allocates.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include "core/executor.hpp"
#include "core/slot_store.hpp"
#include "nn/chain_runner.hpp"

namespace edgetrain::stepbench {

enum class SpanKind : std::uint8_t {
  // Top level: their sum is the attributed part of a step.
  ZeroGrad,
  Run,
  Optimizer,
  Harvest,
  Gather,
  Snapshot,
  // Inside Run.
  Forward,
  Recompute,
  Backward,
  Loss,
  StorePut,
  StoreGet,
  StoreOther,
  kCount,
};

inline constexpr std::size_t kSpanKinds = static_cast<std::size_t>(SpanKind::kCount);

[[nodiscard]] inline bool is_top_level(SpanKind kind) {
  return kind <= SpanKind::Snapshot;
}

[[nodiscard]] inline const char* span_name(SpanKind kind) {
  static constexpr std::array<const char*, kSpanKinds> kNames = {
      "zero_grad", "run",      "optimizer", "harvest",   "gather",
      "snapshot",  "forward",  "recompute", "backward",  "loss",
      "store_put", "store_get", "store_other"};
  return kNames[static_cast<std::size_t>(kind)];
}

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  SpanKind kind = SpanKind::Run;
  /// Chain step for runner spans, slot for store puts/gets, else -1.
  std::int32_t index = -1;
};

/// Fixed-capacity span buffer for one step. Spans past the capacity are
/// counted, not stored.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) : spans_(capacity) {}

  void clear() {
    size_ = 0;
    dropped_ = 0;
  }
  void add(SpanKind kind, std::int32_t index, std::int64_t begin_ns,
           std::int64_t end_ns) {
    if (size_ == spans_.size()) {
      ++dropped_;
      return;
    }
    spans_[size_++] = Span{begin_ns, end_ns, kind, index};
  }
  [[nodiscard]] const Span* begin() const { return spans_.data(); }
  [[nodiscard]] const Span* end() const { return spans_.data() + size_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return spans_.size(); }
  [[nodiscard]] std::int64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  std::size_t size_ = 0;
  std::int64_t dropped_ = 0;
};

/// Records its own lifetime as one span; a null log records nothing and
/// reads no clock.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanKind kind, std::int32_t index = -1)
      : log_(log), kind_(kind), index_(index),
        begin_ns_(log != nullptr ? now_ns() : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->add(kind_, index_, begin_ns_, now_ns());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  SpanKind kind_;
  std::int32_t index_;
  std::int64_t begin_ns_;
};

class TimedRunner final : public core::ChainRunner {
 public:
  TimedRunner(nn::LayerChainRunner& inner, SpanLog& log)
      : inner_(inner),
        log_(log),
        visits_(static_cast<std::size_t>(inner.num_steps()), 0) {}

  /// Starts a pass on the wrapped runner and resets the forward/recompute
  /// split.
  void begin_pass() {
    inner_.begin_pass();
    std::fill(visits_.begin(), visits_.end(), 0);
  }

  [[nodiscard]] int num_steps() const override { return inner_.num_steps(); }

  [[nodiscard]] Tensor forward(int step, const Tensor& input,
                               bool save) override {
    const bool first = visits_[static_cast<std::size_t>(step)]++ == 0;
    const ScopedSpan span(&log_, first ? SpanKind::Forward : SpanKind::Recompute,
                          step);
    return inner_.forward(step, input, save);
  }

  [[nodiscard]] Tensor backward(int step, const Tensor& grad_output) override {
    const ScopedSpan span(&log_, SpanKind::Backward, step);
    return inner_.backward(step, grad_output);
  }

 private:
  nn::LayerChainRunner& inner_;
  SpanLog& log_;
  std::vector<int> visits_;
};

/// Per-put observations TimedStore samples after each put returns.
struct StoreSamples {
  double ratio_sum = 0.0;
  std::int64_t puts = 0;
  std::size_t resident_peak_bytes = 0;
};

class TimedStore final : public core::SlotStore {
 public:
  TimedStore(core::SlotStore& inner, SpanLog& log) : inner_(inner), log_(log) {}

  void put(std::int32_t slot, const Tensor& value) override {
    {
      const ScopedSpan span(&log_, SpanKind::StorePut, slot);
      inner_.put(slot, value);
    }
    samples_.ratio_sum += inner_.measured_slot_ratio(slot);
    ++samples_.puts;
    samples_.resident_peak_bytes =
        std::max(samples_.resident_peak_bytes, inner_.resident_bytes());
  }
  [[nodiscard]] Tensor get(std::int32_t slot) override {
    const ScopedSpan span(&log_, SpanKind::StoreGet, slot);
    return inner_.get(slot);
  }
  void drop(std::int32_t slot) override {
    const ScopedSpan span(&log_, SpanKind::StoreOther, slot);
    inner_.drop(slot);
  }
  [[nodiscard]] std::size_t resident_bytes() const override {
    return inner_.resident_bytes();
  }
  [[nodiscard]] std::size_t external_bytes() const override {
    return inner_.external_bytes();
  }
  [[nodiscard]] double measured_slot_ratio(std::int32_t slot) const override {
    return inner_.measured_slot_ratio(slot);
  }
  void begin_replay(const core::Schedule& schedule) override {
    const ScopedSpan span(&log_, SpanKind::StoreOther);
    inner_.begin_replay(schedule);
  }
  void on_replay_position(std::int64_t next_action) override {
    const ScopedSpan span(&log_, SpanKind::StoreOther);
    inner_.on_replay_position(next_action);
  }
  void end_replay() override {
    const ScopedSpan span(&log_, SpanKind::StoreOther);
    inner_.end_replay();
  }

  [[nodiscard]] const StoreSamples& samples() const { return samples_; }
  void reset_samples() { samples_ = {}; }

 private:
  core::SlotStore& inner_;
  SpanLog& log_;
  StoreSamples samples_;
};

}  // namespace edgetrain::stepbench

// edgetrain: byte-accurate memory tracking for training-footprint experiments.
//
// Every Tensor allocation in the library is routed through MemoryTracker so
// that the quantity the paper tabulates (peak bytes held during a training
// step) can be *measured*, not only modelled. The tracker is a process-wide
// singleton with atomic counters; ScopedPeakProbe measures the peak over a
// region (e.g. one checkpointed backpropagation) without disturbing global
// statistics of other threads.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace edgetrain {

/// Process-wide allocation statistics for tensor storage.
///
/// Bytes are split into two categories so that paper-facing tables can
/// include or exclude kernel scratch explicitly:
///  - *persistent*: Tensor storage -- weights, activations, checkpoints.
///    This is the quantity Tables I-III of the paper tabulate.
///  - *scratch*: per-thread Workspace arenas -- GEMM packing panels and
///    im2col/col2im buffers. Bounded, reused across steps, and zero new
///    allocations in steady-state training.
///
/// The peak is tracked for persistent bytes only; scratch has live-byte and
/// allocation-count accessors, and total_bytes() reports the inclusive view.
///
/// Thread-safe: counters are atomics; the peak is maintained with a CAS loop.
class MemoryTracker {
 public:
  /// The global tracker used by all Tensor storage.
  static MemoryTracker& instance() noexcept;

  /// Record a persistent (Tensor storage) allocation of @p bytes.
  void on_alloc(std::size_t bytes) noexcept;

  /// Record a persistent deallocation of @p bytes.
  void on_free(std::size_t bytes) noexcept;

  /// Record a scratch (Workspace arena) allocation of @p bytes.
  void on_scratch_alloc(std::size_t bytes) noexcept;

  /// Record a scratch deallocation of @p bytes.
  void on_scratch_free(std::size_t bytes) noexcept;

  /// Persistent bytes currently live.
  [[nodiscard]] std::size_t current_bytes() const noexcept {
    return current_.load(std::memory_order_relaxed);
  }

  /// Scratch bytes currently live.
  [[nodiscard]] std::size_t scratch_bytes() const noexcept {
    return scratch_current_.load(std::memory_order_relaxed);
  }

  /// Persistent + scratch bytes currently live.
  [[nodiscard]] std::size_t total_bytes() const noexcept {
    return current_bytes() + scratch_bytes();
  }

  /// Persistent high-water mark since construction or the last reset_peak().
  [[nodiscard]] std::size_t peak_bytes() const noexcept {
    return peak_.load(std::memory_order_relaxed);
  }

  /// Number of persistent allocations since construction.
  [[nodiscard]] std::uint64_t allocation_count() const noexcept {
    return allocations_.load(std::memory_order_relaxed);
  }

  /// Number of scratch allocations since construction. Flat across steady-
  /// state training steps: workspaces grow only while warming up.
  [[nodiscard]] std::uint64_t scratch_allocation_count() const noexcept {
    return scratch_allocations_.load(std::memory_order_relaxed);
  }

  /// Reset the persistent high-water mark to the current live size.
  void reset_peak() noexcept;

 private:
  // memory_order_relaxed throughout is intentional, not an optimisation
  // oversight: these are pure statistics counters. No thread ever uses a
  // counter value to decide that *other* memory is safe to read (nothing is
  // published through them), so the only property needed is atomicity of
  // each individual update. The peak is raised from each fetch_add's own
  // result, so it never misses a value current_ held; ScopedPeakProbe is
  // specified for single-threaded regions because it resets that one
  // process-wide peak.
  std::atomic<std::size_t> current_{0};
  std::atomic<std::size_t> peak_{0};
  std::atomic<std::uint64_t> allocations_{0};
  std::atomic<std::size_t> scratch_current_{0};
  std::atomic<std::uint64_t> scratch_allocations_{0};
};

/// Measures the peak number of live bytes over a lexical region.
///
/// On construction records the current live size as the baseline and resets
/// the global peak; peak_bytes() then reports the high-water mark reached
/// since construction. Intended for single-threaded measurement regions
/// (benchmarks, tests).
class ScopedPeakProbe {
 public:
  ScopedPeakProbe() noexcept;

  ScopedPeakProbe(const ScopedPeakProbe&) = delete;
  ScopedPeakProbe& operator=(const ScopedPeakProbe&) = delete;

  /// Bytes live when the probe was created.
  [[nodiscard]] std::size_t baseline_bytes() const noexcept { return baseline_; }

  /// High-water mark of live bytes since the probe was created.
  [[nodiscard]] std::size_t peak_bytes() const noexcept;

  /// Peak minus baseline: the additional memory the region needed.
  [[nodiscard]] std::size_t peak_over_baseline() const noexcept;

 private:
  std::size_t baseline_{0};
};

}  // namespace edgetrain

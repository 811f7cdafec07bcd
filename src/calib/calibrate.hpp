// edgetrain: on-device calibration.
//
// calibrate() times the three substrates a training schedule actually
// spends wall-clock in -- compute kernels (GEMM and conv forward+backward,
// across a sweep of worker-thread counts), memory copies, and spill IO
// through the real TieredSlotStore path (so EDGETRAIN_DISK_LATENCY_US
// and SD bandwidth are observed, not assumed) -- and fits the DeviceModel
// the planners consume. The probes auto-scale their iteration counts until a
// sample exceeds min_sample_seconds and report the minimum over repeats
// (the bench convention: the minimum is the least-noisy estimator of the
// achievable rate on a machine with background load).
//
// load_or_calibrate() is the once-per-device entry point: a valid cached
// profile is returned immediately; a missing, truncated or corrupt one is
// silently re-measured and re-cached.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "calib/device_model.hpp"

namespace edgetrain::calib {

struct CalibrationOptions {
  /// A timing sample is grown (iterations doubled) until it lasts at least
  /// this long; the quick presets in tests/CI shrink it to keep smoke runs
  /// cheap at the price of noisier rates.
  double min_sample_seconds = 0.02;
  /// Samples per probe; the minimum is reported.
  int repeats = 3;
  /// GEMM probe: square n x n x n.
  std::int64_t gemm_size = 192;
  /// Conv probe: channels x 32 x 32 image, 3x3 same-padding.
  std::int64_t conv_channels = 32;
  std::int64_t conv_image = 32;
  /// Thread counts to measure. Empty = {1, 2, 4, ...} up to
  /// hardware_concurrency (the last point is hardware_concurrency itself).
  std::vector<int> thread_counts;
  /// Spill probe tensor sizes (floats); two sizes separate the fixed
  /// per-op latency from the streaming bandwidth by a linear fit.
  std::int64_t io_small_elems = 64 * 1024;
  std::int64_t io_large_elems = 1024 * 1024;
  /// Directory for the spill probe's temporary files (created if missing).
  std::string scratch_dir = "/tmp/edgetrain_calib";
};

/// Quick preset for CI smoke jobs and tests: one repeat, 2 ms samples.
[[nodiscard]] CalibrationOptions quick_calibration();

/// Measures this machine. Temporarily repins the global ThreadPool for the
/// thread sweep and restores the previous worker count before returning.
[[nodiscard]] DeviceModel calibrate(const CalibrationOptions& options = {});

/// Returns the cached profile at @p profile_path when it loads and
/// validates; otherwise calibrates, writes the profile (atomic rename) and
/// returns the fresh model. @p was_cached, when non-null, reports which
/// path was taken.
[[nodiscard]] DeviceModel load_or_calibrate(
    const std::string& profile_path, const CalibrationOptions& options = {},
    bool* was_cached = nullptr);

/// The timing primitive the probes share: runs @p fn repeatedly, growing
/// the iteration count until one sample exceeds @p min_sample_seconds, and
/// returns the minimum per-iteration seconds over @p repeats samples.
[[nodiscard]] double time_per_iteration_seconds(
    double min_sample_seconds, int repeats, const std::function<void()>& fn);

}  // namespace edgetrain::calib

#include "calib/calibrate.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <limits>
#include <random>
#include <thread>

#include "core/async_slot_store.hpp"
#include "tensor/convert.hpp"
#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"
#include "tensor/quant.hpp"
#include "tensor/tensor.hpp"

namespace edgetrain::calib {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Restores the global pool's worker count on scope exit, so a thrown
/// probe cannot leave the process pinned to one worker.
class ThreadPinGuard {
 public:
  ThreadPinGuard() : previous_(ThreadPool::global().size()) {}
  ~ThreadPinGuard() { ThreadPool::set_global_threads(previous_); }
  ThreadPinGuard(const ThreadPinGuard&) = delete;
  ThreadPinGuard& operator=(const ThreadPinGuard&) = delete;

 private:
  unsigned previous_;
};

std::vector<int> default_thread_counts() {
  const unsigned hw = std::max(1U, std::thread::hardware_concurrency());
  std::vector<int> counts;
  for (unsigned t = 1; t < hw; t *= 2) counts.push_back(static_cast<int>(t));
  counts.push_back(static_cast<int>(hw));
  return counts;
}

}  // namespace

double time_per_iteration_seconds(double min_sample_seconds, int repeats,
                                  const std::function<void()>& fn) {
  repeats = std::max(1, repeats);
  // Grow the iteration count until one sample is long enough to trust the
  // clock, then keep it fixed across repeats.
  std::int64_t iters = 1;
  double sample = 0.0;
  for (;;) {
    const auto start = Clock::now();
    for (std::int64_t i = 0; i < iters; ++i) fn();
    sample = seconds_since(start);
    if (sample >= min_sample_seconds || iters >= (1LL << 30)) break;
    iters *= 2;
  }
  double best = sample / static_cast<double>(iters);
  for (int r = 1; r < repeats; ++r) {
    const auto start = Clock::now();
    for (std::int64_t i = 0; i < iters; ++i) fn();
    best = std::min(best,
                    seconds_since(start) / static_cast<double>(iters));
  }
  return best;
}

CalibrationOptions quick_calibration() {
  CalibrationOptions options;
  options.min_sample_seconds = 0.002;
  options.repeats = 1;
  options.gemm_size = 96;
  options.conv_channels = 16;
  options.conv_image = 16;
  options.io_small_elems = 16 * 1024;
  options.io_large_elems = 128 * 1024;
  return options;
}

namespace {

ThreadPoint measure_compute_point(int threads,
                                  const CalibrationOptions& options) {
  ThreadPool::set_global_threads(static_cast<unsigned>(threads));
  ThreadPoint point;
  point.threads = threads;

  {
    const std::int64_t n = options.gemm_size;
    std::mt19937 rng(11);
    Tensor a = Tensor::randn(Shape{n, n}, rng);
    Tensor b = Tensor::randn(Shape{n, n}, rng);
    Tensor c = Tensor::zeros(Shape{n, n});
    const double flops = 2.0 * static_cast<double>(n) * static_cast<double>(n) *
                         static_cast<double>(n);
    const double secs = time_per_iteration_seconds(
        options.min_sample_seconds, options.repeats, [&] {
          ops::gemm(false, false, n, n, n, 1.0F, a.data(), b.data(), 0.0F,
                    c.data());
        });
    point.gemm_gflops = flops / secs * 1e-9;

    // bf16 GEMM probe on the same operands, pre-rounded once (the
    // steady-state shape: persistent bf16 weights, repeated products).
    std::vector<std::uint16_t> a16(static_cast<std::size_t>(n * n));
    std::vector<std::uint16_t> b16(static_cast<std::size_t>(n * n));
    convert::fp32_to_bf16(a.data(), a16.data(), n * n);
    convert::fp32_to_bf16(b.data(), b16.data(), n * n);
    const double bf16_secs = time_per_iteration_seconds(
        options.min_sample_seconds, options.repeats, [&] {
          ops::gemm_bf16(false, false, n, n, n, 1.0F, a16.data(), b16.data(),
                         0.0F, c.data());
        });
    point.bf16_gemm_gflops = flops / bf16_secs * 1e-9;

    // int8 GEMM probe: same dimensions, s8 weights x u8 activations into
    // s32 -- one MAC counted as 2 ops so the rate compares to gemm_gflops.
    std::vector<std::int8_t> a8(static_cast<std::size_t>(n * n));
    std::vector<std::uint8_t> b8(static_cast<std::size_t>(n * n));
    for (std::size_t i = 0; i < a8.size(); ++i) {
      a8[i] = static_cast<std::int8_t>(static_cast<int>(i * 37 % 255) - 127);
      b8[i] = static_cast<std::uint8_t>(i * 101 % 256);
    }
    std::vector<std::int32_t> c32(static_cast<std::size_t>(n * n));
    const double s8_secs = time_per_iteration_seconds(
        options.min_sample_seconds, options.repeats, [&] {
          quant::gemm_s8u8(n, n, n, a8.data(), b8.data(), /*zp_b=*/128,
                           c32.data());
        });
    point.s8_gemm_gops = flops / s8_secs * 1e-9;
  }

  {
    const std::int64_t c = options.conv_channels;
    const std::int64_t hw = options.conv_image;
    std::mt19937 rng(12);
    Tensor x = Tensor::randn(Shape{1, c, hw, hw}, rng);
    Tensor w = Tensor::randn(Shape{c, c, 3, 3}, rng);
    Tensor gy = Tensor::randn(Shape{1, c, hw, hw}, rng);
    const ops::ConvParams params{1, 1};
    // Forward + backward together: the ratio a training step sees. Forward
    // is one implicit GEMM, backward two (dX and dW) of the same shape.
    const double flops = 3.0 * 2.0 * static_cast<double>(c) *
                         static_cast<double>(c) * 9.0 *
                         static_cast<double>(hw) * static_cast<double>(hw);
    const double secs = time_per_iteration_seconds(
        options.min_sample_seconds, options.repeats, [&] {
          Tensor y = ops::conv2d_forward(x, w, Tensor{}, params);
          ops::Conv2dGrads grads = ops::conv2d_backward(gy, x, w, params, true);
          // The outputs feed nothing; keep the calls from being elided.
          if (y.data() == nullptr || grads.grad_x.data() == nullptr) {
            std::abort();
          }
        });
    point.conv_gflops = flops / secs * 1e-9;
  }
  return point;
}

double measure_memcpy_bytes_per_sec(const CalibrationOptions& options) {
  constexpr std::size_t kBytes = 8U << 20;
  std::vector<std::uint8_t> src(kBytes, 0x5A);
  std::vector<std::uint8_t> dst(kBytes);
  const double secs = time_per_iteration_seconds(
      options.min_sample_seconds, options.repeats, [&] {
        std::memcpy(dst.data(), src.data(), kBytes);
        // Defeat dead-store elimination across iterations.
        src[0] = static_cast<std::uint8_t>(dst[kBytes - 1] + 1);
      });
  return static_cast<double>(kBytes) / secs;
}

struct IoFit {
  double bytes_per_sec = 0.0;
  double latency_us = 0.0;
};

/// Two-point linear fit time(bytes) = latency + bytes / bandwidth over the
/// real spill path (serialize + CRC + file IO + injected latency).
void measure_disk(const CalibrationOptions& options, IoFit* write_fit,
                  IoFit* read_fit) {
  std::filesystem::create_directories(options.scratch_dir);
  core::AsyncDiskSlotStore store(/*num_slots=*/1, /*first_disk_slot=*/0,
                                 options.scratch_dir);
  std::mt19937 rng(13);

  // A write is timed to completion (put + flush); with no replay running
  // nothing is prefetched, so get() is a blocking read on this thread.
  const auto probe = [&](std::int64_t elems, double* put_secs,
                         double* get_secs) {
    Tensor value = Tensor::randn(Shape{elems}, rng);
    store.put(0, value);  // warm the file and allocator paths
    store.flush();
    *put_secs = time_per_iteration_seconds(options.min_sample_seconds,
                                           options.repeats, [&] {
                                             store.put(0, value);
                                             store.flush();
                                           });
    *get_secs = time_per_iteration_seconds(
        options.min_sample_seconds, options.repeats, [&] {
          Tensor restored = store.get(0);
          if (restored.data() == nullptr) std::abort();
        });
    store.drop(0);
  };

  const std::int64_t small = std::max<std::int64_t>(1024, options.io_small_elems);
  const std::int64_t large = std::max(small * 2, options.io_large_elems);
  double put_small = 0.0, get_small = 0.0, put_large = 0.0, get_large = 0.0;
  probe(small, &put_small, &get_small);
  probe(large, &put_large, &get_large);

  const double small_bytes = static_cast<double>(small) * sizeof(float);
  const double large_bytes = static_cast<double>(large) * sizeof(float);
  const auto fit = [&](double t_small, double t_large) {
    IoFit f;
    const double dt = t_large - t_small;
    if (dt > 0.0) {
      f.bytes_per_sec = (large_bytes - small_bytes) / dt;
      f.latency_us = std::max(0.0, t_small - small_bytes / f.bytes_per_sec) *
                     1e6;
    } else {
      // Degenerate timing (cache effects swamped the size difference):
      // fall back to pure bandwidth from the large probe.
      f.bytes_per_sec = large_bytes / std::max(t_large, 1e-9);
      f.latency_us = 0.0;
    }
    return f;
  };
  *write_fit = fit(put_small, put_large);
  *read_fit = fit(get_small, get_large);
}

}  // namespace

DeviceModel calibrate(const CalibrationOptions& options) {
  ThreadPinGuard restore_threads;
  DeviceModel model;

  std::vector<int> counts = options.thread_counts.empty()
                                ? default_thread_counts()
                                : options.thread_counts;
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  for (const int threads : counts) {
    if (threads < 1) continue;
    model.points.push_back(measure_compute_point(threads, options));
  }

  model.memcpy_bytes_per_sec = measure_memcpy_bytes_per_sec(options);

  IoFit write_fit;
  IoFit read_fit;
  measure_disk(options, &write_fit, &read_fit);
  model.disk_write_bytes_per_sec = write_fit.bytes_per_sec;
  model.disk_write_latency_us = write_fit.latency_us;
  model.disk_read_bytes_per_sec = read_fit.bytes_per_sec;
  model.disk_read_latency_us = read_fit.latency_us;
  return model;
}

DeviceModel load_or_calibrate(const std::string& profile_path,
                              const CalibrationOptions& options,
                              bool* was_cached) {
  if (std::optional<DeviceModel> cached = load_profile(profile_path)) {
    if (was_cached != nullptr) *was_cached = true;
    return *cached;
  }
  if (was_cached != nullptr) *was_cached = false;
  DeviceModel model = calibrate(options);
  const std::filesystem::path parent =
      std::filesystem::path(profile_path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  save_profile(profile_path, model);
  return model;
}

}  // namespace edgetrain::calib

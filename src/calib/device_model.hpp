// edgetrain: the fitted per-device performance model.
//
// Every planner in the library prices schedules in *some* unit -- forward
// steps, bytes, IO weights. On a real device those units have exchange
// rates (a conv flop is not a GEMM flop; an SD-card byte is slower than a
// RAM byte; adding threads helps big cores more than little ones), and the
// paper's recompute-vs-memory tradeoff is only as good as those rates. A
// DeviceModel is the compact record of the rates measured on the running
// machine by calib::calibrate():
//
//   * sustained GEMM and conv GFLOPS per worker-thread count (the
//     thread-count dimension captures big.LITTLE-style asymmetry: points
//     are measured, not extrapolated, so a pool spanning slow cores shows
//     its real sub-linear scaling);
//   * memcpy bandwidth (checkpoint stores copy activations around);
//   * SD/disk spill bandwidth and fixed per-op latency, measured through
//     the same TieredSlotStore path training uses (so an injected
//     EDGETRAIN_DISK_LATENCY_US shows up here, exactly as it would in a
//     training pass).
//
// Prediction queries convert analytic work (flops, bytes) into calibrated
// microseconds. The profile round-trips through a checksummed on-disk
// cache ("ETCP": magic | version | payload_size | payload_crc | header_crc,
// written temp + fsync + atomic-rename like persist/snapshot.hpp), so
// calibration runs once per device and a corrupt or truncated profile is
// detected and re-measured, never trusted.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace edgetrain::calib {

/// One calibrated operating point: sustained kernel throughput with the
/// global pool pinned to `threads` workers.
struct ThreadPoint {
  int threads = 1;
  double gemm_gflops = 0.0;
  double conv_gflops = 0.0;
  /// Quantized-kernel throughput (profile v2). 0.0 means "not measured"
  /// (e.g. a probe was skipped): still a valid point, and the precision
  /// queries fall back to the fp32 GEMM rate.
  double bf16_gemm_gflops = 0.0;
  /// int8 GEMM in giga-ops/sec (one multiply-accumulate = 2 ops, the same
  /// counting as GFLOPS, so ratios against gemm_gflops compare directly).
  double s8_gemm_gops = 0.0;

  [[nodiscard]] bool operator==(const ThreadPoint&) const = default;
};

/// The fitted device model. All query results are wall-clock microseconds.
struct DeviceModel {
  /// Measured points, ascending in threads (at least one entry).
  std::vector<ThreadPoint> points;
  double memcpy_bytes_per_sec = 0.0;
  /// Spill path: time(bytes) = latency_us + bytes / bytes_per_sec.
  double disk_write_bytes_per_sec = 0.0;
  double disk_read_bytes_per_sec = 0.0;
  double disk_write_latency_us = 0.0;
  double disk_read_latency_us = 0.0;

  [[nodiscard]] bool operator==(const DeviceModel&) const = default;

  /// True when the model is usable: >= 1 point, ascending threads, every
  /// throughput strictly positive, latencies non-negative.
  [[nodiscard]] bool valid() const;

  /// Largest measured thread count.
  [[nodiscard]] int calibrated_threads() const;

  /// Thread count with the highest conv throughput (the setting a trainer
  /// should pin the pool to).
  [[nodiscard]] int best_threads() const;

  /// Throughput at @p threads: linear interpolation between measured
  /// points, clamped at the ends (no extrapolation beyond measurements).
  [[nodiscard]] double gemm_gflops_at(int threads) const;
  [[nodiscard]] double conv_gflops_at(int threads) const;
  /// Quantized GEMM rates. 0.0 when no point measured them (pre-v2
  /// profiles or skipped probes).
  [[nodiscard]] double bf16_gemm_gflops_at(int threads) const;
  [[nodiscard]] double s8_gemm_gops_at(int threads) const;

  /// Predicted microseconds for @p flops of GEMM / conv work.
  [[nodiscard]] double gemm_us(double flops, int threads) const;
  [[nodiscard]] double conv_us(double flops, int threads) const;
  /// Quantized-GEMM predictions; when the quantized rate is unmeasured
  /// (0.0) these conservatively fall back to the fp32 GEMM rate.
  [[nodiscard]] double bf16_gemm_us(double flops, int threads) const;
  [[nodiscard]] double s8_gemm_us(double ops, int threads) const;

  /// Predicted microseconds to copy / spill-write / spill-read @p bytes.
  [[nodiscard]] double memcpy_us(double bytes) const;
  [[nodiscard]] double disk_write_us(double bytes) const;
  [[nodiscard]] double disk_read_us(double bytes) const;
};

/// Decode/read failure (bad magic, version, CRC mismatch, truncation).
class ProfileError : public std::runtime_error {
 public:
  explicit ProfileError(const std::string& what)
      : std::runtime_error("calib profile: " + what) {}
};

/// Numeric precision a planner wants work priced at. Fp32 is the measured
/// baseline; Bf16/Int8 use the quantized GEMM probes (with fp32 fallback
/// when a profile predates them).
enum class Precision : std::uint8_t { Fp32, Bf16, Int8 };

/// v2 adds bf16/int8 GEMM throughput per point. Cached v1 profiles fail
/// the version check and are simply re-measured by load_or_calibrate.
inline constexpr std::uint32_t kProfileVersion = 2;

/// Serialises @p model into the versioned, CRC-protected "ETCP" container.
[[nodiscard]] std::vector<std::uint8_t> encode_profile(
    const DeviceModel& model);

/// Inverse of encode_profile. Throws ProfileError on any mismatch (magic,
/// version, size, either CRC, trailing garbage, invalid model).
[[nodiscard]] DeviceModel decode_profile(
    const std::vector<std::uint8_t>& bytes);

/// Writes @p model to @p path via temp + fsync + atomic rename: the final
/// name never holds a torn profile. Parent directories must exist.
void save_profile(const std::string& path, const DeviceModel& model);

/// Reads and validates one profile. Returns nullopt when the file is
/// missing, truncated, corrupt or holds an invalid model -- the caller's
/// cue to re-calibrate (load_or_calibrate in calib/calibrate.hpp does
/// exactly that).
[[nodiscard]] std::optional<DeviceModel> load_profile(const std::string& path);

}  // namespace edgetrain::calib

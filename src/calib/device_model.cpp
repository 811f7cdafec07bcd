#include "calib/device_model.hpp"

#include <algorithm>
#include <bit>

#include "persist/atomic_file.hpp"
#include "persist/wire.hpp"

namespace edgetrain::calib {

namespace {

constexpr std::uint32_t kMagic = 0x50435445;  // "ETCP" little-endian

void wr_f64(persist::ByteWriter& w, double value) {
  w.u64(std::bit_cast<std::uint64_t>(value));
}

double rd_f64(persist::ByteReader& r) {
  return std::bit_cast<double>(r.u64());
}

}  // namespace

bool DeviceModel::valid() const {
  if (points.empty()) return false;
  int prev = 0;
  for (const ThreadPoint& p : points) {
    if (p.threads <= prev) return false;  // ascending, >= 1
    if (!(p.gemm_gflops > 0.0) || !(p.conv_gflops > 0.0)) return false;
    // Quantized rates may legitimately be 0.0 (unmeasured) but never
    // negative or NaN.
    if (!(p.bf16_gemm_gflops >= 0.0) || !(p.s8_gemm_gops >= 0.0)) {
      return false;
    }
    prev = p.threads;
  }
  if (!(memcpy_bytes_per_sec > 0.0)) return false;
  if (!(disk_write_bytes_per_sec > 0.0)) return false;
  if (!(disk_read_bytes_per_sec > 0.0)) return false;
  if (disk_write_latency_us < 0.0 || disk_read_latency_us < 0.0) return false;
  return true;
}

int DeviceModel::best_threads() const {
  int best = 1;
  double best_gflops = 0.0;
  for (const ThreadPoint& p : points) {
    if (p.conv_gflops > best_gflops) {
      best_gflops = p.conv_gflops;
      best = p.threads;
    }
  }
  return best;
}

namespace {

double interpolate(const std::vector<ThreadPoint>& points, int threads,
                   double ThreadPoint::* field) {
  if (points.empty()) return 0.0;
  if (threads <= points.front().threads) return points.front().*field;
  if (threads >= points.back().threads) return points.back().*field;
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (threads <= points[i].threads) {
      const ThreadPoint& lo = points[i - 1];
      const ThreadPoint& hi = points[i];
      const double t = static_cast<double>(threads - lo.threads) /
                       static_cast<double>(hi.threads - lo.threads);
      return lo.*field + t * (hi.*field - lo.*field);
    }
  }
  return points.back().*field;
}

}  // namespace

double DeviceModel::gemm_gflops_at(int threads) const {
  return interpolate(points, threads, &ThreadPoint::gemm_gflops);
}

double DeviceModel::conv_gflops_at(int threads) const {
  return interpolate(points, threads, &ThreadPoint::conv_gflops);
}

double DeviceModel::bf16_gemm_gflops_at(int threads) const {
  return interpolate(points, threads, &ThreadPoint::bf16_gemm_gflops);
}

double DeviceModel::s8_gemm_gops_at(int threads) const {
  return interpolate(points, threads, &ThreadPoint::s8_gemm_gops);
}

double DeviceModel::gemm_us(double flops, int threads) const {
  const double gflops = gemm_gflops_at(threads);
  return gflops > 0.0 ? flops / (gflops * 1e9) * 1e6 : 0.0;
}

double DeviceModel::conv_us(double flops, int threads) const {
  const double gflops = conv_gflops_at(threads);
  return gflops > 0.0 ? flops / (gflops * 1e9) * 1e6 : 0.0;
}

double DeviceModel::bf16_gemm_us(double flops, int threads) const {
  const double gflops = bf16_gemm_gflops_at(threads);
  if (gflops > 0.0) return flops / (gflops * 1e9) * 1e6;
  return gemm_us(flops, threads);  // unmeasured: conservative fp32 rate
}

double DeviceModel::s8_gemm_us(double ops, int threads) const {
  const double gops = s8_gemm_gops_at(threads);
  if (gops > 0.0) return ops / (gops * 1e9) * 1e6;
  return gemm_us(ops, threads);  // unmeasured: conservative fp32 rate
}

double DeviceModel::disk_write_us(double bytes) const {
  const double xfer = disk_write_bytes_per_sec > 0.0
                          ? bytes / disk_write_bytes_per_sec * 1e6
                          : 0.0;
  return disk_write_latency_us + xfer;
}

double DeviceModel::disk_read_us(double bytes) const {
  const double xfer = disk_read_bytes_per_sec > 0.0
                          ? bytes / disk_read_bytes_per_sec * 1e6
                          : 0.0;
  return disk_read_latency_us + xfer;
}

std::vector<std::uint8_t> encode_profile(const DeviceModel& model) {
  persist::ByteWriter payload;
  payload.u32(static_cast<std::uint32_t>(model.points.size()));
  for (const ThreadPoint& p : model.points) {
    payload.u32(static_cast<std::uint32_t>(p.threads));
    wr_f64(payload, p.gemm_gflops);
    wr_f64(payload, p.conv_gflops);
    wr_f64(payload, p.bf16_gemm_gflops);
    wr_f64(payload, p.s8_gemm_gops);
  }
  wr_f64(payload, model.memcpy_bytes_per_sec);
  wr_f64(payload, model.disk_write_bytes_per_sec);
  wr_f64(payload, model.disk_read_bytes_per_sec);
  wr_f64(payload, model.disk_write_latency_us);
  wr_f64(payload, model.disk_read_latency_us);

  return persist::frame_payload(kMagic, kProfileVersion, payload.bytes());
}

DeviceModel decode_profile(const std::vector<std::uint8_t>& bytes) {
  std::vector<std::uint8_t> body;
  try {
    body = persist::unframe_payload(kMagic, kProfileVersion, bytes);
  } catch (const persist::AtomicFileError& error) {
    throw ProfileError(error.what());
  }

  persist::ByteReader r(body.data(), body.size());
  DeviceModel model;
  try {
    const std::uint32_t num_points = r.u32();
    if (num_points > 4096) throw ProfileError("implausible point count");
    model.points.reserve(num_points);
    for (std::uint32_t i = 0; i < num_points; ++i) {
      ThreadPoint p;
      p.threads = static_cast<int>(r.u32());
      p.gemm_gflops = rd_f64(r);
      p.conv_gflops = rd_f64(r);
      p.bf16_gemm_gflops = rd_f64(r);
      p.s8_gemm_gops = rd_f64(r);
      model.points.push_back(p);
    }
    model.memcpy_bytes_per_sec = rd_f64(r);
    model.disk_write_bytes_per_sec = rd_f64(r);
    model.disk_read_bytes_per_sec = rd_f64(r);
    model.disk_write_latency_us = rd_f64(r);
    model.disk_read_latency_us = rd_f64(r);
  } catch (const std::runtime_error& e) {
    throw ProfileError(e.what());
  }
  if (!r.exhausted()) throw ProfileError("trailing bytes after payload");
  if (!model.valid()) throw ProfileError("decoded model fails validation");
  return model;
}

void save_profile(const std::string& path, const DeviceModel& model) {
  const std::vector<std::uint8_t> bytes = encode_profile(model);
  try {
    persist::write_file_atomic(path, bytes);
  } catch (const persist::AtomicFileError& error) {
    throw ProfileError(error.what());
  }
}

std::optional<DeviceModel> load_profile(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  try {
    bytes = persist::read_file_bytes(path);
  } catch (const persist::AtomicFileError&) {
    return std::nullopt;
  }
  try {
    return decode_profile(bytes);
  } catch (const ProfileError&) {
    return std::nullopt;
  }
}

}  // namespace edgetrain::calib

#include "edge/device.hpp"

#include <stdexcept>

namespace edgetrain::edge {

namespace {
constexpr double kMiB = 1024.0 * 1024.0;
constexpr std::uint64_t kGiB = 1024ULL * 1024ULL * 1024ULL;
}  // namespace

EdgeDevice EdgeDevice::waggle_odroid_xu4() {
  EdgeDevice d;
  d.name = "Waggle ODROID-XU4";
  d.memory_bytes = 2 * kGiB;
  d.big_cores = 4;    // Cortex-A15 @ 2.0 GHz
  d.little_cores = 4; // Cortex-A7 @ 1.4 GHz
  d.peak_gflops = 15.0;
  d.storage_bytes = 64 * kGiB;  // SD card
  d.storage_write_mbps = 20.0;
  d.storage_read_mbps = 80.0;
  d.uplink_mbps = 5.0;  // shared cellular/backhaul budget
  d.compute_watts = 10.0;
  d.radio_watts_per_mbps = 0.5;
  return d;
}

double EdgeDevice::uplink_seconds(double bytes) const {
  if (uplink_mbps <= 0.0) throw std::logic_error("device has no uplink");
  return bytes * 8.0 / (uplink_mbps * 1e6);
}

double EdgeDevice::disk_write_cost_units(double checkpoint_bytes,
                                         double step_flops) const {
  const double step_seconds = step_flops / (peak_gflops * 1e9);
  const double io_seconds = checkpoint_bytes / (storage_write_mbps * kMiB);
  return io_seconds / step_seconds;
}

double EdgeDevice::disk_read_cost_units(double checkpoint_bytes,
                                        double step_flops) const {
  const double step_seconds = step_flops / (peak_gflops * 1e9);
  const double io_seconds = checkpoint_bytes / (storage_read_mbps * kMiB);
  return io_seconds / step_seconds;
}

}  // namespace edgetrain::edge

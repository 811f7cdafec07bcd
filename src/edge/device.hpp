// edgetrain: edge-device models (paper Section II).
//
// Parameterises the hardware the paper targets: the Waggle node's payload
// computer (ODROID XU4: Exynos 5422, 4xA15 + 4xA7, 2 GB LPDDR3, SD storage).
// Device specs feed the planner (memory), the task scheduler (cores), the
// storage model (SD card) and the power model (compute vs radio energy).
#pragma once

#include <cstdint>
#include <string>

namespace edgetrain::edge {

struct EdgeDevice {
  std::string name;
  std::uint64_t memory_bytes = 0;       ///< RAM available to training
  int big_cores = 0;
  int little_cores = 0;
  double peak_gflops = 0.0;             ///< sustained fp32, all cores
  std::uint64_t storage_bytes = 0;      ///< SD/flash for datasets+checkpoints
  double storage_write_mbps = 0.0;      ///< sequential write MB/s
  double storage_read_mbps = 0.0;       ///< sequential read MB/s
  double uplink_mbps = 0.0;             ///< radio/backhaul bandwidth
  double compute_watts = 0.0;           ///< SoC power under load
  double radio_watts_per_mbps = 0.0;    ///< transmit energy coefficient

  /// The Waggle node's ODROID XU4 payload board (paper Section II).
  [[nodiscard]] static EdgeDevice waggle_odroid_xu4();
  [[nodiscard]] int total_cores() const noexcept {
    return big_cores + little_cores;
  }

  /// Seconds to move @p bytes over the uplink.
  [[nodiscard]] double uplink_seconds(double bytes) const;

  /// Disk-checkpoint IO cost in "forward-step units" for the disk-revolve
  /// solver: time to write/read one checkpoint of @p checkpoint_bytes
  /// relative to the time of one forward step costing @p step_flops.
  [[nodiscard]] double disk_write_cost_units(double checkpoint_bytes,
                                             double step_flops) const;
  [[nodiscard]] double disk_read_cost_units(double checkpoint_bytes,
                                            double step_flops) const;
};

}  // namespace edgetrain::edge

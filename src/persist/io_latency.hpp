// edgetrain: injectable disk latency for the fault/benchmark harness.
//
// The SD card of a Waggle node is orders of magnitude slower than the
// laptops CI runs on, so benchmarks and tests that want to *see* the cost
// of a spill (and prove the async pipeline hides it) inject a per-file-op
// sleep. One knob, read once:
//
//   EDGETRAIN_DISK_LATENCY_US=<microseconds per spill write/read>
//
// TieredSlotStore routes every spill-file write and read through
// apply_disk_latency() (see core/spill_io.cpp), so the same knob throttles
// the store used synchronously (flush after every put, no prefetch) and
// overlapped identically -- the honest comparison bench_async_io is built
// on. Tests and benches
// can override programmatically with set_disk_latency_us(), which beats
// the environment. Default (unset/0) is a no-op: production pays nothing.
//
// Header-only on purpose: core links no persist code, but shares the
// persist fault-harness conventions (like persist/crc32.hpp).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

namespace edgetrain::persist {

namespace detail {
// memory_order_relaxed on this slot is intentional: the latency value is a
// self-contained long -- readers act on the loaded value alone and never
// infer that other memory was initialised, so no acquire/release pairing
// is required. (The race detector's HB model agrees: nothing is published
// through this cell.)
inline std::atomic<long>& disk_latency_slot() {
  static std::atomic<long> latency_us{-1};  // -1: environment not read yet
  return latency_us;
}
}  // namespace detail

/// Current injected latency in microseconds (0 = none). First call reads
/// EDGETRAIN_DISK_LATENCY_US; set_disk_latency_us() overrides.
[[nodiscard]] inline long disk_latency_us() {
  std::atomic<long>& slot = detail::disk_latency_slot();
  long value = slot.load(std::memory_order_relaxed);
  if (value >= 0) return value;
  const char* env = std::getenv("EDGETRAIN_DISK_LATENCY_US");
  long parsed = env != nullptr ? std::atol(env) : 0;
  if (parsed < 0) parsed = 0;
  // Several threads may race the first read; they all parse the same
  // environment, so any winner stores the same value.
  slot.store(parsed, std::memory_order_relaxed);
  return parsed;
}

/// Programmatic override (benchmarks calibrate their own latency; tests pin
/// it). Pass 0 to disable, negative to re-read the environment next call.
inline void set_disk_latency_us(long latency_us) {
  detail::disk_latency_slot().store(latency_us < 0 ? -1 : latency_us,
                                    std::memory_order_relaxed);
}

/// Sleeps for the injected latency; no-op when none is configured. Called
/// once per spill-file write and once per read.
inline void apply_disk_latency() {
  const long latency = disk_latency_us();
  if (latency > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(latency));
  }
}

}  // namespace edgetrain::persist

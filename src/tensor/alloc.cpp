#include "tensor/alloc.hpp"

namespace edgetrain {

namespace {
/// CAS-raise @p peak to at least @p candidate.
void raise_peak(std::atomic<std::size_t>& peak, std::size_t candidate) noexcept {
  std::size_t prev = peak.load(std::memory_order_relaxed);
  while (candidate > prev &&
         !peak.compare_exchange_weak(prev, candidate,
                                     std::memory_order_relaxed)) {
    // prev reloaded by compare_exchange_weak on failure.
  }
}
}  // namespace

MemoryTracker& MemoryTracker::instance() noexcept {
  static MemoryTracker tracker;
  return tracker;
}

void MemoryTracker::on_alloc(std::size_t bytes) noexcept {
  allocations_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t now =
      current_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  raise_peak(peak_, now);
}

void MemoryTracker::on_free(std::size_t bytes) noexcept {
  current_.fetch_sub(bytes, std::memory_order_relaxed);
}

void MemoryTracker::on_scratch_alloc(std::size_t bytes) noexcept {
  scratch_allocations_.fetch_add(1, std::memory_order_relaxed);
  scratch_current_.fetch_add(bytes, std::memory_order_relaxed);
}

void MemoryTracker::on_scratch_free(std::size_t bytes) noexcept {
  scratch_current_.fetch_sub(bytes, std::memory_order_relaxed);
}

void MemoryTracker::reset_peak() noexcept {
  peak_.store(current_.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
}

ScopedPeakProbe::ScopedPeakProbe() noexcept {
  auto& tracker = MemoryTracker::instance();
  baseline_ = tracker.current_bytes();
  tracker.reset_peak();
}

std::size_t ScopedPeakProbe::peak_bytes() const noexcept {
  return MemoryTracker::instance().peak_bytes();
}

std::size_t ScopedPeakProbe::peak_over_baseline() const noexcept {
  const std::size_t peak = peak_bytes();
  return peak > baseline_ ? peak - baseline_ : 0;
}

}  // namespace edgetrain

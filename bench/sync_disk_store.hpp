// Synchronous spill baseline for the disk benches (E10, E15, --compress):
// an AsyncDiskSlotStore whose every put is flushed to disk before it
// returns and which never sees the replay lookahead, so no write hides
// behind compute, nothing is prefetched, and every restore of a disk slot
// is a blocking read on the training thread.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>

#include "core/async_slot_store.hpp"

namespace edgetrain::bench {

class SyncDiskStore final : public core::SlotStore {
 public:
  SyncDiskStore(int num_slots, int first_disk_slot, std::string directory,
                core::SlotCodec codec = core::SlotCodec::None)
      : first_disk_slot_(first_disk_slot),
        store_(num_slots, first_disk_slot, std::move(directory),
               options_for(codec)) {}

  void put(std::int32_t slot, const Tensor& value) override {
    store_.put(slot, value);
    store_.flush();
    if (slot >= first_disk_slot_) {
      plain_seen_ += value.bytes();
      encoded_seen_ += static_cast<std::size_t>(std::llround(
          store_.measured_slot_ratio(slot) *
          static_cast<double>(value.bytes())));
    }
  }
  [[nodiscard]] Tensor get(std::int32_t slot) override {
    return store_.get(slot);
  }
  void drop(std::int32_t slot) override { store_.drop(slot); }
  [[nodiscard]] std::size_t resident_bytes() const override {
    return store_.resident_bytes();
  }
  [[nodiscard]] std::size_t external_bytes() const override {
    return store_.external_bytes();
  }
  [[nodiscard]] double measured_slot_ratio(std::int32_t slot) const override {
    return store_.measured_slot_ratio(slot);
  }
  // begin_replay/on_replay_position/end_replay keep the SlotStore no-op
  // defaults: withholding the tape is what switches prefetch off.

  [[nodiscard]] std::int64_t disk_writes() const {
    return store_.disk_writes();
  }
  [[nodiscard]] std::int64_t disk_reads() const { return store_.disk_reads(); }

  /// Cumulative encoded/plaintext bytes over every spilled put (1.0 when
  /// nothing was spilled): the measured compression on real activations.
  [[nodiscard]] double measured_ratio() const {
    return plain_seen_ == 0 ? 1.0
                            : static_cast<double>(encoded_seen_) /
                                  static_cast<double>(plain_seen_);
  }

 private:
  static core::AsyncDiskSlotStoreOptions options_for(core::SlotCodec codec) {
    core::AsyncDiskSlotStoreOptions options;
    options.codec = codec;
    return options;
  }

  int first_disk_slot_;
  core::AsyncDiskSlotStore store_;
  std::size_t plain_seen_ = 0;
  std::size_t encoded_seen_ = 0;
};

}  // namespace edgetrain::bench

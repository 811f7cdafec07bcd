// edgetrain: checkpoint slot storage backends.
//
// The executor keeps checkpointed activations in a SlotStore. Three
// backends cover the three places the paper's memory story puts a slot:
//   * RamSlotStore        -- shares tensor handles (zero copy; the default);
//   * CompressedSlotStore -- keeps slots in RAM as codec blobs
//                            (core/slot_codec.hpp): bit-exact lossless or
//                            bitmap codecs, or fp16/bf16/int8 casts (half or
//                            a quarter of the bytes, at a small, measurable
//                            gradient error), so the planner fits more
//                            checkpoints per byte budget;
//   * AsyncDiskSlotStore  -- (core/async_slot_store.hpp) spills designated
//                            slots to files (the SD card of a Waggle node;
//                            pairs with core/disk_revolve.hpp), optionally
//                            through a slot codec, with write-behind and
//                            schedule-driven prefetch. Calling flush()
//                            after every put and not forwarding the replay
//                            lookahead gives fully synchronous IO.
// Backends report resident (RAM) and external (disk) bytes so experiments
// can account for both tiers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/schedule.hpp"
#include "core/slot_codec.hpp"
#include "tensor/tensor.hpp"

namespace edgetrain::core {

class SlotStore {
 public:
  virtual ~SlotStore() = default;

  /// Stores @p value into @p slot (overwrites).
  virtual void put(std::int32_t slot, const Tensor& value) = 0;

  /// Retrieves the tensor stored in @p slot.
  /// Throws std::logic_error when the slot is empty.
  [[nodiscard]] virtual Tensor get(std::int32_t slot) = 0;

  /// Frees @p slot (no-op when already empty).
  virtual void drop(std::int32_t slot) = 0;

  /// Bytes currently held in RAM by this store.
  [[nodiscard]] virtual std::size_t resident_bytes() const = 0;

  /// Bytes currently held outside RAM (disk); 0 for RAM-only stores.
  [[nodiscard]] virtual std::size_t external_bytes() const = 0;

  /// Measured encoded/plaintext byte ratio of the most recent put() into
  /// @p slot; 1.0 for uncodecced stores or slots never stored. Codec
  /// stores record this on every put, so after one pass the planners can
  /// re-solve with the per-slot ratios this chain's activations actually
  /// achieve instead of the codec's worst-case planning_bytes_ratio()
  /// (core/adaptive.hpp closes that loop).
  [[nodiscard]] virtual double measured_slot_ratio(std::int32_t /*slot*/) const {
    return 1.0;
  }

  // --- Schedule lookahead (optional) ---------------------------------------
  // A Schedule is a fully known tape, so every future Restore is visible
  // before it executes: the executor announces the tape once per run and
  // the position of every action as it replays. Stores that can exploit
  // the future (AsyncDiskSlotStore prefetches the next spilled restores
  // while the CPU recomputes) override these; the defaults make lookahead
  // invisible to plain stores. The Schedule reference is only guaranteed
  // valid during the begin_replay call -- copy what you need.

  /// Called once, before the first action of a replay, with the full tape.
  virtual void begin_replay(const Schedule& /*schedule*/) {}

  /// Called immediately before the action at @p next_action executes.
  virtual void on_replay_position(std::int64_t /*next_action*/) {}

  /// Called when the replay ends -- normally or by abandonment (the
  /// executor guarantees the call on every exit path).
  virtual void end_replay() {}
};

/// Shares tensor handles; put/get are O(1) and copy-free.
class RamSlotStore final : public SlotStore {
 public:
  explicit RamSlotStore(int num_slots);
  void put(std::int32_t slot, const Tensor& value) override;
  [[nodiscard]] Tensor get(std::int32_t slot) override;
  void drop(std::int32_t slot) override;
  [[nodiscard]] std::size_t resident_bytes() const override;
  [[nodiscard]] std::size_t external_bytes() const override { return 0; }

 private:
  void guard_release(Tensor& held);

  std::vector<Tensor> slots_;
};

namespace detail {
/// Guards-only: poisons a buffer this store is releasing, iff @p held is
/// the sole owner (poisoning a shared buffer would corrupt a live handle).
/// No-op in release builds. Shared by the RAM store (dropped checkpoints)
/// and the async store (discarded staging buffers).
void poison_if_sole_owner(Tensor& held);

/// Guards-only: poisons an encoded blob being released (byte pattern
/// guards::kPoisonByte), so no stale plaintext-derived bytes survive a
/// drop/overwrite. No-op in release builds.
void poison_blob(std::vector<std::uint8_t>& blob);
}  // namespace detail

/// Keeps every slot in RAM as an encoded codec blob. put() encodes with
/// the parallel convert kernels, get() decodes; with SlotCodec::Lossless
/// restores are bit-exact while resident_bytes() reports the *encoded*
/// footprint -- the byte savings the planner converts into extra
/// checkpoint slots (lower rho at the same RAM cap). Blob bytes are
/// MemoryTracker-accounted and poisoned on release under EDGETRAIN_GUARDS.
class CompressedSlotStore final : public SlotStore {
 public:
  CompressedSlotStore(int num_slots, SlotCodec codec);
  ~CompressedSlotStore() override;
  void put(std::int32_t slot, const Tensor& value) override;
  [[nodiscard]] Tensor get(std::int32_t slot) override;
  void drop(std::int32_t slot) override;
  [[nodiscard]] std::size_t resident_bytes() const override;
  [[nodiscard]] std::size_t external_bytes() const override { return 0; }

  [[nodiscard]] SlotCodec codec() const noexcept { return codec_; }

  /// Cumulative plaintext vs encoded bytes over every put; the measured
  /// compression ratio on the activations this store actually saw.
  [[nodiscard]] std::size_t plain_bytes_seen() const noexcept {
    return plain_seen_;
  }
  [[nodiscard]] std::size_t encoded_bytes_seen() const noexcept {
    return encoded_seen_;
  }
  [[nodiscard]] double measured_ratio() const noexcept {
    return plain_seen_ == 0 ? 1.0
                            : static_cast<double>(encoded_seen_) /
                                  static_cast<double>(plain_seen_);
  }

  /// Encoded/plaintext ratio of the last put into @p slot (1.0 before any).
  [[nodiscard]] double measured_slot_ratio(std::int32_t slot) const override {
    return slot_ratios_.at(static_cast<std::size_t>(slot));
  }

 private:
  struct EncodedSlot {
    Shape shape;
    std::vector<std::uint8_t> blob;
    bool occupied = false;
    std::size_t tracked = 0;  // bytes registered with the MemoryTracker
  };

  void release(EncodedSlot& slot);

  SlotCodec codec_;
  std::vector<EncodedSlot> slots_;
  std::vector<double> slot_ratios_;  // last measured ratio per slot
  std::size_t plain_seen_ = 0;
  std::size_t encoded_seen_ = 0;
};

}  // namespace edgetrain::core

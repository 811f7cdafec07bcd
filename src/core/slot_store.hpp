// edgetrain: the checkpoint slot-store interface.
//
// The executor keeps checkpointed activations in a SlotStore. The library's
// one implementation, TieredSlotStore (core/tiered_slot_store.hpp), covers
// the places the paper's memory story puts a slot: a RAM tier of shared
// tensor handles or slot-codec blobs (core/slot_codec.hpp), and an optional
// disk tier that spills slots to files (the SD card of a Waggle node; pairs
// with core/disk_revolve.hpp) with write-behind and schedule-driven
// prefetch. Stores report resident (RAM) and external (disk) bytes so
// experiments can account for both tiers; wrappers (bench timers, fault
// injectors) implement the same interface around a store.
#pragma once

#include <cstdint>

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
  // the future (TieredSlotStore prefetches the next spilled restores
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

}  // namespace edgetrain::core

#include "core/slot_store.hpp"

#include <stdexcept>

#include "tensor/alloc.hpp"
#include "tensor/guards.hpp"

namespace edgetrain::core {

namespace {
[[noreturn]] void empty_slot(std::int32_t slot) {
  throw std::logic_error("SlotStore: slot " + std::to_string(slot) +
                         " is empty");
}

}  // namespace

namespace detail {
void poison_if_sole_owner([[maybe_unused]] Tensor& held) {
#if defined(EDGETRAIN_GUARDS)
  if (held.defined() && held.storage_use_count() == 1) {
    guards::paint(held.data(), held.numel(), guards::kPoisonBits);
  }
#endif
}

void poison_blob([[maybe_unused]] std::vector<std::uint8_t>& blob) {
#if defined(EDGETRAIN_GUARDS)
  if (!blob.empty()) {
    guards::paint_bytes(blob.data(), static_cast<std::int64_t>(blob.size()));
  }
#endif
}
}  // namespace detail

// ---------------------------------------------------------------------------
// RamSlotStore
// ---------------------------------------------------------------------------

RamSlotStore::RamSlotStore(int num_slots)
    : slots_(static_cast<std::size_t>(num_slots)) {}

void RamSlotStore::put(std::int32_t slot, const Tensor& value) {
  Tensor& held = slots_.at(static_cast<std::size_t>(slot));
  guard_release(held);
  held = value;
}

Tensor RamSlotStore::get(std::int32_t slot) {
  Tensor& held = slots_.at(static_cast<std::size_t>(slot));
  if (!held.defined()) empty_slot(slot);
  return held;
}

void RamSlotStore::drop(std::int32_t slot) {
  Tensor& held = slots_.at(static_cast<std::size_t>(slot));
  guard_release(held);
  held.reset();
}

/// Guards-only: poison a checkpoint buffer being released so a stale raw
/// pointer into the dropped slot reads NaNs for as long as the allocator
/// has not recycled the pages. Only safe when this store is the storage's
/// sole owner -- the handles RamSlotStore hands out are zero-copy, and
/// poisoning a buffer the executor still reads through a live handle would
/// corrupt real activations. The buffer is NOT retained: holding dropped
/// checkpoints alive would distort the resident-memory accounting the
/// paper's tables (and their tests) are built on.
void RamSlotStore::guard_release(Tensor& held) {
  detail::poison_if_sole_owner(held);
}

std::size_t RamSlotStore::resident_bytes() const {
  std::size_t total = 0;
  for (const Tensor& t : slots_) {
    if (t.defined()) total += t.bytes();
  }
  return total;
}

// ---------------------------------------------------------------------------
// CompressedSlotStore
// ---------------------------------------------------------------------------

CompressedSlotStore::CompressedSlotStore(int num_slots, SlotCodec codec)
    : codec_(codec),
      slots_(static_cast<std::size_t>(num_slots)),
      slot_ratios_(static_cast<std::size_t>(num_slots), 1.0) {}

CompressedSlotStore::~CompressedSlotStore() {
  for (EncodedSlot& slot : slots_) release(slot);
}

void CompressedSlotStore::release(EncodedSlot& slot) {
  if (slot.occupied) {
    // No stale plaintext-derived bytes may survive the release: the blob
    // is poisoned before the allocator can hand its pages to anyone else.
    detail::poison_blob(slot.blob);
  }
  if (slot.tracked > 0) {
    MemoryTracker::instance().on_free(slot.tracked);
    slot.tracked = 0;
  }
  slot.blob.clear();
  slot.blob.shrink_to_fit();
  slot.occupied = false;
}

void CompressedSlotStore::put(std::int32_t slot, const Tensor& value) {
  EncodedSlot& encoded = slots_.at(static_cast<std::size_t>(slot));
  release(encoded);
  encoded.shape = value.shape();
  encoded.blob = codec::encode(codec_, value);
  encoded.tracked = encoded.blob.size();
  MemoryTracker::instance().on_alloc(encoded.tracked);
  encoded.occupied = true;
  plain_seen_ += value.bytes();
  encoded_seen_ += encoded.blob.size();
  if (value.bytes() > 0) {
    slot_ratios_[static_cast<std::size_t>(slot)] =
        static_cast<double>(encoded.blob.size()) /
        static_cast<double>(value.bytes());
  }
}

Tensor CompressedSlotStore::get(std::int32_t slot) {
  EncodedSlot& encoded = slots_.at(static_cast<std::size_t>(slot));
  if (!encoded.occupied) empty_slot(slot);
  return codec::decode(codec_, "CompressedSlotStore", encoded.shape,
                       encoded.blob.data(), encoded.blob.size());
}

void CompressedSlotStore::drop(std::int32_t slot) {
  release(slots_.at(static_cast<std::size_t>(slot)));
}

std::size_t CompressedSlotStore::resident_bytes() const {
  std::size_t total = 0;
  for (const EncodedSlot& slot : slots_) total += slot.tracked;
  return total;
}

}  // namespace edgetrain::core

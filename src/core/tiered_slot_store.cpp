#include "core/tiered_slot_store.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "analysis/race/race.hpp"
#include "core/slot_codec.hpp"
#include "core/spill_io.hpp"
#include "tensor/alloc.hpp"
#include "tensor/convert.hpp"
#include "tensor/guards.hpp"

namespace edgetrain::core {

namespace {
constexpr const char* kWho = "TieredSlotStore";

[[noreturn]] void empty_slot(std::int32_t slot) {
  throw std::logic_error("SlotStore: slot " + std::to_string(slot) +
                         " is empty");
}

/// Guards-only: poisons a tensor buffer being released, iff @p held is its
/// sole owner, so a stale raw pointer into a dropped slot reads NaNs for as
/// long as the allocator has not recycled the pages. The handles a RAM slot
/// hands out are zero-copy, and poisoning a buffer the executor still reads
/// through a live handle would corrupt real activations. The buffer is NOT
/// retained: holding dropped checkpoints alive would distort the
/// resident-memory accounting the paper's tables are built on.
void poison_if_sole_owner([[maybe_unused]] Tensor& held) {
#if defined(EDGETRAIN_GUARDS)
  if (held.defined() && held.storage_use_count() == 1) {
    guards::paint(held.data(), held.numel(), guards::kPoisonBits);
  }
#endif
}

/// Drops an encoded blob. Guards builds first poison it (byte pattern
/// guards::kPoisonByte) when nothing else -- an in-flight write or a
/// decoding get() -- still holds it, so no stale plaintext-derived bytes
/// survive a drop or overwrite.
void release_blob(std::shared_ptr<std::vector<std::uint8_t>>& blob) {
  if (!blob) return;
#if defined(EDGETRAIN_GUARDS)
  if (blob.use_count() == 1 && !blob->empty()) {
    guards::paint_bytes(blob->data(), static_cast<std::int64_t>(blob->size()));
  }
#endif
  blob.reset();
}

AsyncDiskSlotStoreOptions validated(AsyncDiskSlotStoreOptions options) {
  if (options.write_staging_slots < 1) {
    throw std::invalid_argument(
        std::string(kWho) + ": write_staging_slots must be >= 1 (got " +
        std::to_string(options.write_staging_slots) + ")");
  }
  if (options.read_staging_slots < 0) {
    throw std::invalid_argument(std::string(kWho) +
                                ": read_staging_slots must be >= 0");
  }
  return options;
}
}  // namespace

TieredSlotStore::TieredSlotStore(int num_slots, SlotCodec codec)
    : first_disk_slot_(num_slots),
      ram_codec_(codec),
      slots_(static_cast<std::size_t>(num_slots)) {}

TieredSlotStore::TieredSlotStore(int num_slots, int first_disk_slot,
                                 std::string directory,
                                 AsyncDiskSlotStoreOptions options)
    : first_disk_slot_(first_disk_slot),
      directory_(std::move(directory)),
      options_(validated(std::move(options))),
      slots_(static_cast<std::size_t>(num_slots)),
      worker_(std::make_unique<BackgroundWorker>()) {}

TieredSlotStore::~TieredSlotStore() {
  // Outstanding jobs reference this object; join them before tearing any
  // state down. Nothing can enqueue more work once destruction has begun.
  if (worker_) worker_->drain();
  MutexLock lock(mu_);
  for (Slot& slot : slots_) invalidate_locked(slot);  // untracks RAM blobs
  const auto num_slots = static_cast<std::int32_t>(slots_.size());
  lock.unlock();
  for (std::int32_t slot = first_disk_slot_; slot < num_slots; ++slot) {
    // Unconditional: a dropped-while-pending generation can leave a stale
    // file behind that no state flag remembers.
    std::remove(path_for(slot).c_str());
  }
}

std::string TieredSlotStore::path_for(std::int32_t slot) const {
  return directory_ + "/slot_" + std::to_string(slot) + ".ckpt";
}

// --------------------------------------------------------------------------
// put / get / drop
// --------------------------------------------------------------------------

void TieredSlotStore::put(std::int32_t slot, const Tensor& value) {
  const SlotCodec codec = codec_for(slot);
  if (!is_disk_slot(slot) && codec != SlotCodec::None) {
    // Release a RAM blob before encoding its successor, so the tracked
    // bytes never hold both.
    MutexLock lock(mu_);
    invalidate_locked(slot_at(slot));
  }
  std::shared_ptr<std::vector<std::uint8_t>> blob;
  if (codec != SlotCodec::None) {
    // Encode on the calling thread (parallel kernels) before staging: a
    // write-behind buffer then holds compressed bytes, and -- for the lossy
    // casts -- every later get() decodes this exact blob, so results are
    // identical whether served from RAM, staging, prefetch, or a blocking
    // read.
    blob = std::make_shared<std::vector<std::uint8_t>>(
        codec::encode(codec, value));
  }
  MutexLock lock(mu_);
  if (is_disk_slot(slot)) {
    // Back-pressure: the training thread may run at most
    // write_staging_slots spills ahead of the disk. Stale (superseded) jobs
    // still occupy staging until the worker retires them -- the queue
    // itself is what is bounded.
    while (staged_writes_ >= options_.write_staging_slots) cv_.wait(lock);
  }
  Slot& state = slot_at(slot);
  invalidate_locked(state);
  state.shape = value.shape();
  if (blob) {
    plain_seen_ += value.bytes();
    encoded_seen_ += blob->size();
    if (value.bytes() > 0) {
      state.ratio = static_cast<double>(blob->size()) /
                    static_cast<double>(value.bytes());
    }
    state.blob = std::move(blob);
  } else {
    state.tensor = value;  // shares the caller's storage; no copy
  }
  if (!is_disk_slot(slot)) {
    state.state = State::Ram;
    if (state.blob) MemoryTracker::instance().on_alloc(state.blob->size());
    return;
  }
  state.state = State::WritePending;
  enqueue_write_locked(slot);
}

Tensor TieredSlotStore::get(std::int32_t slot) {
  MutexLock lock(mu_);
  for (;;) {
    Slot& state = slot_at(slot);
    switch (state.state) {
      case State::Empty:
        empty_slot(slot);
      case State::Failed:
        // The background write for this slot failed; the error surfaces on
        // the get() that owns the slot, exactly as a synchronous put would
        // have thrown. Kept until put/drop so retries stay loud too.
        std::rethrow_exception(state.error);
      case State::Ram:
      case State::WritePending: {
        // The payload is in RAM: a RAM slot, or a write-behind cache hit.
        EDGETRAIN_RACE_READ(state.tensor, "TieredSlotStore slot");
        if (state.state == State::WritePending) ++write_behind_hits_;
        if (!state.blob) return state.tensor;  // shared handle, under mu_
        // Decode the blob -- not the original tensor -- so lossy codecs
        // return the same values a post-flush read would. The shared handle
        // lets a write proceed while we decode unlocked.
        const std::shared_ptr<std::vector<std::uint8_t>> blob = state.blob;
        const Shape shape = state.shape;
        lock.unlock();
        Tensor out = codec::decode(codec_for(slot), kWho, shape, blob->data(),
                                   blob->size());
        lock.lock();
        return out;
      }
      case State::OnDisk:
        break;
    }
    if (state.error) {
      // A prefetch came back corrupt (checksum/truncation). The restore
      // that would have consumed it must fail as loudly as a synchronous
      // read would have.
      std::rethrow_exception(state.error);
    }
    if (state.prefetched.defined()) {
      // Revolve-style schedules restore the same checkpoint several times
      // (once per sub-segment). When the lookahead shows this slot coming
      // up again, hand out a shared handle and KEEP the staging buffer:
      // the repeat restore is then served from RAM instead of re-reading
      // the spill file. Otherwise consume the buffer and free the budget.
      Tensor out = restored_again_soon_locked(slot)
                       ? state.prefetched
                       : take_prefetched_locked(state);
      ++prefetch_hits_;
      maybe_prefetch_locked();
      return out;
    }
    if (state.prefetch_queued) {
      // The IO thread is already reading this slot; joining it is cheaper
      // than issuing a second read. Re-evaluate from scratch afterwards
      // (a concurrent drop may have invalidated the slot meanwhile).
      const std::uint64_t gen = state.generation;
      while (slot_at(slot).generation == gen && slot_at(slot).prefetch_queued) {
        cv_.wait(lock);
      }
      continue;
    }
    // Prefetch never got to this slot: blocking read on the caller.
    const std::uint64_t gen = state.generation;
    const Shape shape = state.shape;
    const std::uint32_t crc = state.crc;
    const std::size_t bytes = state.disk_bytes;
    lock.unlock();
    Tensor out;
    std::exception_ptr error;
    try {
      out = read_spilled(slot, shape, crc, bytes,
                         convert::Threading::Parallel);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    // A put/drop that raced with the read may have rewritten or removed
    // the file under us; whatever we read (or failed to read) belongs to a
    // dead generation, so re-evaluate instead of reporting a phantom error.
    if (slot_at(slot).generation != gen) continue;
    if (error) std::rethrow_exception(error);
    ++reads_;
    ++blocking_reads_;
    return out;
  }
}

Tensor TieredSlotStore::read_spilled(std::int32_t slot, const Shape& shape,
                                     std::uint32_t crc, std::size_t bytes,
                                     convert::Threading threading) const {
  if (options_.io_fault) options_.io_fault(slot, /*is_write=*/false);
  if (options_.codec == SlotCodec::None) {
    Tensor out = Tensor::empty(shape);
    spill::read_spill(kWho, path_for(slot), out.bytes(), crc, out.data());
    return out;
  }
  std::vector<std::uint8_t> blob(bytes);
  spill::read_spill(kWho, path_for(slot), bytes, crc, blob.data());
  return codec::decode(options_.codec, kWho, shape, blob.data(), blob.size(),
                       threading);
}

void TieredSlotStore::drop(std::int32_t slot) {
  MutexLock lock(mu_);
  Slot& state = slot_at(slot);
  const bool on_disk = state.state == State::OnDisk;
  invalidate_locked(state);
  if (on_disk) {
    // No job owns the file any more; a WritePending slot's file is instead
    // cleaned up by its (now stale) write job when the worker reaches it.
    std::remove(path_for(slot).c_str());
  }
}

// --------------------------------------------------------------------------
// Accounting
// --------------------------------------------------------------------------

std::size_t TieredSlotStore::resident_bytes() const {
  MutexLock lock(mu_);
  // Staging is real RAM: spills not yet flushed and restores fetched early
  // count next to the RAM tier, so the "async is cheaper" story can never
  // hide memory.
  std::size_t total = 0;
  for (const Slot& slot : slots_) {
    EDGETRAIN_RACE_READ(slot.tensor, "TieredSlotStore slot");
    if (slot.tensor.defined()) total += slot.tensor.bytes();
    if (slot.blob) total += slot.blob->size();
    if (slot.prefetched.defined()) total += slot.prefetched.bytes();
  }
  return total;
}

std::size_t TieredSlotStore::external_bytes() const {
  MutexLock lock(mu_);
  return disk_bytes_;
}

double TieredSlotStore::measured_slot_ratio(std::int32_t slot) const {
  MutexLock lock(mu_);
  return slots_.at(static_cast<std::size_t>(slot)).ratio;
}

std::size_t TieredSlotStore::plain_bytes_seen() const {
  MutexLock lock(mu_);
  return plain_seen_;
}
std::size_t TieredSlotStore::encoded_bytes_seen() const {
  MutexLock lock(mu_);
  return encoded_seen_;
}
double TieredSlotStore::measured_ratio() const {
  MutexLock lock(mu_);
  return plain_seen_ == 0 ? 1.0
                          : static_cast<double>(encoded_seen_) /
                                static_cast<double>(plain_seen_);
}

std::int64_t TieredSlotStore::disk_writes() const {
  MutexLock lock(mu_);
  return writes_;
}
std::int64_t TieredSlotStore::disk_reads() const {
  MutexLock lock(mu_);
  return reads_;
}
std::int64_t TieredSlotStore::prefetch_hits() const {
  MutexLock lock(mu_);
  return prefetch_hits_;
}
std::int64_t TieredSlotStore::write_behind_hits() const {
  MutexLock lock(mu_);
  return write_behind_hits_;
}
std::int64_t TieredSlotStore::blocking_reads() const {
  MutexLock lock(mu_);
  return blocking_reads_;
}

void TieredSlotStore::flush() {
  MutexLock lock(mu_);
  while (staged_writes_ != 0) cv_.wait(lock);
}

// --------------------------------------------------------------------------
// Schedule lookahead
// --------------------------------------------------------------------------

void TieredSlotStore::begin_replay(const Schedule& schedule) {
  if (!worker_) return;  // RAM only: nothing to prefetch
  MutexLock lock(mu_);
  future_restores_.clear();
  restore_cursor_ = 0;
  const auto& actions = schedule.actions();
  for (std::size_t i = 0; i < actions.size(); ++i) {
    if (actions[i].type == ActionType::Restore &&
        is_disk_slot(actions[i].slot)) {
      future_restores_.emplace_back(static_cast<std::int64_t>(i),
                                    actions[i].slot);
    }
  }
  replay_active_ = true;
  maybe_prefetch_locked();
}

void TieredSlotStore::on_replay_position(std::int64_t next_action) {
  MutexLock lock(mu_);
  if (!replay_active_) return;
  // Retire entries up to AND including the action about to execute: its
  // get() is served synchronously either way, so prefetching it now buys
  // nothing -- worse, re-fetching the slot just consumed would hog the
  // read-staging budget and starve the genuinely-upcoming restores.
  while (restore_cursor_ < future_restores_.size() &&
         future_restores_[restore_cursor_].first <= next_action) {
    ++restore_cursor_;
  }
  maybe_prefetch_locked();
}

void TieredSlotStore::end_replay() {
  MutexLock lock(mu_);
  replay_active_ = false;
  future_restores_.clear();
  restore_cursor_ = 0;
  // Unconsumed prefetch buffers are dead weight once the tape is gone;
  // release the RAM (and the read-staging budget) immediately. In-flight
  // prefetch jobs keep their reservation until they land and the slot is
  // next touched, which the accounting below leaves intact.
  for (Slot& d : slots_) {
    if (d.prefetched.defined()) {
      poison_if_sole_owner(d.prefetched);
      d.prefetched.reset();
      --staged_reads_;
    }
  }
}

// --------------------------------------------------------------------------
// Locked helpers
// --------------------------------------------------------------------------

void TieredSlotStore::invalidate_locked(Slot& slot) {
  ++slot.generation;  // voids every queued/in-flight job for this slot
  // Releases a RAM handle or a staged write's payload. staged_writes_ is
  // NOT decremented here: a superseded job still occupies the worker queue
  // and releases its staging unit itself.
  EDGETRAIN_RACE_WRITE(slot.tensor, "TieredSlotStore slot");
  poison_if_sole_owner(slot.tensor);
  slot.tensor.reset();
  if (slot.state == State::Ram && slot.blob) {
    MemoryTracker::instance().on_free(slot.blob->size());
  }
  release_blob(slot.blob);
  if (slot.prefetch_queued) {
    slot.prefetch_queued = false;
    --staged_reads_;  // the stale job sees the generation bump and exits
  }
  if (slot.prefetched.defined()) {
    poison_if_sole_owner(slot.prefetched);
    slot.prefetched.reset();
    --staged_reads_;
  }
  if (slot.state == State::OnDisk) {
    disk_bytes_ -= slot.disk_bytes;
    slot.disk_bytes = 0;
  }
  slot.state = State::Empty;
  slot.error = nullptr;
}

Tensor TieredSlotStore::take_prefetched_locked(Slot& slot) {
  Tensor out = std::move(slot.prefetched);
  slot.prefetched.reset();
  --staged_reads_;
  return out;
}

bool TieredSlotStore::restored_again_soon_locked(std::int32_t slot) const {
  if (!replay_active_) return false;
  const std::size_t window_end =
      std::min(future_restores_.size(),
               restore_cursor_ + static_cast<std::size_t>(
                                     std::max(options_.lookahead_window, 0)));
  for (std::size_t i = restore_cursor_; i < window_end; ++i) {
    if (future_restores_[i].second == slot) return true;
  }
  return false;
}

void TieredSlotStore::maybe_prefetch_locked() {
  if (!replay_active_) return;
  const std::size_t window_end =
      std::min(future_restores_.size(),
               restore_cursor_ + static_cast<std::size_t>(
                                     std::max(options_.lookahead_window, 0)));
  for (std::size_t i = restore_cursor_; i < window_end; ++i) {
    Slot& state = slot_at(future_restores_[i].second);
    if (state.prefetch_queued || state.prefetched.defined()) {
      continue;  // already settled; look further ahead
    }
    // Strictly in restore order: stop at the first entry whose payload is
    // not on disk yet (still staged, not stored, or failed). Jumping over
    // it to a later restore would pin the staging budget on the furthest
    // future while the very next restore falls back to a blocking read --
    // exactly backwards. A skipped-over WritePending slot is re-scanned by
    // run_write() the moment its flush lands.
    if (state.state != State::OnDisk || state.error) break;
    if (staged_reads_ >= options_.read_staging_slots) break;
    enqueue_prefetch_locked(future_restores_[i].second);
  }
}

void TieredSlotStore::enqueue_write_locked(std::int32_t slot) {
  ++staged_writes_;
  const std::uint64_t gen = slot_at(slot).generation;
  worker_->submit([this, slot, gen] { run_write(slot, gen); });
}

void TieredSlotStore::enqueue_prefetch_locked(std::int32_t slot) {
  Slot& state = slot_at(slot);
  state.prefetch_queued = true;
  ++staged_reads_;
  const std::uint64_t gen = state.generation;
  worker_->submit([this, slot, gen] { run_prefetch(slot, gen); });
}

// --------------------------------------------------------------------------
// IO-thread job bodies (must not throw: BackgroundWorker jobs are noexcept
// by contract, so every failure is captured as an exception_ptr and routed
// to the owning get()).
// --------------------------------------------------------------------------

void TieredSlotStore::run_write(std::int32_t slot, std::uint64_t gen) {
  Tensor payload;
  std::shared_ptr<std::vector<std::uint8_t>> blob;
  {
    MutexLock lock(mu_);
    Slot& state = slot_at(slot);
    if (state.generation != gen) {
      // Superseded before we ran. The worker is FIFO, so no newer job for
      // this slot has written yet: any file present holds stale bytes from
      // an even older generation -- remove it and release our staging unit.
      --staged_writes_;
      cv_.notify_all();
      std::remove(path_for(slot).c_str());
      return;
    }
    // Shared handles; staged bytes are immutable.
    payload = state.tensor;
    blob = state.blob;
  }

  std::uint32_t crc = 0;
  std::exception_ptr error;
  try {
    if (options_.io_fault) options_.io_fault(slot, /*is_write=*/true);
    crc = blob ? spill::write_spill(kWho, path_for(slot), blob->data(),
                                    blob->size())
               : spill::write_spill(kWho, path_for(slot), payload.data(),
                                    payload.bytes());
  } catch (...) {
    error = std::current_exception();
  }

  MutexLock lock(mu_);
  Slot& state = slot_at(slot);
  --staged_writes_;
  if (state.generation != gen) {
    // Dropped or overwritten while we were writing; the bytes we just
    // produced (if any) belong to a dead generation.
    std::remove(path_for(slot).c_str());
  } else {
    if (error) {
      state.state = State::Failed;
      // Moved under mu_: this thread must hold no reference to the
      // exception once the owning get() can rethrow it.
      state.error = std::move(error);
    } else {
      state.state = State::OnDisk;
      state.crc = crc;
      state.disk_bytes = blob ? blob->size() : state.tensor.bytes();
      disk_bytes_ += state.disk_bytes;
      ++writes_;
    }
    poison_if_sole_owner(state.tensor);
    state.tensor.reset();
    blob.reset();
    release_blob(state.blob);
    // A flushed slot may be an upcoming Restore.
    if (state.state == State::OnDisk) maybe_prefetch_locked();
  }
  cv_.notify_all();
}

void TieredSlotStore::run_prefetch(std::int32_t slot, std::uint64_t gen) {
  Shape shape;
  std::uint32_t crc = 0;
  std::size_t bytes = 0;
  {
    MutexLock lock(mu_);
    const Slot& state = slot_at(slot);
    if (state.generation != gen) return;  // invalidation paid our unit back
    shape = state.shape;
    crc = state.crc;
    bytes = state.disk_bytes;
  }

  // Read AND decode here, on the IO thread, with Threading::Serial:
  // decompression overlaps the training thread's recompute instead of
  // borrowing the compute pool mid-sweep (ThreadPool::parallel_for has no
  // external-caller serialisation).
  Tensor result;
  std::exception_ptr error;
  try {
    result = read_spilled(slot, shape, crc, bytes, convert::Threading::Serial);
  } catch (...) {
    error = std::current_exception();
  }

  MutexLock lock(mu_);
  Slot& state = slot_at(slot);
  if (state.generation != gen) {
    cv_.notify_all();  // a get() may be parked on the old generation
    return;
  }
  state.prefetch_queued = false;
  if (error) {
    state.error = std::move(error);  // moved under mu_, as in run_write
    --staged_reads_;
  } else {
    state.prefetched = std::move(result);
    ++reads_;
  }
  cv_.notify_all();
}

}  // namespace edgetrain::core

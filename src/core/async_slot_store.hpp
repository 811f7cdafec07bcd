// edgetrain: asynchronous (write-behind + prefetch) disk checkpointing.
//
// When every spill blocks the training step, SD-card latency adds *on
// top of* the paper's 2*rho*l recompute bound. But the
// executor replays a fully known Schedule: every future spill and restore
// is predictable, which is the classic overlap opportunity of hierarchical
// checkpointing (multi-level Revolve / out-of-core adjoints). This store
// hides the IO inside the recompute:
//
//   * put() is write-behind: the tensor handle is staged (bounded budget)
//     and handed to a dedicated BackgroundWorker thread; the call returns
//     as soon as staging space is available, and the file write, CRC and
//     injected SD-latency all happen off the training thread.
//   * get() joins only its own slot: a write still staged is returned
//     straight from RAM (write-behind cache hit); a flushed slot is served
//     from the prefetch staging buffer when the lookahead already read it,
//     and only falls back to a blocking read when prefetch never got to it.
//   * the executor feeds the remaining action tape through the
//     SlotStore::begin_replay/on_replay_position lookahead API; the store
//     scans the upcoming Restores and prefetches spilled slots into a
//     double-buffered staging area while the CPU recomputes the sweep.
//
// Failure semantics stay as loud as a synchronous store's: a failed or
// corrupted background write/read is captured as an exception_ptr and
// re-thrown by the get() that owns the slot (never swallowed); checksum
// verification runs on every byte that comes back from disk, prefetched or
// not. Destruction drains the worker before deleting spill files.
//
// Memory honesty: staged writes and prefetched reads are real RAM and are
// charged to resident_bytes(); the staging budget (default one slot per
// direction) is the `+ staging` term the analysis:: interpreter adds to
// the planner bound when it models overlapped schedules.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/slot_store.hpp"
#include "core/thread_annotations.hpp"
#include "tensor/parallel.hpp"

namespace edgetrain::core {

struct AsyncDiskSlotStoreOptions {
  /// Staged (written-behind) spills the training thread may run ahead of
  /// the disk; put() blocks once the budget is full. >= 1.
  int write_staging_slots = 1;
  /// Prefetched restores held in RAM ahead of their Restore action. >= 0
  /// (0 disables prefetch; gets still benefit from write-behind).
  int read_staging_slots = 1;
  /// Upcoming Restore actions scanned per lookahead step when choosing
  /// what to prefetch next.
  int lookahead_window = 8;
  /// Slot codec applied to spilled payloads (core/slot_codec.hpp). put()
  /// encodes on the calling thread (parallel kernels) and stages the
  /// *encoded* blob, so write-behind staging holds compressed bytes, the
  /// file write moves compressed bytes, and -- for the lossy casts --
  /// every get() path (write-behind hit, prefetch hit, blocking read)
  /// returns the identical decode of the same blob. Prefetched restores
  /// are decoded on the background IO thread (Threading::Serial), so
  /// decompression overlaps recompute instead of borrowing the pool.
  SlotCodec codec = SlotCodec::None;
  /// Test hook: called on the IO thread before each spill write
  /// (is_write=true) / prefetch or blocking read (false); may throw to
  /// inject an IO failure for that slot.
  std::function<void(std::int32_t slot, bool is_write)> io_fault;
};

class AsyncDiskSlotStore final : public SlotStore {
 public:
  AsyncDiskSlotStore(int num_slots, int first_disk_slot,
                     std::string directory,
                     AsyncDiskSlotStoreOptions options = {});
  ~AsyncDiskSlotStore() override;

  void put(std::int32_t slot, const Tensor& value) override;
  [[nodiscard]] Tensor get(std::int32_t slot) override;
  void drop(std::int32_t slot) override;
  [[nodiscard]] std::size_t resident_bytes() const override;
  [[nodiscard]] std::size_t external_bytes() const override;
  /// Encoded/plaintext ratio of the last put into @p slot (1.0 for RAM
  /// slots, codec-less stores, and slots never spilled). Recorded at
  /// encode time on the training thread, so it is current the moment
  /// put() returns even while the write is still in flight.
  [[nodiscard]] double measured_slot_ratio(std::int32_t slot) const override;

  void begin_replay(const Schedule& schedule) override;
  void on_replay_position(std::int64_t next_action) override;
  void end_replay() override;

  /// Blocks until every staged write has reached disk (or failed). The
  /// executor never needs this; tests and checkpoint-consistency points
  /// (e.g. before a snapshot) do.
  void flush();

  // Counters (totals since construction; cheap, lock-protected).
  [[nodiscard]] std::int64_t disk_writes() const;
  [[nodiscard]] std::int64_t disk_reads() const;
  /// get() calls served from the prefetch staging buffer.
  [[nodiscard]] std::int64_t prefetch_hits() const;
  /// get() calls served from a still-staged write (no disk read at all).
  [[nodiscard]] std::int64_t write_behind_hits() const;
  /// get() calls that had to fall back to a blocking read.
  [[nodiscard]] std::int64_t blocking_reads() const;

 private:
  enum class State : std::uint8_t {
    Empty,        ///< nothing stored
    WritePending, ///< staged; write queued or running on the IO thread
    OnDisk,       ///< flushed; payload lives only in the spill file
    Failed,       ///< background write failed; error re-thrown by get()
  };

  struct DiskSlot {
    State state = State::Empty;
    std::uint64_t generation = 0;  ///< bumped by put/drop to void old jobs
    Tensor staged;       ///< write-behind payload (shares caller storage)
    /// Encoded write-behind payload (codec != None); replaces `staged` so
    /// staging RAM holds compressed bytes and every get() decodes the same
    /// blob the file write flushes. shared_ptr: the IO thread keeps the
    /// blob alive through a write that an invalidate races.
    std::shared_ptr<std::vector<std::uint8_t>> staged_blob;
    Tensor prefetched;   ///< read-ahead staging buffer (owned)
    bool prefetch_queued = false;  ///< a prefetch job is queued/in flight
    Shape shape;
    std::uint32_t crc = 0;
    std::size_t disk_bytes = 0;    ///< payload bytes of the on-disk file
    std::exception_ptr error;      ///< failed write / corrupt prefetch
  };

  [[nodiscard]] std::string path_for(std::int32_t slot) const;
  [[nodiscard]] bool is_disk_slot(std::int32_t slot) const {
    return slot >= first_disk_slot_;
  }
  [[nodiscard]] DiskSlot& disk_at(std::int32_t slot) REQUIRES(mu_) {
    return disk_.at(static_cast<std::size_t>(slot));
  }

  // All private helpers below require mu_ held (enforced by clang TSA).
  void invalidate_locked(DiskSlot& slot) REQUIRES(mu_);
  void maybe_prefetch_locked() REQUIRES(mu_);
  [[nodiscard]] bool restored_again_soon_locked(std::int32_t slot) const
      REQUIRES(mu_);
  void enqueue_write_locked(std::int32_t slot) REQUIRES(mu_);
  void enqueue_prefetch_locked(std::int32_t slot) REQUIRES(mu_);
  [[nodiscard]] Tensor take_prefetched_locked(DiskSlot& slot) REQUIRES(mu_);

  // IO-thread bodies (take mu_ themselves).
  void run_write(std::int32_t slot, std::uint64_t generation) EXCLUDES(mu_);
  void run_prefetch(std::int32_t slot, std::uint64_t generation)
      EXCLUDES(mu_);

  int first_disk_slot_;
  std::string directory_;
  AsyncDiskSlotStoreOptions options_;

  // Locking discipline: mu_ is the single lock for ALL mutable store state,
  // including the RAM tier -- resident_bytes() walks ram_ from whatever
  // thread polls memory while the training thread puts/drops, so the RAM
  // fast path takes the lock too (it is uncontended and never held across
  // IO). The lock is never held across a file read/write, a codec
  // encode/decode, or a worker_.submit() callback boundary: IO-thread
  // bodies copy what they need out under mu_, do the slow work unlocked,
  // and re-acquire to publish. Waits are all while-loop shaped so the
  // predicate reads are visibly under the capability.
  mutable Mutex mu_;
  CondVar cv_;                   ///< staging space / job completion
  /// RAM tier (slots below first_disk_slot). Guarded: see discipline note.
  std::vector<Tensor> ram_ GUARDED_BY(mu_);
  std::vector<DiskSlot> disk_ GUARDED_BY(mu_);
  /// Last measured encoded/plaintext ratio per slot (1.0 until spilled).
  std::vector<double> slot_ratios_ GUARDED_BY(mu_);
  int staged_writes_ GUARDED_BY(mu_) = 0;  ///< queued/in flight (<= budget)
  int staged_reads_ GUARDED_BY(mu_) = 0;   ///< prefetch buffers (<= budget)
  std::size_t disk_bytes_ GUARDED_BY(mu_) = 0;

  // Lookahead state: (action position, slot) of every future disk Restore,
  // and the replay cursor that retires them.
  std::vector<std::pair<std::int64_t, std::int32_t>> future_restores_
      GUARDED_BY(mu_);
  std::size_t restore_cursor_ GUARDED_BY(mu_) = 0;
  bool replay_active_ GUARDED_BY(mu_) = false;

  std::int64_t writes_ GUARDED_BY(mu_) = 0;
  std::int64_t reads_ GUARDED_BY(mu_) = 0;
  std::int64_t prefetch_hits_ GUARDED_BY(mu_) = 0;
  std::int64_t write_behind_hits_ GUARDED_BY(mu_) = 0;
  std::int64_t blocking_reads_ GUARDED_BY(mu_) = 0;

  BackgroundWorker worker_;  ///< last member: jobs reference state above
};

}  // namespace edgetrain::core

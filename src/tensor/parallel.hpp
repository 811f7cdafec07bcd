// edgetrain: shared-memory parallelism substrate.
//
// A small persistent thread pool with a static-partition parallel_for, in
// the spirit of an OpenMP "parallel for schedule(static)". The Waggle edge
// node the paper targets has 4 big + 4 little cores; all compute kernels in
// the tensor substrate parallelise over this pool. Having our own pool (and
// not OpenMP) keeps the library dependency-free and lets tests pin the
// worker count deterministically.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "tensor/function_ref.hpp"

namespace edgetrain {

/// Non-allocating chunk callback: fn(chunk_begin, chunk_end).
using ParallelFn = FunctionRef<void(std::int64_t, std::int64_t)>;

/// Persistent worker pool executing half-open index ranges.
class ThreadPool {
 public:
  /// Creates a pool of @p num_threads compute threads: the calling thread
  /// participates in every parallel_for as chunk 0, plus num_threads - 1
  /// pool workers. 0 means hardware_concurrency(). A single-thread pool
  /// has no workers at all and runs every range inline on the caller.
  explicit ThreadPool(unsigned num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of compute threads a parallel_for spans (caller + workers,
  /// >= 1).
  [[nodiscard]] unsigned size() const noexcept;

  /// Runs fn(chunk_begin, chunk_end) over [begin, end) split statically
  /// across workers. Blocks until all chunks complete. Reentrant calls from
  /// inside a worker run serially (no nested parallelism). The callable is
  /// taken by non-owning FunctionRef: no allocation per dispatch; it must
  /// stay alive for the (blocking) duration of the call.
  void parallel_for(std::int64_t begin, std::int64_t end, ParallelFn fn);

  /// The process-wide pool used by tensor kernels.
  static ThreadPool& global();

  /// Replaces the global pool's worker count (for tests / device emulation).
  /// Not thread-safe with concurrent kernel execution.
  static void set_global_threads(unsigned num_threads);

 private:
  struct Impl;
  Impl* impl_;  // owned; raw to keep the header light (defined in .cpp)
};

/// Convenience wrapper over the global pool with a minimum grain size:
/// ranges smaller than @p grain run inline on the caller.
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  ParallelFn fn);

/// One dedicated thread draining a FIFO of jobs, for work that must overlap
/// with compute rather than partition it (the ThreadPool is a fork-join
/// pool: parallel_for blocks the caller, which is exactly wrong for
/// write-behind checkpoint IO). Jobs run strictly in submission order, so a
/// producer can rely on FIFO ordering for per-key consistency (e.g. a spill
/// write enqueued before a prefetch read of the same slot completes first).
/// Jobs must not throw: the worker catches nothing; propagate errors through
/// captured state (core::TieredSlotStore stores an exception_ptr).
class BackgroundWorker {
 public:
  BackgroundWorker();
  ~BackgroundWorker();  ///< drains every pending job, then joins the thread

  BackgroundWorker(const BackgroundWorker&) = delete;
  BackgroundWorker& operator=(const BackgroundWorker&) = delete;

  /// Enqueues @p job; returns immediately. Callable from any thread,
  /// including from inside a running job (the queue is unbounded here --
  /// producers needing back-pressure bound themselves, as the slot store's
  /// staging budget does).
  void submit(std::function<void()> job);

  /// Blocks until every job submitted before the call has finished.
  void drain();

  /// Jobs submitted but not yet completed (pending + in flight).
  [[nodiscard]] std::size_t pending() const;

 private:
  struct Impl;
  Impl* impl_;  // owned; raw to keep the header light (defined in .cpp)
};

}  // namespace edgetrain

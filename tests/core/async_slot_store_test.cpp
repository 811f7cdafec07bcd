// TieredSlotStore: write-behind spills, prefetched restores, and the
// failure paths that must stay as loud as a blocking read's. The
// concurrency tests are written to run clean under TSan (tsan CI job);
// injected IO latency and faults go through AsyncDiskSlotStoreOptions so
// each test controls its own timing instead of sleeping and hoping.
#include "core/tiered_slot_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <random>
#include <thread>

#include "core/executor.hpp"
#include "core/revolve.hpp"
#include "models/small_nets.hpp"
#include "nn/chain_runner.hpp"
#include "nn/layers.hpp"
#include "persist/fault.hpp"
#include "tensor/ops.hpp"
#include "test_dir.hpp"

namespace edgetrain::core {
namespace {

using test::test_dir;

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

TEST(AsyncDiskSlotStore, RoundTripsRamAndDiskSlots) {
  std::mt19937 rng(7);
  TieredSlotStore store(4, /*first_disk_slot=*/2, test_dir("async_roundtrip"));
  Tensor ram_tensor = Tensor::randn(Shape{2, 3}, rng);
  Tensor disk_tensor = Tensor::randn(Shape{4, 5}, rng);
  store.put(0, ram_tensor);
  store.put(3, disk_tensor);
  store.flush();
  EXPECT_EQ(store.disk_writes(), 1);
  EXPECT_EQ(store.external_bytes(), disk_tensor.bytes());
  EXPECT_EQ(store.resident_bytes(), ram_tensor.bytes());

  Tensor back = store.get(3);
  EXPECT_EQ(Tensor::max_abs_diff(back, disk_tensor), 0.0F);
  EXPECT_EQ(store.disk_reads(), 1);
  EXPECT_EQ(store.blocking_reads(), 1);  // no replay tape: nothing prefetches

  store.drop(3);
  EXPECT_EQ(store.external_bytes(), 0U);
  EXPECT_THROW((void)store.get(3), std::logic_error);
  EXPECT_THROW((void)store.get(1), std::logic_error);
}

TEST(AsyncDiskSlotStore, GetBeforeFlushIsServedFromStagingWithoutDiskRead) {
  std::mt19937 rng(11);
  AsyncDiskSlotStoreOptions options;
  options.io_fault = [](std::int32_t, bool is_write) {
    if (is_write) sleep_ms(30);  // hold the write in flight
  };
  TieredSlotStore store(2, 0, test_dir("async_writebehind"), options);
  Tensor t = Tensor::randn(Shape{32}, rng);
  store.put(0, t);
  Tensor back = store.get(0);  // while the background write still runs
  EXPECT_EQ(Tensor::max_abs_diff(back, t), 0.0F);
  EXPECT_EQ(store.write_behind_hits(), 1);
  EXPECT_EQ(store.disk_reads(), 0);
  store.flush();
  EXPECT_EQ(store.disk_writes(), 1);
}

TEST(AsyncDiskSlotStore, PutReturnsBeforeTheWriteCompletes) {
  std::atomic<bool> write_started{false};
  std::atomic<bool> write_released{false};
  AsyncDiskSlotStoreOptions options;
  options.io_fault = [&](std::int32_t, bool is_write) {
    if (!is_write) return;
    write_started = true;
    while (!write_released) sleep_ms(1);
  };
  TieredSlotStore store(1, 0, test_dir("async_nonblocking"), options);
  store.put(0, Tensor::zeros(Shape{16}));  // must not wait for the write
  EXPECT_EQ(store.disk_writes(), 0);
  write_released = true;
  store.flush();
  EXPECT_TRUE(write_started);
  EXPECT_EQ(store.disk_writes(), 1);
}

TEST(AsyncDiskSlotStore, StagingBudgetBackPressuresPut) {
  // With one write-staging slot, the second put can only return once the
  // first write has retired: after both puts, at least one write is on disk.
  AsyncDiskSlotStoreOptions options;
  options.write_staging_slots = 1;
  options.io_fault = [](std::int32_t, bool is_write) {
    if (is_write) sleep_ms(5);
  };
  TieredSlotStore store(2, 0, test_dir("async_backpressure"), options);
  store.put(0, Tensor::zeros(Shape{64}));
  store.put(1, Tensor::zeros(Shape{64}));
  EXPECT_GE(store.disk_writes(), 1);
  store.flush();
  EXPECT_EQ(store.disk_writes(), 2);
}

TEST(AsyncDiskSlotStore, ResidentBytesChargesStagedWrites) {
  AsyncDiskSlotStoreOptions options;
  std::atomic<bool> release{false};
  options.io_fault = [&](std::int32_t, bool is_write) {
    if (!is_write) return;
    while (!release) sleep_ms(1);
  };
  TieredSlotStore store(1, 0, test_dir("async_staging_ram"), options);
  Tensor t = Tensor::zeros(Shape{128});
  store.put(0, t);
  // The spill has been accepted but not flushed: its bytes are still RAM
  // and must be reported, not hidden.
  EXPECT_EQ(store.resident_bytes(), t.bytes());
  release = true;
  store.flush();
  EXPECT_EQ(store.resident_bytes(), 0U);
  EXPECT_EQ(store.external_bytes(), t.bytes());
}

TEST(AsyncDiskSlotStore, FailedBackgroundWriteRethrowsOnTheOwningGet) {
  AsyncDiskSlotStoreOptions options;
  options.io_fault = [](std::int32_t slot, bool is_write) {
    if (is_write && slot == 1) {
      throw std::runtime_error("injected write failure on slot 1");
    }
  };
  TieredSlotStore store(2, 0, test_dir("async_write_fail"), options);
  Tensor ok = Tensor::zeros(Shape{8});
  store.put(0, ok);
  store.put(1, Tensor::zeros(Shape{8}));
  store.flush();

  // The healthy slot is unaffected; the failed slot's error surfaces on
  // its own get -- and keeps surfacing until the slot is overwritten.
  EXPECT_EQ(Tensor::max_abs_diff(store.get(0), ok), 0.0F);
  for (int attempt = 0; attempt < 2; ++attempt) {
    try {
      (void)store.get(1);
      FAIL() << "failed background write returned a tensor";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("injected write failure"),
                std::string::npos)
          << error.what();
    }
  }

  // Dropping the failed slot clears the error; the slot reads as empty.
  store.drop(1);
  EXPECT_THROW((void)store.get(1), std::logic_error);
}

TEST(AsyncDiskSlotStore, PrefetchedBitFlipRaisesDescriptiveChecksumError) {
  std::mt19937 rng(29);
  const std::string dir = test_dir("async_bitflip");
  TieredSlotStore store(2, 0, dir);
  Tensor t = Tensor::randn(Shape{16, 16}, rng);
  store.put(0, t);
  store.flush();

  // An SD card flips one bit behind the store's back...
  persist::flip_bit(dir + "/slot_0.ckpt", t.bytes() / 2, 2);

  // ...and the corrupt bytes come back through the *prefetch* path: a
  // replay tape whose only restore is this slot triggers the background
  // read, and the get that consumes it must rethrow the checksum error.
  Schedule tape(1, 2);
  tape.restore(0, 0);
  store.begin_replay(tape);
  store.on_replay_position(0);
  try {
    (void)store.get(0);
    FAIL() << "corrupt prefetched spill returned without error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("checksum"), std::string::npos)
        << error.what();
  }
  store.end_replay();
  EXPECT_EQ(store.blocking_reads(), 0);

  // A clean rewrite of the slot recovers it.
  store.put(0, t);
  store.flush();
  EXPECT_EQ(Tensor::max_abs_diff(store.get(0), t), 0.0F);
}

TEST(AsyncDiskSlotStore, TruncatedSpillReportsDescriptiveError) {
  std::mt19937 rng(31);
  const std::string dir = test_dir("async_truncated");
  TieredSlotStore store(2, 0, dir);
  Tensor t = Tensor::randn(Shape{8, 8}, rng);
  store.put(1, t);
  store.flush();
  persist::truncate_file(dir + "/slot_1.ckpt", t.bytes() - 12);
  try {
    (void)store.get(1);
    FAIL() << "truncated spill file returned without error";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("truncated or corrupt"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(t.bytes())), std::string::npos) << what;
  }
}

// Raw and coded spills share one file format, so a file's header no longer
// says which kind of payload it holds: the size and CRC the store keeps in
// RAM must catch a raw spill file copied over a Lossless slot's file, on
// the blocking read and on the prefetch path alike -- both when the sizes
// differ and when they happen to match exactly.
TEST(TieredSlotStore, RawSpillOverLosslessSlotIsRejectedOnEveryGetPath) {
  std::mt19937 rng(41);
  // A post-ReLU-like payload whose Lossless blob is a whole number of
  // floats long, so a raw spill of exactly the same byte size exists.
  Tensor coded;
  std::size_t blob_bytes = 0;
  for (std::int64_t n = 256;; ++n) {
    coded = Tensor::randn(Shape{n}, rng);
    for (std::int64_t i = 0; i < n; ++i) {
      coded.data()[i] = std::max(coded.data()[i], 0.0F);
    }
    blob_bytes = codec::encode(SlotCodec::Lossless, coded).size();
    if (blob_bytes % sizeof(float) == 0) break;
  }
  ASSERT_NE(blob_bytes, coded.bytes());
  const auto same_size = static_cast<std::int64_t>(blob_bytes / sizeof(float));

  struct Case {
    const char* name;
    Tensor raw;
    const char* expected;  ///< substring of the rejection message
  };
  const Case cases[] = {
      {"raw_same_shape", Tensor::randn(coded.shape(), rng),
       "truncated or corrupt"},
      {"raw_same_size", Tensor::randn(Shape{same_size}, rng), "checksum"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string raw_dir = test_dir(std::string("tiered_raw_") + c.name);
    const std::string coded_dir =
        test_dir(std::string("tiered_lossless_") + c.name);
    TieredSlotStore raw(1, 0, raw_dir);
    raw.put(0, c.raw);
    raw.flush();
    AsyncDiskSlotStoreOptions options;
    options.codec = SlotCodec::Lossless;
    TieredSlotStore store(1, 0, coded_dir, options);
    store.put(0, coded);
    store.flush();
    ASSERT_EQ(store.external_bytes(), blob_bytes);
    std::filesystem::copy_file(
        raw_dir + "/slot_0.ckpt", coded_dir + "/slot_0.ckpt",
        std::filesystem::copy_options::overwrite_existing);

    const auto expect_rejected = [&](const char* path) {
      try {
        (void)store.get(0);
        ADD_FAILURE() << path << ": a raw spill decoded as a Lossless slot";
      } catch (const std::runtime_error& error) {
        EXPECT_NE(std::string(error.what()).find(c.expected),
                  std::string::npos)
            << path << ": " << error.what();
      }
    };
    expect_rejected("blocking read");
    Schedule tape(1, 2);
    tape.restore(0, 0);
    store.begin_replay(tape);
    store.on_replay_position(0);
    expect_rejected("prefetch");
    store.end_replay();
    EXPECT_EQ(store.blocking_reads(), 0);
    EXPECT_EQ(store.prefetch_hits(), 0);
  }
}

TEST(AsyncDiskSlotStore, LossyBlobDecodesIdenticallyOnEveryGetPath) {
  std::mt19937 rng(37);
  const Tensor t = Tensor::randn(Shape{16, 16}, rng);
  for (const SlotCodec codec : {SlotCodec::Fp16, SlotCodec::Int8}) {
    SCOPED_TRACE(to_string(codec));
    const std::vector<std::uint8_t> blob = codec::encode(codec, t);
    const Tensor expected =
        codec::decode(codec, "test", t.shape(), blob.data(), blob.size());
    ASSERT_GT(Tensor::max_abs_diff(expected, t), 0.0F);  // lossy cast
    const auto matches = [&](const Tensor& got) {
      return got.numel() == expected.numel() &&
             std::memcmp(got.data(), expected.data(), expected.bytes()) == 0;
    };

    std::atomic<bool> release{false};
    AsyncDiskSlotStoreOptions options;
    options.codec = codec;
    options.io_fault = [&](std::int32_t, bool is_write) {
      if (!is_write) return;
      while (!release) sleep_ms(1);
    };
    TieredSlotStore store(1, 0, test_dir("async_lossy_" + to_string(codec)),
                          options);
    store.put(0, t);
    EXPECT_TRUE(matches(store.get(0)));  // write held: served from staging
    EXPECT_EQ(store.write_behind_hits(), 1);
    release = true;
    store.flush();

    Schedule tape(1, 2);
    tape.restore(0, 0);
    store.begin_replay(tape);
    store.on_replay_position(0);
    EXPECT_TRUE(matches(store.get(0)));  // served by the prefetcher
    store.end_replay();
    EXPECT_EQ(store.prefetch_hits(), 1);

    EXPECT_TRUE(matches(store.get(0)));  // no tape: blocking read
    EXPECT_EQ(store.blocking_reads(), 1);
  }
}

TEST(AsyncDiskSlotStore, DestructionJoinsWritesInFlight) {
  std::atomic<int> writes_entered{0};
  {
    AsyncDiskSlotStoreOptions options;
    options.write_staging_slots = 4;
    options.io_fault = [&](std::int32_t, bool is_write) {
      if (!is_write) return;
      ++writes_entered;
      sleep_ms(10);
    };
    TieredSlotStore store(4, 0, test_dir("async_dtor"), options);
    for (std::int32_t slot = 0; slot < 4; ++slot) {
      store.put(slot, Tensor::zeros(Shape{256}));
    }
    // Destruction now, with writes queued and in flight: must drain, not
    // crash or leak the worker.
  }
  EXPECT_EQ(writes_entered.load(), 4);
  // The destructor removes its spill files.
  EXPECT_FALSE(std::filesystem::exists(
      std::string(::testing::TempDir()) + "/async_dtor/slot_0.ckpt"));
}

TEST(AsyncDiskSlotStore, DropDuringInFlightWriteInvalidatesCleanly) {
  std::atomic<bool> release{false};
  AsyncDiskSlotStoreOptions options;
  options.io_fault = [&](std::int32_t, bool is_write) {
    if (!is_write) return;
    while (!release) sleep_ms(1);
  };
  TieredSlotStore store(1, 0, test_dir("async_drop_inflight"), options);
  store.put(0, Tensor::zeros(Shape{32}));
  store.drop(0);  // supersedes the write still sitting in the worker
  release = true;
  store.flush();
  EXPECT_THROW((void)store.get(0), std::logic_error);
  EXPECT_EQ(store.external_bytes(), 0U);
}

// The TSan target: concurrent puts, gets, drops, and replay-driven
// prefetches on overlapping slots must be free of data races. Logic errors
// (get of a slot another thread just dropped) are expected and caught;
// runtime errors are not (no corruption is injected here).
TEST(AsyncDiskSlotStore, ConcurrentPutGetDropHammer) {
  std::mt19937 seed_rng(101);
  TieredSlotStore store(6, /*first_disk_slot=*/2, test_dir("async_hammer"));

  // A replay tape touching the shared slots keeps the prefetcher engaged
  // while the hammer threads mutate the same slots.
  Schedule tape(1, 6);
  for (int i = 0; i < 64; ++i) {
    tape.restore(0, 2 + (i % 4));
  }
  store.begin_replay(tape);

  constexpr int kThreads = 4;
  constexpr int kIters = 60;
  std::atomic<std::int64_t> served{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      std::mt19937 rng(static_cast<std::uint32_t>(1000 + tid));
      Tensor mine = Tensor::full(Shape{64}, static_cast<float>(tid + 1));
      for (int it = 0; it < kIters; ++it) {
        const std::int32_t slot = 2 + ((tid + it) % 4);
        switch (it % 4) {
          case 0:
            store.put(slot, mine);
            break;
          case 1:
            try {
              Tensor got = store.get(slot);
              // Values are per-thread constants: whatever generation we
              // observed must be internally consistent.
              EXPECT_EQ(got.at(0), got.at(got.numel() - 1));
              ++served;
            } catch (const std::logic_error&) {
            }
            break;
          case 2:
            store.on_replay_position(it % 64);
            break;
          default:
            store.drop(slot);
            break;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  store.end_replay();
  store.flush();
  EXPECT_GT(served.load(), 0);
}

// ---------------------------------------------------------------------------
// Executor integration: lookahead-driven prefetch
// ---------------------------------------------------------------------------

struct StoreRun {
  Tensor input_grad;
  std::vector<Tensor> param_grads;
};

StoreRun run_with_store(nn::LayerChain& chain, const Schedule& schedule,
                        const Tensor& x, SlotStore& store) {
  chain.zero_grad();
  chain.clear_saved();
  nn::LayerChainRunner runner(chain, nn::Phase::Train);
  runner.begin_pass();
  ScheduleExecutor executor;
  const LossGradFn seed = [](const Tensor& output) {
    return Tensor::full(output.shape(), 1.0F);
  };
  const ExecutionResult result =
      executor.run(runner, schedule, x, seed, store);
  StoreRun run;
  run.input_grad = result.input_grad.clone();
  for (const nn::ParamRef& p : chain.params()) {
    run.param_grads.push_back(p.grad->clone());
  }
  return run;
}

TEST(AsyncDiskSlotStore, ExecutorReplayPrefetchesAndMatchesSyncGradients) {
  std::mt19937 rng(17);
  nn::LayerChain chain = models::build_conv_chain(8, 4, rng);
  Tensor x = Tensor::randn(Shape{1, 4, 8, 8}, rng);
  const Schedule schedule = revolve::make_schedule(8, 3);

  TieredSlotStore ram(schedule.num_slots());
  const StoreRun reference = run_with_store(chain, schedule, x, ram);

  TieredSlotStore async(schedule.num_slots(), /*first_disk_slot=*/1,
                        test_dir("async_executor"));
  const StoreRun overlapped = run_with_store(chain, schedule, x, async);
  EXPECT_GT(async.disk_writes(), 0);
  // The executor announces the tape, so restores of flushed slots are
  // served by the prefetcher, not synchronous reads.
  EXPECT_GT(async.prefetch_hits(), 0);

  EXPECT_EQ(
      Tensor::max_abs_diff(reference.input_grad, overlapped.input_grad),
      0.0F);
  for (std::size_t i = 0; i < reference.param_grads.size(); ++i) {
    EXPECT_EQ(Tensor::max_abs_diff(reference.param_grads[i],
                                   overlapped.param_grads[i]),
              0.0F);
  }
}

TEST(AsyncDiskSlotStore, ExecutorEndsReplayOnThrowingPaths) {
  // A loss hook that throws mid-replay must still unwind through the
  // executor's replay scope: the store's lookahead state is reset and the
  // next run starts clean (no stale prefetches from the aborted tape).
  std::mt19937 rng(23);
  nn::LayerChain chain = models::build_conv_chain(6, 4, rng);
  Tensor x = Tensor::randn(Shape{1, 4, 8, 8}, rng);
  const Schedule schedule = revolve::make_schedule(6, 2);

  TieredSlotStore async(schedule.num_slots(), 1, test_dir("async_abandon"));
  nn::LayerChainRunner runner(chain, nn::Phase::Train);
  runner.begin_pass();
  ScheduleExecutor executor;
  const LossGradFn bomb = [](const Tensor&) -> Tensor {
    throw std::runtime_error("injected mid-replay failure");
  };
  EXPECT_THROW((void)executor.run(runner, schedule, x, bomb, async),
               std::runtime_error);

  // The store is still usable for a full, successful replay.
  TieredSlotStore ram(schedule.num_slots());
  const StoreRun reference = run_with_store(chain, schedule, x, ram);
  const StoreRun recovered = run_with_store(chain, schedule, x, async);
  EXPECT_EQ(
      Tensor::max_abs_diff(reference.input_grad, recovered.input_grad),
      0.0F);
}

// Regression: the RAM-tier fast path used to mutate ram_ without taking
// mu_, racing resident_bytes() (which walks ram_ under the lock from
// whatever thread polls memory). Clean under TSan only with the fix; the
// lockset race detector flags the unlocked variant deterministically.
TEST(AsyncDiskSlotStore, RamTierPutGetDropIsSafeAgainstResidentBytesPolling) {
  std::mt19937 rng(91);
  TieredSlotStore store(4, /*first_disk_slot=*/2, test_dir("async_ram_race"));
  const Tensor a = Tensor::randn(Shape{8, 8}, rng);
  const Tensor b = Tensor::randn(Shape{8, 8}, rng);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> polls{0};
  std::thread poller([&] {
    while (!done.load(std::memory_order_acquire)) {
      (void)store.resident_bytes();
      polls.fetch_add(1, std::memory_order_relaxed);
    }
  });
  store.put(0, a);
  while (polls.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();  // make sure the poller really contends
  }
  for (int round = 0; round < 2000; ++round) {
    store.put(0, round % 2 == 0 ? a : b);
    store.put(1, a);
    EXPECT_EQ(Tensor::max_abs_diff(store.get(0), round % 2 == 0 ? a : b),
              0.0F);
    store.drop(1);
  }
  done.store(true, std::memory_order_release);
  poller.join();
  EXPECT_GT(polls.load(std::memory_order_relaxed), 0U);
  EXPECT_GE(store.resident_bytes(), a.bytes());  // slot 0 is still live
}

// ---------------------------------------------------------------------------
// DiskSlotStore: the disk tier driven synchronously -- flush after every put
// and no replay tape, so every get of a disk slot is a blocking read on the
// calling thread. Calibration and the benches' synchronous spill baseline
// use the store this way.
// ---------------------------------------------------------------------------

TEST(DiskSlotStore, RoundTripsThroughFiles) {
  std::mt19937 rng(7);
  const std::string dir = test_dir("disk_roundtrip");
  TieredSlotStore store(4, /*first_disk_slot=*/1, dir);
  Tensor ram_tensor = Tensor::randn(Shape{2, 3}, rng);
  Tensor disk_a = Tensor::randn(Shape{4, 5}, rng);
  Tensor disk_b = Tensor::randn(Shape{3, 7}, rng);
  store.put(0, ram_tensor);
  store.put(1, disk_a);
  store.flush();
  store.put(3, disk_b);
  store.flush();
  EXPECT_EQ(store.disk_writes(), 2);
  EXPECT_EQ(store.external_bytes(), disk_a.bytes() + disk_b.bytes());
  EXPECT_EQ(store.resident_bytes(), ram_tensor.bytes());
  EXPECT_TRUE(std::filesystem::exists(dir + "/slot_1.ckpt"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/slot_3.ckpt"));

  EXPECT_EQ(Tensor::max_abs_diff(store.get(3), disk_b), 0.0F);
  EXPECT_EQ(Tensor::max_abs_diff(store.get(1), disk_a), 0.0F);
  EXPECT_EQ(Tensor::max_abs_diff(store.get(0), ram_tensor), 0.0F);
  EXPECT_EQ(store.disk_reads(), 2);
  EXPECT_EQ(store.blocking_reads(), 2);
  EXPECT_EQ(store.prefetch_hits(), 0);

  // Dropping a flushed slot deletes its file and its external bytes.
  store.drop(1);
  EXPECT_FALSE(std::filesystem::exists(dir + "/slot_1.ckpt"));
  EXPECT_EQ(store.external_bytes(), disk_b.bytes());
  EXPECT_THROW((void)store.get(1), std::logic_error);
}

TEST(DiskSlotStore, OverwriteReplacesBytes) {
  TieredSlotStore store(2, 0, test_dir("async_overwrite"));
  store.put(0, Tensor::zeros(Shape{16}));
  store.put(0, Tensor::zeros(Shape{4}));
  store.flush();
  EXPECT_EQ(store.external_bytes(), 16U);
  EXPECT_EQ(store.get(0).numel(), 4);
}

TEST(DiskSlotStore, BitFlippedSpillFileFailsChecksum) {
  std::mt19937 rng(29);
  const std::string dir = test_dir("async_bitflip_blocking");
  TieredSlotStore store(2, /*first_disk_slot=*/0, dir);
  Tensor t = Tensor::randn(Shape{16, 16}, rng);
  store.put(0, t);
  store.flush();

  // An SD card flips one bit in the spill file behind the store's back; the
  // corrupt bytes come back through the blocking read on this thread.
  persist::flip_bit(dir + "/slot_0.ckpt", t.bytes() / 2, 2);
  try {
    (void)store.get(0);
    FAIL() << "corrupt spill file returned without error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("checksum"), std::string::npos)
        << error.what();
  }
  EXPECT_EQ(store.prefetch_hits(), 0);

  // A clean rewrite of the slot recovers it.
  store.put(0, t);
  store.flush();
  EXPECT_EQ(Tensor::max_abs_diff(store.get(0), t), 0.0F);
  EXPECT_EQ(store.blocking_reads(), 1);
}

TEST(DiskSlotStore, TruncatedSpillFileReportsDescriptiveError) {
  std::mt19937 rng(37);
  const std::string dir = test_dir("disk_truncated_header");
  TieredSlotStore store(2, /*first_disk_slot=*/0, dir);
  Tensor t = Tensor::randn(Shape{8, 8}, rng);
  store.put(0, t);
  store.flush();

  // Cut the file inside its header, not just short of the payload's end.
  persist::truncate_file(dir + "/slot_0.ckpt", 4);
  try {
    (void)store.get(0);
    FAIL() << "truncated spill file returned without error";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("truncated or corrupt"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(t.bytes())), std::string::npos) << what;
    EXPECT_NE(what.find("slot_0.ckpt"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace edgetrain::core

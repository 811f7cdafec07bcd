// Self-test corpus for the lockset/happens-before race detector.
//
// Two families of fixtures, per the toolkit's contract:
//   * seeded racy programs MUST be flagged -- every fixture here drives the
//     detector hooks the way a buggy program would, and asserts a report.
//     Detection is metadata-based (locksets + vector clocks), so a racy
//     fixture is flagged even when the test runs its threads strictly one
//     after the other: no interleaving luck required, 100% deterministic.
//   * clean programs MUST NOT be flagged -- common-lock, fork/join, and
//     release/acquire-handoff fixtures assert zero reports, and a workload
//     over the real instrumented subsystems (TieredSlotStore,
//     FleetServer, ThreadPool) asserts the default suite stays at zero.
//
// The detector runtime is always compiled (this file calls the hooks
// directly); only the hooks embedded in production code are gated behind
// EDGETRAIN_GUARDS.
#include "analysis/race/race.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/tiered_slot_store.hpp"
#include "fleet/server.hpp"
#include "tensor/parallel.hpp"
#include "tensor/tensor.hpp"

namespace edgetrain::analysis::race {
namespace {

/// Quiet fixture setup: racy fixtures are SUPPOSED to report, so the
/// stderr echo would just spam the test log.
class RaceDetectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_report_to_stderr(false);
    reset();
  }
  void TearDown() override {
    reset();
    set_report_to_stderr(true);
  }
};

int shared_counter = 0;  // the fixtures' racy cell (address-stable)
int other_cell = 0;

void access_counter(bool is_write, int line) {
  on_access(&shared_counter, is_write, "racy_fixture.cpp", line, "counter");
}

TEST_F(RaceDetectorTest, UnlockedWritesFromTwoThreadsAreFlagged) {
  // Thread 1 finishes before thread 2 even starts -- but no fork/join edge
  // was *reported*, so the metadata shows two unordered unlocked writes.
  std::thread t1([] { access_counter(/*is_write=*/true, 10); });
  t1.join();
  std::thread t2([] { access_counter(/*is_write=*/true, 20); });
  t2.join();
  ASSERT_EQ(report_count(), 1U);
  const Report report = reports().front();
  EXPECT_EQ(report.what, "counter");
  EXPECT_NE(report.site_a.find("racy_fixture.cpp:10"), std::string::npos);
  EXPECT_NE(report.site_b.find("racy_fixture.cpp:20"), std::string::npos);
}

TEST_F(RaceDetectorTest, WriteReadUnderDistinctLocksIsFlagged) {
  int lock_a = 0;
  int lock_b = 0;
  std::thread t1([&] {
    on_acquire(&lock_a);
    access_counter(/*is_write=*/true, 30);
    on_release(&lock_a);
  });
  t1.join();
  std::thread t2([&] {
    on_acquire(&lock_b);
    access_counter(/*is_write=*/false, 40);
    on_release(&lock_b);
  });
  t2.join();
  // Eraser: the locksets {lock_a} and {lock_b} are disjoint, and the two
  // mutexes never synchronised with each other, so no HB edge rescues it.
  ASSERT_EQ(report_count(), 1U);
  EXPECT_NE(reports().front().to_string().find("(write)"), std::string::npos);
  on_mutex_destroy(&lock_a);
  on_mutex_destroy(&lock_b);
}

TEST_F(RaceDetectorTest, ReadsAloneAreNeverARace) {
  std::thread t1([] { access_counter(/*is_write=*/false, 50); });
  t1.join();
  std::thread t2([] { access_counter(/*is_write=*/false, 60); });
  t2.join();
  EXPECT_EQ(report_count(), 0U);
}

TEST_F(RaceDetectorTest, CommonLockIsClean) {
  int lock = 0;
  std::thread t1([&] {
    on_acquire(&lock);
    access_counter(/*is_write=*/true, 70);
    on_release(&lock);
  });
  t1.join();
  std::thread t2([&] {
    on_acquire(&lock);
    access_counter(/*is_write=*/true, 80);
    on_release(&lock);
  });
  t2.join();
  EXPECT_EQ(report_count(), 0U);
  on_mutex_destroy(&lock);
}

TEST_F(RaceDetectorTest, ForkJoinEdgesOrderUnlockedAccesses) {
  access_counter(/*is_write=*/true, 90);  // parent, before the fork
  const ForkToken token = fork();
  ForkToken end;
  std::thread child([&] {
    task_begin(token);
    access_counter(/*is_write=*/true, 100);  // child: ordered after parent
    end = task_end();
  });
  child.join();
  join(end);
  access_counter(/*is_write=*/true, 110);  // parent again, after the join
  EXPECT_EQ(report_count(), 0U);
}

TEST_F(RaceDetectorTest, ReleaseAcquireHandoffWithoutACommonLockIsClean) {
  int sync_flag = 0;
  std::thread producer([&] {
    access_counter(/*is_write=*/true, 120);
    on_sync_release(&sync_flag);  // e.g. a store with memory_order_release
  });
  producer.join();
  std::thread consumer([&] {
    on_sync_acquire(&sync_flag);  // the acquire load that observed it
    access_counter(/*is_write=*/false, 130);
  });
  consumer.join();
  // Pure Eraser would flag this (no common lock); the vector-clock
  // refinement sees the release->acquire edge and stays silent.
  EXPECT_EQ(report_count(), 0U);
}

TEST_F(RaceDetectorTest, MissingTheForkEdgeIsFlagged) {
  // Control fixture for ForkJoinEdgesOrderUnlockedAccesses: identical
  // access pattern, but nobody reports the fork -- must be flagged.
  on_access(&other_cell, /*is_write=*/true, "racy_fixture.cpp", 140, "cell");
  std::thread child([] {
    on_access(&other_cell, /*is_write=*/true, "racy_fixture.cpp", 150, "cell");
  });
  child.join();
  ASSERT_EQ(report_count(), 1U);
}

TEST_F(RaceDetectorTest, ReportsAreDeterministicAcrossRuns) {
  std::vector<std::string> first_run;
  std::vector<std::string> second_run;
  for (int run = 0; run < 2; ++run) {
    reset();
    int lock_a = 0;
    int lock_b = 0;
    std::thread t1([&] {
      on_acquire(&lock_a);
      access_counter(/*is_write=*/true, 160);
      on_release(&lock_a);
    });
    t1.join();
    std::thread t2([&] {
      on_acquire(&lock_b);
      access_counter(/*is_write=*/true, 170);
      on_release(&lock_b);
    });
    t2.join();
    std::vector<std::string>& out = run == 0 ? first_run : second_run;
    for (const Report& report : reports()) out.push_back(report.to_string());
    on_mutex_destroy(&lock_a);
    on_mutex_destroy(&lock_b);
  }
  ASSERT_EQ(first_run.size(), 1U);
  EXPECT_EQ(first_run, second_run);
}

TEST_F(RaceDetectorTest, DuplicateRacePairsAreReportedOnce) {
  for (int i = 0; i < 5; ++i) {
    std::thread t([] { access_counter(/*is_write=*/true, 180); });
    t.join();
  }
  // Five unordered writers -> many racing pairs, but all with the same
  // (what, site_a, site_b) key; the report list stays deduplicated.
  EXPECT_EQ(report_count(), 1U);
}

// ---------------------------------------------------------------------------
// Clean-run assertion over the real instrumented subsystems. Without
// EDGETRAIN_GUARDS the production hooks compile to nothing and this is a
// plain stress test; with guards it proves the detector finds nothing to
// say about the default suite's concurrency.
// ---------------------------------------------------------------------------

std::string test_dir(const std::string& name) {
  const std::string dir =
      std::string(::testing::TempDir()) + "/race_clean_" + name;
  std::filesystem::create_directories(dir);
  return dir;
}

TEST_F(RaceDetectorTest, CleanRunAsyncSlotStoreProducesZeroReports) {
  std::mt19937 rng(21);
  {
    core::TieredSlotStore store(6, /*first_disk_slot=*/3, test_dir("store"));
    std::atomic<bool> done{false};
    // Poller thread: the access pattern that motivated guarding the RAM
    // tier with mu_ in the first place.
    std::thread poller([&] {
      while (!done.load(std::memory_order_acquire)) {
        (void)store.resident_bytes();
        std::this_thread::yield();
      }
    });
    for (int round = 0; round < 50; ++round) {
      const std::int32_t ram_slot = round % 3;
      const std::int32_t disk_slot = 3 + round % 3;
      Tensor value = Tensor::randn(Shape{16}, rng);
      store.put(ram_slot, value);
      store.put(disk_slot, value);
      EXPECT_EQ(Tensor::max_abs_diff(store.get(ram_slot), value), 0.0F);
      EXPECT_EQ(Tensor::max_abs_diff(store.get(disk_slot), value), 0.0F);
      if (round % 7 == 0) store.drop(ram_slot);
    }
    store.flush();
    done.store(true, std::memory_order_release);
    poller.join();
  }
  EXPECT_EQ(report_count(), 0U);
}

TEST_F(RaceDetectorTest, CleanRunFleetServerProducesZeroReports) {
  fleet::ServerConfig config;
  config.shards = 4;
  config.merge_threads = 2;
  {
    fleet::FleetServer server(config);
    std::vector<std::thread> producers;
    for (int p = 0; p < 3; ++p) {
      producers.emplace_back([&server, p] {
        for (std::uint64_t seq = 1; seq <= 40; ++seq) {
          fleet::StudentDelta delta;
          delta.node = static_cast<std::uint32_t>(p);
          delta.seq = seq;
          delta.samples = 1;
          server.ingest(delta);
        }
      });
    }
    for (std::thread& t : producers) t.join();
    server.flush();
    EXPECT_EQ(server.aggregate().deltas, 120U);
    server.stop();
  }
  EXPECT_EQ(report_count(), 0U);
}

TEST_F(RaceDetectorTest, CleanRunParallelForProducesZeroReports) {
  ThreadPool pool(4);
  std::vector<int> data(1024, 0);
  for (int round = 0; round < 20; ++round) {
    pool.parallel_for(0, static_cast<std::int64_t>(data.size()),
                      [&](std::int64_t begin, std::int64_t end) {
                        for (std::int64_t i = begin; i < end; ++i) {
                          data[static_cast<std::size_t>(i)] += 1;
                        }
                      });
  }
  for (const int v : data) EXPECT_EQ(v, 20);
  EXPECT_EQ(report_count(), 0U);
}

}  // namespace
}  // namespace edgetrain::analysis::race

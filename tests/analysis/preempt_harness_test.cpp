// Seeded preemption-fuzz harness (PCT-style schedule fuzzing).
//
// Two halves:
//   * reproducibility -- the injector's decision function is pure in
//     (seed, site, per-thread ordinal), so the decision stream is
//     bit-reproducible per seed. Asserted directly on decision_hash and on
//     the order-independent XOR fingerprint of full multi-threaded runs.
//   * adversarial workloads -- a fixed seed set drives TieredSlotStore
//     and FleetServer through perturbed interleavings (every annotated
//     Mutex/CondVar operation is a potential yield/sleep point when built
//     with EDGETRAIN_GUARDS or EDGETRAIN_PREEMPT) while the tests hold the
//     subsystems to their exact invariants: stored tensors round-trip
//     bit-identically, the fleet aggregate equals the serial fold, and the
//     race detector stays silent. Under TSan (tsan CI job runs this binary
//     with -DEDGETRAIN_PREEMPT=ON) the displaced schedules also widen the
//     interleaving space TSan gets to certify.
#include "analysis/race/preempt.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "analysis/race/race.hpp"
#include "core/tiered_slot_store.hpp"
#include "fleet/server.hpp"
#include "tensor/tensor.hpp"

namespace edgetrain::analysis::preempt {
namespace {

constexpr std::uint64_t kSeedSet[] = {1, 2, 3, 5, 8};

/// Every test restores the disabled state so ordinary suites never see
/// injected preemptions.
class PreemptHarnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_seed(0);
    reset_stats();
    race::reset();
  }
  void TearDown() override { set_seed(0); }
};

TEST_F(PreemptHarnessTest, DecisionHashIsBitReproducible) {
  for (const std::uint64_t seed : kSeedSet) {
    for (unsigned site = 0; site < 5; ++site) {
      for (std::uint64_t ordinal = 0; ordinal < 256; ++ordinal) {
        const std::uint64_t a = decision_hash(seed, site, ordinal);
        const std::uint64_t b = decision_hash(seed, site, ordinal);
        EXPECT_EQ(a, b);
        EXPECT_EQ(decides_to_yield(seed, site, ordinal), (a & 7ULL) == 0);
      }
    }
  }
}

TEST_F(PreemptHarnessTest, DistinctSeedsExploreDistinctSchedules) {
  // Not a tautology: a buggy mix that ignored the seed would collapse all
  // seeds onto one schedule and the fuzzer would only ever test one
  // interleaving neighbourhood.
  std::vector<std::uint64_t> streams;
  for (const std::uint64_t seed : kSeedSet) {
    std::uint64_t fold = 0;
    for (std::uint64_t ordinal = 0; ordinal < 64; ++ordinal) {
      fold ^= decision_hash(seed, /*site=*/0, ordinal);
    }
    streams.push_back(fold);
  }
  for (std::size_t i = 0; i < streams.size(); ++i) {
    for (std::size_t j = i + 1; j < streams.size(); ++j) {
      EXPECT_NE(streams[i], streams[j]);
    }
  }
}

TEST_F(PreemptHarnessTest, YieldRateIsRoughlyOneInEight) {
  std::uint64_t yields = 0;
  constexpr std::uint64_t kTrials = 8000;
  for (std::uint64_t ordinal = 0; ordinal < kTrials; ++ordinal) {
    if (decides_to_yield(42, /*site=*/1, ordinal)) ++yields;
  }
  EXPECT_GT(yields, kTrials / 8 - kTrials / 32);
  EXPECT_LT(yields, kTrials / 8 + kTrials / 32);
}

TEST_F(PreemptHarnessTest, MultiThreadedFingerprintIsReproduciblePerSeed) {
  // Fresh threads each run: per-thread ordinals start at zero, so the same
  // seed must reproduce the same decision stream no matter how the OS
  // interleaves the threads (the fingerprint folds order-independently).
  const auto run_workload = [](std::uint64_t seed) {
    set_seed(seed);
    reset_stats();
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([] {
        for (unsigned i = 0; i < 200; ++i) point(i % 5);
      });
    }
    for (std::thread& t : threads) t.join();
    set_seed(0);
    return std::pair<std::uint64_t, std::uint64_t>{fingerprint(), yields()};
  };
  for (const std::uint64_t seed : kSeedSet) {
    const auto first = run_workload(seed);
    const auto second = run_workload(seed);
    EXPECT_EQ(first, second) << "seed " << seed;
    EXPECT_EQ(decisions(), 4U * 200U);
    EXPECT_GT(first.second, 0U) << "seed " << seed << " never yielded";
  }
}

TEST_F(PreemptHarnessTest, ZeroSeedDisablesInjectionEntirely) {
  set_seed(0);
  reset_stats();
  for (unsigned i = 0; i < 100; ++i) point(i % 5);
  EXPECT_EQ(decisions(), 0U);
  EXPECT_EQ(yields(), 0U);
  EXPECT_EQ(fingerprint(), 0U);
}

// ---------------------------------------------------------------------------
// Adversarial workloads under the seed set.
// ---------------------------------------------------------------------------

std::string test_dir(const std::string& name) {
  const std::string dir =
      std::string(::testing::TempDir()) + "/preempt_" + name;
  std::filesystem::create_directories(dir);
  return dir;
}

TEST_F(PreemptHarnessTest, AsyncSlotStoreSurvivesPerturbedSchedules) {
  std::mt19937 rng(33);
  const Tensor reference = Tensor::randn(Shape{64}, rng);
  for (const std::uint64_t seed : kSeedSet) {
    set_seed(seed);
    {
      core::TieredSlotStore store(4, /*first_disk_slot=*/2,
                                  test_dir("store_" + std::to_string(seed)));
      std::atomic<bool> done{false};
      std::thread poller([&] {
        while (!done.load(std::memory_order_acquire)) {
          (void)store.resident_bytes();
          (void)store.write_behind_hits();
        }
      });
      for (int round = 0; round < 30; ++round) {
        store.put(0, reference);
        store.put(2 + round % 2, reference);
        EXPECT_EQ(Tensor::max_abs_diff(store.get(0), reference), 0.0F);
        EXPECT_EQ(Tensor::max_abs_diff(store.get(2 + round % 2), reference),
                  0.0F);
        if (round % 5 == 0) {
          store.drop(0);
          store.drop(2 + round % 2);
        }
      }
      store.flush();
      done.store(true, std::memory_order_release);
      poller.join();
    }
    set_seed(0);
  }
  EXPECT_EQ(race::report_count(), 0U);
}

TEST_F(PreemptHarnessTest, FleetServerStaysExactUnderPerturbedSchedules) {
  for (const std::uint64_t seed : kSeedSet) {
    set_seed(seed);
    fleet::ServerConfig config;
    config.shards = 4;
    config.merge_threads = 2;
    config.queue_capacity = 16;  // small: force back-pressure interleavings
    {
      fleet::FleetServer server(config);
      constexpr int kProducers = 3;
      constexpr std::uint64_t kSeqs = 30;
      std::vector<std::thread> producers;
      for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&server, p] {
          for (std::uint64_t seq = 1; seq <= kSeqs; ++seq) {
            fleet::StudentDelta delta;
            delta.node = static_cast<std::uint32_t>(p);
            delta.seq = seq;
            delta.samples = 2;
            delta.loss_milli = static_cast<std::int32_t>(seq);
            server.ingest(delta);
          }
        });
      }
      for (std::thread& t : producers) t.join();
      server.flush();
      const fleet::FleetAggregate agg = server.aggregate();
      EXPECT_EQ(agg.deltas, kProducers * kSeqs) << "seed " << seed;
      EXPECT_EQ(agg.samples, kProducers * kSeqs * 2) << "seed " << seed;
      server.stop();
    }
    set_seed(0);
  }
  EXPECT_EQ(race::report_count(), 0U);
}

}  // namespace
}  // namespace edgetrain::analysis::preempt

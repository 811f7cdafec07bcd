// Fuzz coverage: randomly-structured (but valid-by-construction) schedules
// must validate, pass the schedule abstract interpreter's invariant checks,
// respect their slot bound, and produce gradients bit-identical to full
// storage on a real network. This guards the executor and layer
// save/backward contracts against schedule shapes none of the
// deterministic schedulers happen to emit, and cross-checks the
// interpreter itself against execution ground truth: a schedule the
// interpreter proves sound must in fact reproduce the reference gradient.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "analysis/interp.hpp"
#include "core/disk_revolve.hpp"
#include "core/dynprog.hpp"
#include "core/executor.hpp"
#include "core/revolve.hpp"
#include "core/sequential.hpp"
#include "core/tiered_slot_store.hpp"
#include "models/small_nets.hpp"
#include "nn/chain_runner.hpp"
#include "tensor/ops.hpp"
#include "test_dir.hpp"

namespace edgetrain::core {
namespace {

/// Emits a random reversal of [a, b) with random split points, using the
/// free slots in `pool`. Mirrors the revolve emitter's structure but picks
/// splits (and occasional slot-less fallbacks) at random.
class RandomScheduleBuilder {
 public:
  RandomScheduleBuilder(int num_steps, int free_slots, std::mt19937& rng)
      : schedule_(num_steps, free_slots + 1), rng_(rng) {
    for (std::int32_t slot = free_slots; slot >= 1; --slot) {
      pool_.push_back(slot);
    }
  }

  Schedule build() {
    schedule_.store(0, 0);
    sweep(0, schedule_.num_steps(), 0);
    schedule_.free(0);
    return std::move(schedule_);
  }

 private:
  void reverse_one(std::int32_t step) {
    schedule_.forward_save(step);
    schedule_.backward(step);
  }

  void quadratic_base(std::int32_t a, std::int32_t b, std::int32_t input_slot,
                      bool from_sweep) {
    if (from_sweep) {
      for (std::int32_t i = a; i < b - 1; ++i) schedule_.forward(i);
      reverse_one(b - 1);
      for (std::int32_t i = b - 2; i >= a; --i) {
        schedule_.restore(a, input_slot);
        for (std::int32_t k = a; k < i; ++k) schedule_.forward(k);
        reverse_one(i);
      }
    } else {
      for (std::int32_t i = b - 1; i >= a; --i) {
        if (i != b - 1) schedule_.restore(a, input_slot);
        for (std::int32_t k = a; k < i; ++k) schedule_.forward(k);
        reverse_one(i);
      }
    }
  }

  void sweep(std::int32_t a, std::int32_t b, std::int32_t input_slot) {
    if (b - a == 1) {
      reverse_one(a);
      return;
    }
    if (pool_.empty() || coin(0.25F)) {  // random slot-less fallback
      quadratic_base(a, b, input_slot, /*from_sweep=*/true);
      return;
    }
    const std::int32_t j = pick_split(a, b);
    for (std::int32_t i = a; i < j; ++i) schedule_.forward(i);
    const std::int32_t slot = take_slot();
    schedule_.store(j, slot);
    sweep(j, b, slot);
    give_slot(slot);
    schedule_.restore(a, input_slot);
    reverse(a, j, input_slot);
  }

  void reverse(std::int32_t a, std::int32_t b, std::int32_t input_slot) {
    if (b - a == 1) {
      reverse_one(a);
      return;
    }
    if (pool_.empty() || coin(0.25F)) {
      quadratic_base(a, b, input_slot, /*from_sweep=*/false);
      return;
    }
    const std::int32_t j = pick_split(a, b);
    for (std::int32_t i = a; i < j; ++i) schedule_.forward(i);
    const std::int32_t slot = take_slot();
    schedule_.store(j, slot);
    reverse(j, b, slot);
    give_slot(slot);
    schedule_.restore(a, input_slot);
    reverse(a, j, input_slot);
  }

  bool coin(float p) {
    return std::uniform_real_distribution<float>(0.0F, 1.0F)(rng_) < p;
  }
  std::int32_t pick_split(std::int32_t a, std::int32_t b) {
    return std::uniform_int_distribution<std::int32_t>(a + 1, b - 1)(rng_);
  }
  std::int32_t take_slot() {
    const std::int32_t slot = pool_.back();
    pool_.pop_back();
    return slot;
  }
  void give_slot(std::int32_t slot) { pool_.push_back(slot); }

  Schedule schedule_;
  std::mt19937& rng_;
  std::vector<std::int32_t> pool_;
};

class ScheduleFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ScheduleFuzzTest, RandomSchedulesValidateAndMatchFullStorage) {
  std::mt19937 rng(static_cast<std::uint32_t>(GetParam()));
  std::uniform_int_distribution<int> l_dist(1, 12);
  std::uniform_int_distribution<int> s_dist(0, 5);

  // A fixed small network reused across the fuzz iterations of this seed.
  std::mt19937 net_rng(4040);
  nn::LayerChain chain = models::build_mini_resnet(1, 4, 3, 1, net_rng);
  Tensor input = Tensor::randn(Shape{2, 1, 12, 12}, net_rng);
  const std::vector<std::int32_t> labels{0, 2};

  auto run = [&](const Schedule& schedule) {
    chain.zero_grad();
    chain.clear_saved();
    nn::LayerChainRunner runner(chain, nn::Phase::Train);
    runner.begin_pass();
    ScheduleExecutor executor;
    const LossGradFn loss_grad = [&](const Tensor& logits) {
      const ops::SoftmaxXentResult r =
          ops::softmax_xent_forward(logits, labels);
      return ops::softmax_xent_backward(r.probs, labels);
    };
    const ExecutionResult result =
        executor.run(runner, schedule, input, loss_grad);
    std::vector<Tensor> grads{result.input_grad.clone()};
    for (const nn::ParamRef& p : chain.params()) {
      grads.push_back(p.grad->clone());
    }
    return grads;
  };

  const int l = chain.size();
  const std::vector<Tensor> reference = run(full_storage_schedule(l));

  for (int iter = 0; iter < 6; ++iter) {
    const int s = s_dist(rng);
    (void)l_dist;
    RandomScheduleBuilder builder(l, s, rng);
    const Schedule schedule = builder.build();
    ASSERT_EQ(schedule.validate(), std::nullopt)
        << "seed=" << GetParam() << " iter=" << iter << "\n"
        << schedule.to_string();
    const ScheduleStats stats = schedule.stats();
    EXPECT_LE(stats.peak_slots_in_use, s + 1);
    EXPECT_EQ(stats.backwards, l);

    // The abstract interpreter must prove the schedule sound: every
    // backward consumes a live intermediate, every restore reads claimed
    // state, and the activation peak stays within the slot budget.
    analysis::Bounds bounds;
    bounds.max_memory_units = s + 1;
    bounds.max_ram_slots = s + 1;
    const analysis::Report verdict =
        analysis::interpret(schedule, analysis::CostModel{}, bounds);
    EXPECT_EQ(verdict.error_count(), 0)
        << "seed=" << GetParam() << " iter=" << iter << "\n"
        << verdict.summary();

    const std::vector<Tensor> grads = run(schedule);
    ASSERT_EQ(grads.size(), reference.size());
    for (std::size_t g = 0; g < grads.size(); ++g) {
      EXPECT_EQ(Tensor::max_abs_diff(grads[g], reference[g]), 0.0F)
          << "seed=" << GetParam() << " iter=" << iter << " grad=" << g;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleFuzzTest,
                         ::testing::Range(1, 13));

// Two-level (RAM + disk) Revolve schedules, fuzzed over the solver's
// parameter space: every schedule must validate, earn a clean interpreter
// verdict under the two-tier cost model, and reproduce the full-storage
// gradient bit-for-bit when executed (disk slots are held by a RAM store
// here; slot *placement* is what is under test, not the spill IO itself,
// which slot_store_test covers).
TEST(ScheduleFuzzDiskTest, DiskRevolveSchedulesInterpretCleanAndMatch) {
  std::mt19937 net_rng(4040);
  nn::LayerChain chain = models::build_mini_resnet(1, 4, 3, 1, net_rng);
  Tensor input = Tensor::randn(Shape{2, 1, 12, 12}, net_rng);
  const std::vector<std::int32_t> labels{0, 2};

  auto run = [&](const Schedule& schedule) {
    chain.zero_grad();
    chain.clear_saved();
    nn::LayerChainRunner runner(chain, nn::Phase::Train);
    runner.begin_pass();
    ScheduleExecutor executor;
    const LossGradFn loss_grad = [&](const Tensor& logits) {
      const ops::SoftmaxXentResult r =
          ops::softmax_xent_forward(logits, labels);
      return ops::softmax_xent_backward(r.probs, labels);
    };
    const ExecutionResult result =
        executor.run(runner, schedule, input, loss_grad);
    std::vector<Tensor> grads{result.input_grad.clone()};
    for (const nn::ParamRef& p : chain.params()) {
      grads.push_back(p.grad->clone());
    }
    return grads;
  };

  const int l = chain.size();
  const std::vector<Tensor> reference = run(full_storage_schedule(l));

  std::mt19937 rng(1234);
  std::uniform_int_distribution<int> ram_dist(1, 3);
  std::uniform_real_distribution<double> io_dist(0.5, 8.0);
  for (int iter = 0; iter < 8; ++iter) {
    disk::DiskRevolveOptions options;
    options.ram_slots = ram_dist(rng);
    options.write_cost = io_dist(rng);
    options.read_cost = io_dist(rng);
    options.allow_disk = iter % 4 != 3;  // mix in the single-level fallback
    const disk::DiskRevolveSolver solver(l, options);
    const int ram = solver.options().ram_slots;  // clamped to l - 1
    const Schedule schedule = solver.make_schedule();
    ASSERT_EQ(schedule.validate(), std::nullopt)
        << "iter=" << iter << "\n" << schedule.to_string();

    analysis::CostModel cost;
    cost.first_disk_slot = ram + 1;
    cost.disk_write_cost = options.write_cost;
    cost.disk_read_cost = options.read_cost;
    analysis::Bounds bounds;
    bounds.max_memory_units = ram + 1;
    bounds.max_ram_slots = ram + 1;
    bounds.max_total_cost =
        solver.forward_cost() + static_cast<double>(l);
    const analysis::Report verdict =
        analysis::interpret(schedule, cost, bounds);
    EXPECT_EQ(verdict.error_count(), 0)
        << "iter=" << iter << " ram=" << ram << "\n" << verdict.summary();

    const std::vector<Tensor> grads = run(schedule);
    ASSERT_EQ(grads.size(), reference.size());
    for (std::size_t g = 0; g < grads.size(); ++g) {
      EXPECT_EQ(Tensor::max_abs_diff(grads[g], reference[g]), 0.0F)
          << "iter=" << iter << " grad=" << g;
    }
  }
}

// Two-level schedules solved with overlap pricing and *executed through the
// async store*: gradients must stay bit-identical to full storage while the
// spills round-trip through real background IO, the sampled peak
// resident_bytes() must stay within the planner's activation bound plus the
// staging budget, and the overlapped-IO abstract interpretation must come
// back clean against sound bounds (the serial wall-clock of the same
// schedule; planner memory + write staging).
TEST(ScheduleFuzzDiskTest, AsyncStoreMatchesFullStorageWithinStagingBudget) {
  std::mt19937 net_rng(4040);
  nn::LayerChain chain = models::build_mini_resnet(1, 4, 3, 1, net_rng);
  Tensor input = Tensor::randn(Shape{2, 1, 12, 12}, net_rng);
  const std::vector<std::int32_t> labels{0, 2};
  const int l = chain.size();

  const LossGradFn loss_grad = [&](const Tensor& logits) {
    const ops::SoftmaxXentResult r = ops::softmax_xent_forward(logits, labels);
    return ops::softmax_xent_backward(r.probs, labels);
  };

  auto run = [&](const Schedule& schedule, SlotStore* store,
                 std::size_t* peak_resident) {
    chain.zero_grad();
    chain.clear_saved();
    nn::LayerChainRunner runner(chain, nn::Phase::Train);
    runner.begin_pass();
    ScheduleExecutor executor;
    ExecutorHooks hooks;
    if (store != nullptr && peak_resident != nullptr) {
      hooks.on_action = [&](std::int64_t, const Action&) {
        *peak_resident = std::max(*peak_resident, store->resident_bytes());
      };
    }
    const ExecutionResult result =
        store != nullptr
            ? executor.run(runner, schedule, input, loss_grad, *store, hooks)
            : executor.run(runner, schedule, input, loss_grad);
    std::vector<Tensor> grads{result.input_grad.clone()};
    for (const nn::ParamRef& p : chain.params()) {
      grads.push_back(p.grad->clone());
    }
    return grads;
  };

  const std::vector<Tensor> reference =
      run(full_storage_schedule(l), nullptr, nullptr);

  // Largest boundary activation: the unit behind the planner's byte bound.
  std::size_t unit_bytes = input.bytes();
  {
    chain.zero_grad();
    chain.clear_saved();
    nn::LayerChainRunner runner(chain, nn::Phase::Train);
    runner.begin_pass();
    Tensor cur = input;
    for (int i = 0; i < l; ++i) {
      cur = runner.forward(static_cast<std::int32_t>(i), cur, false);
      unit_bytes = std::max(unit_bytes, cur.bytes());
    }
  }

  const std::string dir =
      std::string(::testing::TempDir()) + "/fuzz_async_store";
  std::filesystem::create_directories(dir);

  std::mt19937 rng(4321);
  std::uniform_int_distribution<int> ram_dist(1, 3);
  std::uniform_real_distribution<double> io_dist(0.5, 8.0);
  for (int iter = 0; iter < 6; ++iter) {
    disk::DiskRevolveOptions options;
    options.ram_slots = ram_dist(rng);
    options.write_cost = io_dist(rng);
    options.read_cost = io_dist(rng);
    options.overlap_io = true;
    const disk::DiskRevolveSolver solver(l, options);
    const int ram = solver.options().ram_slots;
    const Schedule schedule = solver.make_schedule();
    ASSERT_EQ(schedule.validate(), std::nullopt)
        << "iter=" << iter << "\n" << schedule.to_string();

    // Overlapped-IO abstract interpretation against sound bounds: stalls
    // only accrue while the IO worker is busy, so the pipeline wall-clock
    // can never exceed the serial total of the same schedule; staging adds
    // at most the write budget on top of the planner's activation units.
    analysis::CostModel cost;
    cost.first_disk_slot = ram + 1;
    cost.disk_write_cost = options.write_cost;
    cost.disk_read_cost = options.read_cost;
    cost.overlapped_io = true;
    analysis::CostModel serial = cost;
    serial.overlapped_io = false;
    const analysis::Report serial_verdict =
        analysis::interpret(schedule, serial, analysis::Bounds{});
    analysis::Bounds bounds;
    bounds.max_memory_units = ram + 1 + cost.write_staging_slots;
    bounds.max_ram_slots = ram + 1;
    bounds.max_total_cost = serial_verdict.facts.total_cost();
    const analysis::Report verdict =
        analysis::interpret(schedule, cost, bounds);
    EXPECT_EQ(verdict.error_count(), 0)
        << "iter=" << iter << " ram=" << ram << "\n" << verdict.summary();
    EXPECT_LE(verdict.facts.io_cost, verdict.facts.io_busy_cost + 1e-9)
        << "iter=" << iter;
    EXPECT_LE(verdict.facts.peak_staged_slots,
              cost.write_staging_slots + cost.read_staging_slots)
        << "iter=" << iter;

    // Execute the same schedule through real background IO.
    TieredSlotStore store(schedule.num_slots(), ram + 1, dir);
    std::size_t peak_resident = 0;
    const std::vector<Tensor> grads = run(schedule, &store, &peak_resident);
    store.flush();

    ASSERT_EQ(grads.size(), reference.size());
    for (std::size_t g = 0; g < grads.size(); ++g) {
      EXPECT_EQ(Tensor::max_abs_diff(grads[g], reference[g]), 0.0F)
          << "iter=" << iter << " grad=" << g;
    }
    // Planner bound (ram slots + input) + one write-behind + one prefetch
    // staging buffer, in units of the largest boundary activation.
    const std::size_t budget_units = static_cast<std::size_t>(ram + 1 + 2);
    EXPECT_LE(peak_resident, budget_units * unit_bytes)
        << "iter=" << iter << " ram=" << ram
        << " peak=" << peak_resident << " unit=" << unit_bytes;
  }
}

// Schedules from all four scheduler families executed through the
// byte-plane RLE lossless slot codec: gradients must stay bit-identical to
// full storage (the codec's whole contract), the sampled peak
// resident_bytes() must respect the schedule's slot bound (compression can
// only shrink it), and the measured encoded footprint must land strictly
// below plaintext on real (post-conv/ReLU) activations.
TEST(ScheduleFuzzCodecTest, AllFamiliesBitIdenticalUnderLosslessCodec) {
  std::mt19937 net_rng(4040);
  nn::LayerChain chain = models::build_mini_resnet(1, 4, 3, 1, net_rng);
  Tensor input = Tensor::randn(Shape{2, 1, 12, 12}, net_rng);
  const std::vector<std::int32_t> labels{0, 2};
  const int l = chain.size();

  const LossGradFn loss_grad = [&](const Tensor& logits) {
    const ops::SoftmaxXentResult r = ops::softmax_xent_forward(logits, labels);
    return ops::softmax_xent_backward(r.probs, labels);
  };

  auto run = [&](const Schedule& schedule, SlotStore* store,
                 std::size_t* peak_resident) {
    chain.zero_grad();
    chain.clear_saved();
    nn::LayerChainRunner runner(chain, nn::Phase::Train);
    runner.begin_pass();
    ScheduleExecutor executor;
    ExecutorHooks hooks;
    if (store != nullptr && peak_resident != nullptr) {
      hooks.on_action = [&](std::int64_t, const Action&) {
        *peak_resident = std::max(*peak_resident, store->resident_bytes());
      };
    }
    const ExecutionResult result =
        store != nullptr
            ? executor.run(runner, schedule, input, loss_grad, *store, hooks)
            : executor.run(runner, schedule, input, loss_grad);
    std::vector<Tensor> grads{result.input_grad.clone()};
    for (const nn::ParamRef& p : chain.params()) {
      grads.push_back(p.grad->clone());
    }
    return grads;
  };

  const std::vector<Tensor> reference =
      run(full_storage_schedule(l), nullptr, nullptr);

  // Largest boundary activation: the byte unit behind the slot bound.
  std::size_t unit_bytes = input.bytes();
  {
    chain.zero_grad();
    chain.clear_saved();
    nn::LayerChainRunner runner(chain, nn::Phase::Train);
    runner.begin_pass();
    Tensor cur = input;
    for (int i = 0; i < l; ++i) {
      cur = runner.forward(static_cast<std::int32_t>(i), cur, false);
      unit_bytes = std::max(unit_bytes, cur.bytes());
    }
  }

  std::vector<std::pair<std::string, Schedule>> schedules;
  schedules.emplace_back("revolve(s=2)", revolve::make_schedule(l, 2));
  schedules.emplace_back("revolve(s=0)", revolve::make_schedule(l, 0));
  schedules.emplace_back("sequential(k=3)", seq::make_schedule(l, 3));
  {
    const hetero::HeteroSolver solver(
        std::vector<double>(static_cast<std::size_t>(l), 1.0), 2);
    schedules.emplace_back("hetero(s=2)", solver.make_schedule(2));
  }
  {
    disk::DiskRevolveOptions options;
    options.ram_slots = 2;
    schedules.emplace_back("disk(ram=2)",
                           disk::DiskRevolveSolver(l, options).make_schedule());
  }

  for (const auto& [name, schedule] : schedules) {
    ASSERT_EQ(schedule.validate(), std::nullopt)
        << name << "\n" << schedule.to_string();
    TieredSlotStore store(schedule.num_slots(), SlotCodec::Lossless);
    std::size_t peak_resident = 0;
    const std::vector<Tensor> grads = run(schedule, &store, &peak_resident);

    ASSERT_EQ(grads.size(), reference.size()) << name;
    for (std::size_t g = 0; g < grads.size(); ++g) {
      EXPECT_EQ(Tensor::max_abs_diff(grads[g], reference[g]), 0.0F)
          << name << " grad=" << g;
    }

    // The encoded footprint can never exceed the plaintext slot bound
    // (raw fallback adds 1 mode byte per resident blob at worst)...
    const ScheduleStats stats = schedule.stats();
    EXPECT_LE(peak_resident,
              static_cast<std::size_t>(stats.peak_slots_in_use) * unit_bytes +
                  static_cast<std::size_t>(schedule.num_slots()))
        << name << " peak=" << peak_resident << " unit=" << unit_bytes;
    // ...and on real post-conv/ReLU activations it must be strictly
    // smaller in aggregate: compression with teeth, not just a
    // pass-through. revolve(s=0) is exempt: its only checkpoint is the
    // network *input* -- white randn noise, incompressible by design --
    // where the raw fallback's 1 mode byte per put is the whole story.
    EXPECT_GT(store.plain_bytes_seen(), 0U) << name;
    if (stats.peak_slots_in_use > 1) {
      EXPECT_LT(store.encoded_bytes_seen(), store.plain_bytes_seen()) << name;
      EXPECT_LT(store.measured_ratio(), 1.0) << name;
    }
  }
}

// Schedules from all four scheduler families executed through the sparse
// bitmap codec: "nonzero" is the 32-bit pattern, so restore is bit-exact
// and every family's gradients must match full storage exactly. The store
// must also have recorded a measured per-slot ratio strictly below the
// codec's worst-case planning ratio on these (post-conv/ReLU, zero-heavy)
// activations -- that measurement is what core/adaptive.hpp re-plans from.
TEST(ScheduleFuzzCodecTest, AllFamiliesBitIdenticalUnderBitmapCodec) {
  std::mt19937 net_rng(4040);
  nn::LayerChain chain = models::build_mini_resnet(1, 4, 3, 1, net_rng);
  Tensor input = Tensor::randn(Shape{2, 1, 12, 12}, net_rng);
  const std::vector<std::int32_t> labels{0, 2};
  const int l = chain.size();

  const LossGradFn loss_grad = [&](const Tensor& logits) {
    const ops::SoftmaxXentResult r = ops::softmax_xent_forward(logits, labels);
    return ops::softmax_xent_backward(r.probs, labels);
  };

  auto run = [&](const Schedule& schedule, SlotStore* store) {
    chain.zero_grad();
    chain.clear_saved();
    nn::LayerChainRunner runner(chain, nn::Phase::Train);
    runner.begin_pass();
    ScheduleExecutor executor;
    const ExecutionResult result =
        store != nullptr
            ? executor.run(runner, schedule, input, loss_grad, *store)
            : executor.run(runner, schedule, input, loss_grad);
    std::vector<Tensor> grads{result.input_grad.clone()};
    for (const nn::ParamRef& p : chain.params()) {
      grads.push_back(p.grad->clone());
    }
    return grads;
  };

  const std::vector<Tensor> reference =
      run(full_storage_schedule(l), nullptr);

  std::vector<std::pair<std::string, Schedule>> schedules;
  schedules.emplace_back("revolve(s=2)", revolve::make_schedule(l, 2));
  schedules.emplace_back("revolve(s=0)", revolve::make_schedule(l, 0));
  schedules.emplace_back("sequential(k=3)", seq::make_schedule(l, 3));
  {
    const hetero::HeteroSolver solver(
        std::vector<double>(static_cast<std::size_t>(l), 1.0), 2);
    schedules.emplace_back("hetero(s=2)", solver.make_schedule(2));
  }
  {
    disk::DiskRevolveOptions options;
    options.ram_slots = 2;
    schedules.emplace_back("disk(ram=2)",
                           disk::DiskRevolveSolver(l, options).make_schedule());
  }

  // measured_slot_ratio reflects the *last* put into a slot, and some
  // families end a slot's life on a dense (post-conv) boundary, so the
  // per-slot evidence is accumulated across families: at least one family
  // must leave a slot measured strictly below the worst-case planning
  // ratio -- the signal core/adaptive.hpp re-plans from.
  bool saw_compressed_slot = false;
  for (const auto& [name, schedule] : schedules) {
    ASSERT_EQ(schedule.validate(), std::nullopt)
        << name << "\n" << schedule.to_string();
    TieredSlotStore store(schedule.num_slots(), SlotCodec::Bitmap);
    const std::vector<Tensor> grads = run(schedule, &store);

    ASSERT_EQ(grads.size(), reference.size()) << name;
    for (std::size_t g = 0; g < grads.size(); ++g) {
      EXPECT_EQ(Tensor::max_abs_diff(grads[g], reference[g]), 0.0F)
          << name << " grad=" << g;
    }

    EXPECT_GT(store.plain_bytes_seen(), 0U) << name;
    // Checkpoint slots (>= 1) hold zero-heavy post-ReLU boundaries often
    // enough that the aggregate footprint must land below plaintext. Slot
    // 0 (white-noise input) is exempt -- its dense fallback measures
    // ~1.0, which is exactly why the planners never re-price slot 0.
    if (schedule.stats().peak_slots_in_use > 1) {
      EXPECT_LT(store.measured_ratio(), 1.0) << name;
      for (std::int32_t slot = 1; slot < schedule.num_slots(); ++slot) {
        if (store.measured_slot_ratio(slot) <
            planning_bytes_ratio(SlotCodec::Bitmap)) {
          saw_compressed_slot = true;
        }
      }
    }
  }
  EXPECT_TRUE(saw_compressed_slot);
}

// The fp16 cast codec end-to-end: resting checkpoints at half precision
// must land the final gradients within gradcheck-style tolerance of the
// full-precision reference, at exactly half the resident checkpoint bytes.
TEST(ScheduleFuzzCodecTest, Fp16CodecStaysWithinGradcheckTolerance) {
  std::mt19937 net_rng(4040);
  nn::LayerChain chain = models::build_mini_resnet(1, 4, 3, 1, net_rng);
  Tensor input = Tensor::randn(Shape{2, 1, 12, 12}, net_rng);
  const std::vector<std::int32_t> labels{0, 2};
  const int l = chain.size();

  const LossGradFn loss_grad = [&](const Tensor& logits) {
    const ops::SoftmaxXentResult r = ops::softmax_xent_forward(logits, labels);
    return ops::softmax_xent_backward(r.probs, labels);
  };

  auto run = [&](const Schedule& schedule, SlotStore* store) {
    chain.zero_grad();
    chain.clear_saved();
    nn::LayerChainRunner runner(chain, nn::Phase::Train);
    runner.begin_pass();
    ScheduleExecutor executor;
    const ExecutionResult result =
        store != nullptr
            ? executor.run(runner, schedule, input, loss_grad, *store)
            : executor.run(runner, schedule, input, loss_grad);
    std::vector<Tensor> grads{result.input_grad.clone()};
    for (const nn::ParamRef& p : chain.params()) {
      grads.push_back(p.grad->clone());
    }
    return grads;
  };

  const std::vector<Tensor> reference =
      run(full_storage_schedule(l), nullptr);

  const Schedule schedule = revolve::make_schedule(l, 2);
  TieredSlotStore store(schedule.num_slots(), SlotCodec::Fp16);
  const std::vector<Tensor> grads = run(schedule, &store);

  EXPECT_DOUBLE_EQ(store.measured_ratio(), 0.5);
  ASSERT_EQ(grads.size(), reference.size());
  for (std::size_t g = 0; g < grads.size(); ++g) {
    float ref_scale = 0.0F;
    const Tensor& ref = reference[g];
    for (std::int64_t i = 0; i < ref.numel(); ++i) {
      ref_scale = std::max(ref_scale, std::abs(ref.data()[i]));
    }
    // fp16 casts on resting checkpoints perturb restored activations by
    // <= 2^-11 relative; the gradcheck suite tolerates 5e-2 relative on
    // these nets, and the cast error lands orders of magnitude below it.
    EXPECT_LE(Tensor::max_abs_diff(grads[g], ref),
              std::max(ref_scale * 5e-2F, 1e-4F))
        << "grad=" << g;
    // But it must not be bit-identical by accident of an unused slot:
    // sanity that the store actually carried checkpoints.
    EXPECT_GT(store.plain_bytes_seen(), 0U);
  }
}

// The async store with the lossless codec: encoded blobs staged by
// write-behind, spilled, prefetched back, and decoded on
// every read path must still give bit-identical gradients.
TEST(ScheduleFuzzCodecTest, AsyncStoreLosslessCodecBitIdentical) {
  std::mt19937 net_rng(4040);
  nn::LayerChain chain = models::build_mini_resnet(1, 4, 3, 1, net_rng);
  Tensor input = Tensor::randn(Shape{2, 1, 12, 12}, net_rng);
  const std::vector<std::int32_t> labels{0, 2};
  const int l = chain.size();

  const LossGradFn loss_grad = [&](const Tensor& logits) {
    const ops::SoftmaxXentResult r = ops::softmax_xent_forward(logits, labels);
    return ops::softmax_xent_backward(r.probs, labels);
  };

  auto run = [&](const Schedule& schedule, SlotStore* store) {
    chain.zero_grad();
    chain.clear_saved();
    nn::LayerChainRunner runner(chain, nn::Phase::Train);
    runner.begin_pass();
    ScheduleExecutor executor;
    const ExecutionResult result =
        store != nullptr
            ? executor.run(runner, schedule, input, loss_grad, *store)
            : executor.run(runner, schedule, input, loss_grad);
    std::vector<Tensor> grads{result.input_grad.clone()};
    for (const nn::ParamRef& p : chain.params()) {
      grads.push_back(p.grad->clone());
    }
    return grads;
  };

  const std::vector<Tensor> reference =
      run(full_storage_schedule(l), nullptr);

  const std::string dir =
      std::string(::testing::TempDir()) + "/fuzz_codec_async_store";
  std::filesystem::create_directories(dir);

  disk::DiskRevolveOptions options;
  options.ram_slots = 2;
  options.overlap_io = true;
  options.spill_bytes_ratio = planning_bytes_ratio(SlotCodec::Lossless);
  const disk::DiskRevolveSolver solver(l, options);
  const Schedule schedule = solver.make_schedule();
  ASSERT_EQ(schedule.validate(), std::nullopt) << schedule.to_string();

  AsyncDiskSlotStoreOptions store_options;
  store_options.codec = SlotCodec::Lossless;
  TieredSlotStore store(schedule.num_slots(), /*first_disk_slot=*/3, dir,
                        store_options);
  const std::vector<Tensor> grads = run(schedule, &store);
  store.flush();

  ASSERT_EQ(grads.size(), reference.size());
  for (std::size_t g = 0; g < grads.size(); ++g) {
    EXPECT_EQ(Tensor::max_abs_diff(grads[g], reference[g]), 0.0F)
        << "grad=" << g;
  }
}

// The store-configuration matrix: RAM handles, RAM codec blobs, spills and
// coded spills each replay schedules from all four scheduler families with
// gradients bit-identical to full storage, and the store's sampled resident
// peak stays within the RAM slots the abstract interpreter counts (plus the
// write/read staging budget for spilling configurations, and one mode byte
// per resting blob for the codecs' raw fallback).
struct StoreConfig {
  const char* name;
  bool spill;
  SlotCodec codec;
};

class ScheduleFuzzStoreMatrixTest
    : public ::testing::TestWithParam<StoreConfig> {};

TEST_P(ScheduleFuzzStoreMatrixTest, AllFamiliesBitIdenticalWithinInterpBound) {
  const StoreConfig config = GetParam();
  std::mt19937 net_rng(4040);
  nn::LayerChain chain = models::build_mini_resnet(1, 4, 3, 1, net_rng);
  Tensor input = Tensor::randn(Shape{2, 1, 12, 12}, net_rng);
  const std::vector<std::int32_t> labels{0, 2};
  const int l = chain.size();

  const LossGradFn loss_grad = [&](const Tensor& logits) {
    const ops::SoftmaxXentResult r = ops::softmax_xent_forward(logits, labels);
    return ops::softmax_xent_backward(r.probs, labels);
  };

  auto run = [&](const Schedule& schedule, SlotStore* store,
                 std::size_t* peak_resident) {
    chain.zero_grad();
    chain.clear_saved();
    nn::LayerChainRunner runner(chain, nn::Phase::Train);
    runner.begin_pass();
    ScheduleExecutor executor;
    ExecutorHooks hooks;
    if (store != nullptr) {
      hooks.on_action = [&](std::int64_t, const Action&) {
        *peak_resident = std::max(*peak_resident, store->resident_bytes());
      };
    }
    const ExecutionResult result =
        store != nullptr
            ? executor.run(runner, schedule, input, loss_grad, *store, hooks)
            : executor.run(runner, schedule, input, loss_grad);
    std::vector<Tensor> grads{result.input_grad.clone()};
    for (const nn::ParamRef& p : chain.params()) {
      grads.push_back(p.grad->clone());
    }
    return grads;
  };

  const std::vector<Tensor> reference =
      run(full_storage_schedule(l), nullptr, nullptr);

  // Largest boundary activation: the byte unit behind the slot bound.
  std::size_t unit_bytes = input.bytes();
  {
    chain.zero_grad();
    chain.clear_saved();
    nn::LayerChainRunner runner(chain, nn::Phase::Train);
    runner.begin_pass();
    Tensor cur = input;
    for (int i = 0; i < l; ++i) {
      cur = runner.forward(static_cast<std::int32_t>(i), cur, false);
      unit_bytes = std::max(unit_bytes, cur.bytes());
    }
  }

  // (family, schedule, first slot a spilling store puts on disk): every
  // checkpoint but the chain input, except that the two-level plan keeps
  // its own RAM slots.
  struct Case {
    std::string name;
    Schedule schedule;
    std::int32_t first_disk_slot;
  };
  std::vector<Case> cases;
  cases.push_back({"revolve(s=2)", revolve::make_schedule(l, 2), 1});
  cases.push_back({"sequential(k=3)", seq::make_schedule(l, 3), 1});
  {
    const hetero::HeteroSolver solver(
        std::vector<double>(static_cast<std::size_t>(l), 1.0), 2);
    cases.push_back({"hetero(s=2)", solver.make_schedule(2), 1});
  }
  {
    disk::DiskRevolveOptions options;
    options.ram_slots = 2;
    cases.push_back({"disk(ram=2)",
                     disk::DiskRevolveSolver(l, options).make_schedule(), 3});
  }

  const std::string dir = test::test_dir(
      std::string("fuzz_store_matrix_") + config.name);
  for (const Case& c : cases) {
    ASSERT_EQ(c.schedule.validate(), std::nullopt)
        << c.name << "\n" << c.schedule.to_string();
    AsyncDiskSlotStoreOptions store_options;
    store_options.codec = config.codec;
    const int num_slots = c.schedule.num_slots();
    std::unique_ptr<TieredSlotStore> store =
        config.spill ? std::make_unique<TieredSlotStore>(
                           num_slots, c.first_disk_slot, dir, store_options)
                     : std::make_unique<TieredSlotStore>(num_slots,
                                                         config.codec);
    std::size_t peak_resident = 0;
    const std::vector<Tensor> grads =
        run(c.schedule, store.get(), &peak_resident);
    store->flush();

    ASSERT_EQ(grads.size(), reference.size()) << c.name;
    for (std::size_t g = 0; g < grads.size(); ++g) {
      EXPECT_EQ(Tensor::max_abs_diff(grads[g], reference[g]), 0.0F)
          << c.name << " grad=" << g;
    }

    analysis::CostModel cost;
    int staging = 0;
    if (config.spill) {
      cost.first_disk_slot = c.first_disk_slot;
      cost.overlapped_io = true;
      cost.write_staging_slots = store_options.write_staging_slots;
      cost.read_staging_slots = store_options.read_staging_slots;
      staging = cost.write_staging_slots + cost.read_staging_slots;
    }
    const analysis::Report verdict =
        analysis::interpret(c.schedule, cost, analysis::Bounds{});
    EXPECT_EQ(verdict.error_count(), 0) << c.name << "\n" << verdict.summary();
    const auto resting =
        static_cast<std::size_t>(verdict.facts.peak_ram_slots_in_use + staging);
    const std::size_t mode_bytes =
        config.codec == SlotCodec::None ? 0 : resting;
    EXPECT_LE(peak_resident, resting * unit_bytes + mode_bytes)
        << c.name << " peak=" << peak_resident << " unit=" << unit_bytes
        << " resting=" << resting;
    EXPECT_GT(peak_resident, 0U) << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    StoreMatrix, ScheduleFuzzStoreMatrixTest,
    ::testing::Values(StoreConfig{"RamHandles", false, SlotCodec::None},
                      StoreConfig{"RamLossless", false, SlotCodec::Lossless},
                      StoreConfig{"RamBitmap", false, SlotCodec::Bitmap},
                      StoreConfig{"Disk", true, SlotCodec::None},
                      StoreConfig{"DiskLossless", true, SlotCodec::Lossless},
                      StoreConfig{"DiskBitmap", true, SlotCodec::Bitmap}),
    [](const ::testing::TestParamInfo<StoreConfig>& param_info) {
      return std::string(param_info.param.name);
    });

}  // namespace
}  // namespace edgetrain::core

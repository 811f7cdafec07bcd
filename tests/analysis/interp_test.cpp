// Tests for the schedule abstract interpreter: clean verdicts on every
// scheduler family (with each family's analytic bounds attached), and one
// targeted malformed schedule per invariant class.
#include "core/replay.hpp"

#include <gtest/gtest.h>

#include "core/disk_revolve.hpp"
#include "core/dynprog.hpp"
#include "core/revolve.hpp"
#include "core/schedule.hpp"
#include "core/sequential.hpp"

namespace edgetrain::analysis {
namespace {

using core::Action;
using core::ActionType;
using core::Schedule;

bool has_error(const core::Report& report, core::Check check) {
  for (const core::Finding& f : report.findings) {
    if (f.severity == core::Severity::Error && f.check == check) return true;
  }
  return false;
}

bool has_warning(const core::Report& report, core::Check check) {
  for (const core::Finding& f : report.findings) {
    if (f.severity == core::Severity::Warning && f.check == check) return true;
  }
  return false;
}

TEST(InterpRevolve, CleanUnderTightBounds) {
  for (int l = 1; l <= 12; ++l) {
    for (int s = 0; s <= l - 1 || s == 0; ++s) {
      const Schedule schedule = core::revolve::make_schedule(l, s);
      core::Bounds bounds;
      bounds.max_memory_units = s + 1;
      bounds.max_ram_slots = s + 1;
      bounds.max_total_cost = static_cast<double>(
          core::revolve::forward_cost(l, s) + l);
      const core::Report report = core::interpret(schedule, core::CostModel{}, bounds);
      ASSERT_TRUE(report.ok()) << "l=" << l << " s=" << s << "\n"
                               << report.summary();
      EXPECT_EQ(report.facts.backwards, l);
      // Revolve reverses strictly in order: every ForwardSave runs with the
      // gradient already waiting at its output, so all l saves are absorbed
      // into their Backward units (the paper's R(1, s) = 0 convention).
      EXPECT_EQ(report.facts.forward_saves, l);
      EXPECT_EQ(report.facts.absorbed_saves, l);
      if (l == 1) break;
    }
  }
}

TEST(InterpRevolve, PeakMemoryMatchesPlannerBound) {
  // The s + 1 bound is tight for the binomial schedules with s < l - 1; at
  // s = l - 1 the last state is reversed in place, never stored.
  const struct {
    int l, s;
  } cases[] = {{2, 1}, {8, 2}, {16, 3}, {32, 5}, {64, 7}};
  for (const auto& c : cases) {
    const core::Report report = core::interpret(core::revolve::make_schedule(c.l, c.s));
    const int exact = c.s == c.l - 1 ? c.s : c.s + 1;
    EXPECT_EQ(report.facts.peak_memory_units, exact)
        << "l=" << c.l << " s=" << c.s;
  }
}

TEST(InterpSequential, PeakMemoryMatchesPaperFormula) {
  for (int l = 1; l <= 20; ++l) {
    for (int seg = 1; seg <= l; ++seg) {
      const Schedule schedule = core::seq::make_schedule(l, seg);
      core::Bounds bounds;
      bounds.max_memory_units =
          static_cast<int>(core::seq::memory_units(l, seg));
      bounds.max_ram_slots = seg;
      bounds.max_total_cost =
          static_cast<double>(core::seq::forward_cost(l, seg) + l);
      const core::Report report = core::interpret(schedule, core::CostModel{}, bounds);
      ASSERT_TRUE(report.ok()) << "l=" << l << " seg=" << seg << "\n"
                               << report.summary();
      EXPECT_EQ(report.facts.peak_memory_units,
                core::seq::memory_units(l, seg))
          << "l=" << l << " seg=" << seg;
    }
  }
}

TEST(InterpHetero, CleanUnderSolverBounds) {
  const std::vector<double> costs = {1.0, 4.0, 2.0, 8.0, 1.0, 2.0, 16.0};
  const int l = static_cast<int>(costs.size());
  const core::hetero::HeteroSolver solver(costs, l - 1);
  for (int s = 0; s <= l - 1; ++s) {
    core::CostModel cost;
    cost.step_costs = costs;
    core::Bounds bounds;
    bounds.max_memory_units = s + 1;
    bounds.max_ram_slots = s + 1;
    bounds.max_total_cost = solver.forward_cost(s) + solver.sweep_cost();
    const core::Report report = core::interpret(solver.make_schedule(s), cost, bounds);
    ASSERT_TRUE(report.ok()) << "s=" << s << "\n" << report.summary();
  }
}

TEST(InterpDisk, CleanAndIoCharged) {
  core::disk::DiskRevolveOptions options;
  options.ram_slots = 1;
  options.write_cost = 0.5;
  options.read_cost = 0.5;
  const int l = 24;
  const core::disk::DiskRevolveSolver solver(l, options);
  core::CostModel cost;
  cost.first_disk_slot = options.ram_slots + 1;
  cost.disk_write_cost = options.write_cost;
  cost.disk_read_cost = options.read_cost;
  core::Bounds bounds;
  bounds.max_memory_units = options.ram_slots + 1;
  bounds.max_ram_slots = options.ram_slots + 1;
  bounds.max_total_cost = solver.forward_cost() + l;
  const core::Report report = core::interpret(solver.make_schedule(), cost, bounds);
  ASSERT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.facts.peak_disk_slots_in_use, solver.peak_disk_slots());
  if (solver.peak_disk_slots() > 0) {
    EXPECT_GT(report.facts.io_cost, 0.0);
  }
  // Disk checkpoints must not count against the RAM activation bound.
  EXPECT_LE(report.facts.peak_ram_slots_in_use, options.ram_slots + 1);
}

// --- one malformed schedule per invariant class ---------------------------

Schedule minimal_clean(std::int32_t l) {
  // Full storage: store input, save every step, reverse in order.
  Schedule sch(l, 1);
  sch.store(0, 0);
  for (std::int32_t i = 0; i < l; ++i) sch.forward_save(i);
  for (std::int32_t i = l - 1; i >= 0; --i) sch.backward(i);
  sch.free(0);
  return sch;
}

TEST(InterpFindings, CleanBaseline) {
  const core::Report report = core::interpret(minimal_clean(3));
  EXPECT_TRUE(report.ok()) << report.summary();
  // Full storage never revisits the input checkpoint; the only finding is
  // the dead-store warning pointing that out.
  EXPECT_EQ(report.error_count(), 0u) << report.summary();
  ASSERT_EQ(report.findings.size(), 1u) << report.summary();
  EXPECT_EQ(report.findings[0].check, core::Check::DeadStore);
}

TEST(InterpFindings, StepRange) {
  Schedule sch(2, 1);
  sch.store(0, 0);
  sch.forward_save(0);
  sch.forward_save(1);
  sch.backward(2);  // out of range
  sch.backward(1);
  sch.backward(0);
  sch.free(0);
  const core::Report report = core::interpret(sch);
  EXPECT_TRUE(has_error(report, core::Check::StepRange));
}

TEST(InterpFindings, ForwardState) {
  Schedule sch(2, 1);
  sch.store(0, 0);
  sch.forward_save(1);  // holds state 0, forwards step 1
  sch.forward_save(0);
  sch.backward(1);
  sch.backward(0);
  sch.free(0);
  const core::Report report = core::interpret(sch);
  EXPECT_TRUE(has_error(report, core::Check::ForwardState));
}

TEST(InterpFindings, SaveAlreadyLive) {
  Schedule sch(1, 1);
  sch.store(0, 0);
  sch.forward_save(0);
  sch.restore(0, 0);
  sch.forward_save(0);  // intermediates already live
  sch.backward(0);
  sch.free(0);
  const core::Report report = core::interpret(sch);
  EXPECT_TRUE(has_error(report, core::Check::SaveAlreadyLive));
}

TEST(InterpFindings, BackwardOrderAndLiveness) {
  Schedule sch(2, 1);
  sch.store(0, 0);
  sch.forward_save(0);
  sch.forward(1);
  sch.backward(0);  // out of order (expected 1) ...
  sch.backward(1);  // ... and step 1 was never saved
  sch.free(0);
  const core::Report report = core::interpret(sch);
  EXPECT_TRUE(has_error(report, core::Check::BackwardOrder));
  EXPECT_TRUE(has_error(report, core::Check::BackwardLiveness));
}

TEST(InterpFindings, SeedStateAndConsumedOutput) {
  // The first Backward seeds the loss from the current state, so it must
  // run at the chain output; afterwards no state is held until a Restore.
  Schedule restored(2, 1);
  restored.store(0, 0);
  restored.forward_save(0);
  restored.forward_save(1);
  restored.restore(0, 0);  // the output is no longer current
  restored.backward(1);
  restored.backward(0);
  restored.free(0);
  const core::Report seeded = core::interpret(restored);
  EXPECT_EQ(seeded.error_count(), 1u) << seeded.summary();
  EXPECT_TRUE(has_error(seeded, core::Check::SeedState));

  Schedule stored(2, 2);
  stored.store(0, 0);
  stored.forward_save(0);
  stored.forward_save(1);
  stored.backward(1);
  stored.store(2, 1);  // the loss consumed state 2
  stored.backward(0);
  stored.free(1);
  stored.free(0);
  const core::Report consumed = core::interpret(stored);
  EXPECT_TRUE(has_error(consumed, core::Check::StoreState));
  EXPECT_FALSE(has_error(consumed, core::Check::SeedState));
}

TEST(InterpFindings, SlotRange) {
  Schedule sch(1, 1);
  sch.store(0, 5);  // slot out of range
  sch.forward_save(0);
  sch.backward(0);
  const core::Report report = core::interpret(sch);
  EXPECT_TRUE(has_error(report, core::Check::SlotRange));
}

TEST(InterpFindings, StoreState) {
  Schedule sch(2, 2);
  sch.store(0, 0);
  sch.forward(0);
  sch.store(2, 1);  // holds state 1, claims state 2
  sch.forward_save(1);
  sch.backward(1);
  sch.restore(0, 0);
  sch.forward_save(0);
  sch.backward(0);
  sch.free(1);
  sch.free(0);
  const core::Report report = core::interpret(sch);
  EXPECT_TRUE(has_error(report, core::Check::StoreState));
}

TEST(InterpFindings, RestoreEmptyAndWrongState) {
  Schedule sch(2, 3);
  sch.store(0, 0);
  sch.forward(0);
  sch.store(1, 1);
  sch.forward_save(1);
  sch.backward(1);
  sch.restore(0, 2);  // slot 2 is empty
  sch.restore(0, 1);  // slot 1 holds state 1, not 0
  sch.forward_save(0);
  sch.backward(0);
  sch.free(1);
  sch.free(0);
  const core::Report report = core::interpret(sch);
  EXPECT_TRUE(has_error(report, core::Check::RestoreEmpty));
  EXPECT_TRUE(has_error(report, core::Check::RestoreState));
}

TEST(InterpFindings, RestoreAdoptsClaimedStateWithoutCascade) {
  // A single wrong-state restore must produce exactly one error, not a
  // trail of ForwardState findings downstream.
  Schedule sch(2, 2);
  sch.store(0, 0);
  sch.forward(0);
  sch.store(1, 1);
  sch.forward_save(1);
  sch.backward(1);
  sch.restore(0, 1);  // wrong: slot 1 holds state 1
  sch.forward_save(0);
  sch.backward(0);
  sch.free(1);
  sch.free(0);
  const core::Report report = core::interpret(sch);
  EXPECT_EQ(report.error_count(), 1u) << report.summary();
  EXPECT_TRUE(has_error(report, core::Check::RestoreState));
}

TEST(InterpFindings, FreeOrphan) {
  Schedule sch(2, 2);
  sch.store(0, 0);
  sch.forward(0);
  sch.store(1, 1);
  sch.forward_save(1);
  sch.backward(1);
  sch.free(0);        // orphans state 0 ...
  sch.restore(0, 0);  // ... which this restore still needs
  sch.forward_save(0);
  sch.backward(0);
  sch.free(1);
  const core::Report report = core::interpret(sch);
  EXPECT_TRUE(has_error(report, core::Check::FreeOrphan));
  EXPECT_TRUE(has_error(report, core::Check::RestoreEmpty));
}

TEST(InterpFindings, Completion) {
  Schedule sch(2, 1);
  sch.store(0, 0);
  sch.forward_save(0);
  sch.forward_save(1);
  sch.backward(1);  // step 0 never reversed
  sch.free(0);
  const core::Report report = core::interpret(sch);
  EXPECT_TRUE(has_error(report, core::Check::Completion));
}

TEST(InterpFindings, MemoryBound) {
  core::Bounds bounds;
  bounds.max_memory_units = 2;  // full storage of 3 steps peaks at 3
  const core::Report report = core::interpret(minimal_clean(3), core::CostModel{}, bounds);
  EXPECT_TRUE(has_error(report, core::Check::MemoryBound));
  EXPECT_EQ(report.facts.peak_memory_units, 3);
}

TEST(InterpFindings, SlotBound) {
  Schedule sch = core::seq::make_schedule(9, 3);
  core::Bounds bounds;
  bounds.max_ram_slots = 2;  // three segment inputs are simultaneously held
  const core::Report report = core::interpret(sch, core::CostModel{}, bounds);
  EXPECT_TRUE(has_error(report, core::Check::SlotBound));
}

TEST(InterpFindings, WorkBound) {
  core::Bounds bounds;
  bounds.max_total_cost = 5.0;  // full storage of 3 steps costs 3 + 3 - 1
  core::Report report = core::interpret(minimal_clean(3), core::CostModel{}, bounds);
  EXPECT_FALSE(has_error(report, core::Check::WorkBound)) << report.summary();
  bounds.max_total_cost = 4.0;
  report = core::interpret(minimal_clean(3), core::CostModel{}, bounds);
  EXPECT_TRUE(has_error(report, core::Check::WorkBound));
}

TEST(InterpFindings, WarningsDoNotFail) {
  Schedule sch(1, 2);
  sch.store(0, 0);
  sch.store(0, 1);  // never restored: dead store
  sch.forward_save(0);
  sch.backward(0);
  sch.free(1);
  sch.free(0);
  sch.free(0);  // already empty: redundant free
  const core::Report report = core::interpret(sch);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_TRUE(has_warning(report, core::Check::DeadStore));
  EXPECT_TRUE(has_warning(report, core::Check::RedundantFree));
}

TEST(InterpCost, PerSlotWeightedUnitsMatchHandComputedPeak) {
  // Three checkpoints resident at the peak (slots 0, 1, 2 plus one live
  // save): slot 0 is the chain input and is never charged, so with
  // per-slot ratios the weighted peak is exactly 1 + r1 + r2.
  Schedule sch(3, 3);
  sch.store(0, 0);
  sch.forward(0);
  sch.store(1, 1);
  sch.forward(1);
  sch.store(2, 2);
  sch.forward_save(2);  // peak: slots {0,1,2} occupied + live save
  sch.backward(2);
  sch.free(2);
  sch.restore(1, 1);
  sch.forward_save(1);
  sch.backward(1);
  sch.free(1);
  sch.restore(0, 0);
  sch.forward_save(0);
  sch.backward(0);
  sch.free(0);
  ASSERT_EQ(sch.validate(), std::nullopt) << sch.to_string();

  core::CostModel cost;
  cost.pricing = core::SlotPricing({0.25, 0.5}, 1.0);  // slots 1 and 2
  core::Bounds bounds;
  bounds.max_weighted_units = 1.75;
  const core::Report report = core::interpret(sch, cost, bounds);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_DOUBLE_EQ(report.facts.peak_weighted_units, 1.75);

  // The bound is tight: shaving it must trip WeightedMemoryBound.
  core::Bounds tight;
  tight.max_weighted_units = 1.75 - 1e-3;
  EXPECT_TRUE(has_error(core::interpret(sch, cost, tight),
                        core::Check::WeightedMemoryBound));

  // An all-equal measured vector must reproduce the homogeneous scalar
  // pricing exactly.
  core::CostModel scalar;
  scalar.pricing = core::SlotPricing(0.5);
  core::CostModel vec;
  vec.pricing = core::SlotPricing({0.5, 0.5}, 1.0);
  EXPECT_DOUBLE_EQ(core::interpret(sch, scalar, core::Bounds{}).facts.peak_weighted_units,
                   core::interpret(sch, vec, core::Bounds{}).facts.peak_weighted_units);

  // Slots past the measured entries cost the fill ratio.
  core::CostModel mixed;
  mixed.pricing = core::SlotPricing({0.25}, 0.5);  // slot 2 at the fill
  EXPECT_DOUBLE_EQ(
      core::interpret(sch, mixed, core::Bounds{}).facts.peak_weighted_units, 1.75);
}

TEST(InterpCost, DiskIoAccounting) {
  // One disk write + one disk read, weighted by the cost model.
  Schedule sch(2, 3);
  sch.store(0, 0);
  sch.forward(0);
  sch.store(1, 2);  // disk slot
  sch.forward_save(1);
  sch.backward(1);
  sch.restore(1, 2);
  sch.restore(0, 0);
  sch.forward_save(0);
  sch.backward(0);
  sch.free(2);
  sch.free(0);
  core::CostModel cost;
  cost.first_disk_slot = 2;
  cost.disk_write_cost = 3.0;
  cost.disk_read_cost = 5.0;
  const core::Report report = core::interpret(sch, cost);
  EXPECT_DOUBLE_EQ(report.facts.io_cost, 8.0);
  // The disk slot is excluded from RAM peaks.
  EXPECT_EQ(report.facts.peak_ram_slots_in_use, 1);
  EXPECT_EQ(report.facts.peak_disk_slots_in_use, 1);
}

// --- overlapped-IO pipeline model (CostModel::overlapped_io) --------------

TEST(InterpOverlap, TransfersHideInsideRecompute) {
  // Enough compute follows the Store (and precedes the Restore) that the
  // background worker finishes both transfers off the critical path: the
  // stall charge is exactly zero and total_cost() is pure compute, while
  // io_busy_cost still reports the work the worker did.
  Schedule sch(3, 2);
  sch.store(0, 0);
  sch.forward(0);
  sch.store(1, 1);  // disk
  sch.forward(1);
  sch.forward_save(2);
  sch.backward(2);
  sch.restore(1, 1);
  sch.forward_save(1);
  sch.backward(1);
  sch.restore(0, 0);
  sch.forward_save(0);
  sch.backward(0);
  sch.free(1);
  sch.free(0);
  core::CostModel cost;
  cost.first_disk_slot = 1;
  cost.disk_write_cost = 0.5;
  cost.disk_read_cost = 0.5;
  cost.overlapped_io = true;
  const core::Report report = core::interpret(sch, cost);
  EXPECT_EQ(report.error_count(), 0u) << report.summary();
  EXPECT_DOUBLE_EQ(report.facts.io_cost, 0.0);
  EXPECT_DOUBLE_EQ(report.facts.io_busy_cost, 1.0);
  EXPECT_DOUBLE_EQ(report.facts.total_cost(),
                   report.facts.forward_cost + report.facts.backward_cost);
  EXPECT_EQ(report.facts.peak_staged_slots, 1);

  // Prefetch disabled: the read cannot be issued until its Restore, so the
  // 0.5-unit read lands on the critical path.
  cost.read_staging_slots = 0;
  const core::Report no_prefetch = core::interpret(sch, cost);
  EXPECT_EQ(no_prefetch.error_count(), 0u) << no_prefetch.summary();
  EXPECT_DOUBLE_EQ(no_prefetch.facts.io_cost, 0.5);
}

TEST(InterpOverlap, StagingBackpressureAndFifoWaitsAreCharged) {
  // Two disk writes one compute-unit apart against a single write-staging
  // slot: the second Store stalls until the first write retires (3 units),
  // and the Restore then waits for the tail of the FIFO worker's queue
  // (7 more). Wall-clock arithmetic, fully pinned down.
  Schedule sch(2, 3);
  sch.store(0, 1);  // disk write, issued at t=0, completes at t=4
  sch.forward(0);   // t=1
  sch.store(1, 2);  // staging full -> stall to t=4; completes at t=8
  sch.forward_save(1);
  sch.backward(1);  // t=5
  sch.restore(0, 1);  // read runs t=8..12 -> stall to t=12
  sch.forward_save(0);
  sch.backward(0);  // t=13
  sch.free(2);
  sch.free(1);
  core::CostModel cost;
  cost.first_disk_slot = 1;
  cost.disk_write_cost = 4.0;
  cost.disk_read_cost = 4.0;
  cost.overlapped_io = true;
  const core::Report report = core::interpret(sch, cost);
  EXPECT_EQ(report.error_count(), 0u) << report.summary();
  EXPECT_DOUBLE_EQ(report.facts.io_cost, 10.0);
  EXPECT_DOUBLE_EQ(report.facts.io_busy_cost, 12.0);
  EXPECT_DOUBLE_EQ(report.facts.total_cost(), 13.0);
  EXPECT_EQ(report.facts.peak_staged_slots, 2);  // 1 write + 1 read buffer
}

TEST(InterpOverlap, BoundedBySerialModelAndByCompute) {
  // On real two-level schedules the pipeline model must honour its
  // soundness envelope: same transfer volume as the serial model, stalls
  // never exceeding worker busy time, wall-clock between pure compute and
  // the serial total, and staging within the configured budgets.
  for (int ram = 1; ram <= 3; ++ram) {
    for (const double io : {0.25, 1.0, 4.0}) {
      core::disk::DiskRevolveOptions options;
      options.ram_slots = ram;
      options.write_cost = io;
      options.read_cost = io;
      options.overlap_io = true;
      const core::disk::DiskRevolveSolver solver(24, options);
      const Schedule schedule = solver.make_schedule();
      core::CostModel serial;
      serial.first_disk_slot = ram + 1;
      serial.disk_write_cost = io;
      serial.disk_read_cost = io;
      core::CostModel overlapped = serial;
      overlapped.overlapped_io = true;
      const core::Report s = core::interpret(schedule, serial);
      const core::Report o = core::interpret(schedule, overlapped);
      ASSERT_EQ(o.error_count(), 0u) << o.summary();
      EXPECT_DOUBLE_EQ(o.facts.io_busy_cost, s.facts.io_cost)
          << "ram=" << ram << " io=" << io;
      EXPECT_LE(o.facts.io_cost, o.facts.io_busy_cost + 1e-9)
          << "ram=" << ram << " io=" << io;
      EXPECT_LE(o.facts.total_cost(), s.facts.total_cost() + 1e-9)
          << "ram=" << ram << " io=" << io;
      EXPECT_GE(o.facts.total_cost(),
                o.facts.forward_cost + o.facts.backward_cost - 1e-9)
          << "ram=" << ram << " io=" << io;
      EXPECT_LE(o.facts.peak_staged_slots,
                overlapped.write_staging_slots + overlapped.read_staging_slots)
          << "ram=" << ram << " io=" << io;
      EXPECT_LE(o.facts.peak_memory_units,
                s.facts.peak_memory_units + overlapped.write_staging_slots)
          << "ram=" << ram << " io=" << io;
    }
  }
}

}  // namespace
}  // namespace edgetrain::analysis

#include "core/schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/executor.hpp"

namespace edgetrain::core {
namespace {

Schedule tiny_valid_schedule() {
  // l = 2, 2 slots: store input, save-forward both steps, reverse.
  Schedule s(2, 2);
  s.store(0, 0);
  s.forward_save(0);
  s.forward_save(1);
  s.backward(1);
  s.backward(0);
  s.free(0);
  return s;
}

TEST(Schedule, ValidScheduleValidates) {
  EXPECT_EQ(tiny_valid_schedule().validate(), std::nullopt);
}

TEST(Schedule, StatsCountsActions) {
  const ScheduleStats stats = tiny_valid_schedule().stats();
  EXPECT_EQ(stats.advances, 0);
  EXPECT_EQ(stats.forward_saves, 2);
  EXPECT_EQ(stats.backwards, 2);
  EXPECT_EQ(stats.stores, 1);
  EXPECT_EQ(stats.restores, 0);
  EXPECT_EQ(stats.peak_slots_in_use, 1);
  // input slot discounted: peak units = 1 slot + 2 live saves - 1 = 2.
  EXPECT_EQ(stats.peak_memory_units, 2);
}

TEST(Schedule, FullStorageHelperValidatesAndReplaysToL) {
  for (const int l : {1, 2, 3, 5, 9, 17}) {
    const Schedule s = full_storage_schedule(l);
    EXPECT_EQ(s.validate(), std::nullopt) << "l=" << l;
    const ScheduleStats stats = s.stats();
    EXPECT_EQ(stats.advances, 0);
    EXPECT_EQ(stats.forward_saves, l);
    EXPECT_EQ(stats.backwards, l);
    EXPECT_EQ(stats.peak_memory_units, l);
    EXPECT_DOUBLE_EQ(stats.recompute_factor_strict(l), 1.0);
  }
}

TEST(Schedule, RejectsForwardFromWrongState) {
  Schedule s(2, 1);
  s.store(0, 0);
  s.forward_save(1);  // current state is 0
  const auto error = s.validate();
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("current state"), std::string::npos);
}

TEST(Schedule, RejectsBackwardWithoutSavedIntermediates) {
  Schedule s(1, 1);
  s.store(0, 0);
  s.forward(0);  // plain advance, nothing saved
  s.backward(0);
  ASSERT_TRUE(s.validate().has_value());
}

TEST(Schedule, RejectsOutOfOrderBackward) {
  Schedule s(2, 1);
  s.store(0, 0);
  s.forward_save(0);
  s.backward(0);  // must reverse step 1 first
  ASSERT_TRUE(s.validate().has_value());
}

TEST(Schedule, RejectsRestoreFromEmptySlot) {
  Schedule s(1, 2);
  s.restore(0, 1);
  ASSERT_TRUE(s.validate().has_value());
}

TEST(Schedule, RejectsRestoreOfWrongState) {
  Schedule s(2, 1);
  s.store(0, 0);
  s.forward(0);
  s.restore(1, 0);  // slot holds state 0, not 1
  ASSERT_TRUE(s.validate().has_value());
}

TEST(Schedule, RejectsSlotOutOfRange) {
  Schedule s(1, 1);
  s.store(0, 3);
  ASSERT_TRUE(s.validate().has_value());
}

TEST(Schedule, RejectsIncompleteReversal) {
  Schedule s(2, 1);
  s.store(0, 0);
  s.forward(0);
  s.forward_save(1);
  s.backward(1);
  const auto error = s.validate();
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("incomplete"), std::string::npos);
}

TEST(Schedule, RejectsDoubleForwardSaveOfLiveStep) {
  Schedule s(2, 2);
  s.store(0, 0);
  s.forward_save(0);
  s.restore(0, 0);
  s.forward_save(0);  // intermediates of step 0 already live
  ASSERT_TRUE(s.validate().has_value());
}

TEST(Schedule, ToStringMentionsEveryAction) {
  const Schedule s = tiny_valid_schedule();
  const std::string text = s.to_string();
  EXPECT_NE(text.find("Store"), std::string::npos);
  EXPECT_NE(text.find("ForwardSave"), std::string::npos);
  EXPECT_NE(text.find("Backward"), std::string::npos);
  EXPECT_NE(text.find("Free"), std::string::npos);
}

TEST(Schedule, ActionTypeNames) {
  EXPECT_EQ(to_string(ActionType::Forward), "Forward");
  EXPECT_EQ(to_string(ActionType::Restore), "Restore");
}

TEST(ScheduleStats, StrictRecomputeFactorCountsEverything) {
  Schedule s(2, 2);
  s.store(0, 0);
  s.forward(0);
  s.store(1, 1);
  s.forward_save(1);
  s.backward(1);
  s.restore(0, 0);
  s.forward_save(0);
  s.backward(0);
  EXPECT_EQ(s.validate(), std::nullopt);
  const ScheduleStats stats = s.stats();
  // (1 advance + 2 saves + 2 backwards) / 4
  EXPECT_DOUBLE_EQ(stats.recompute_factor_strict(2), 1.25);
}

TEST(SplitEmitter, SlotLessBaseReversesFromTheInput) {
  const Schedule s = emit_split_schedule(
      3, {}, 0, [](bool, int, int, int, int) { return SplitChoice{}; });
  EXPECT_EQ(s.validate(), std::nullopt);
  EXPECT_EQ(s.num_slots(), 1);
  const std::vector<Action> expected{
      {ActionType::Store, 0, 0},       {ActionType::Forward, 0, -1},
      {ActionType::Forward, 1, -1},    {ActionType::ForwardSave, 2, -1},
      {ActionType::Backward, 2, -1},   {ActionType::Restore, 0, 0},
      {ActionType::Forward, 0, -1},    {ActionType::ForwardSave, 1, -1},
      {ActionType::Backward, 1, -1},   {ActionType::Restore, 0, 0},
      {ActionType::ForwardSave, 0, -1}, {ActionType::Backward, 0, -1},
      {ActionType::Free, 0, 0}};
  EXPECT_EQ(s.actions(), expected);
}

TEST(SplitEmitter, PoolsTakeConsecutiveSlotIdsAndReuseLifo) {
  // Pool 0 owns slot 1, pool 1 slots 2..3. Every segment stores its
  // midpoint in pool 1 until the budget runs out.
  std::vector<int> levels;
  const Schedule s = emit_split_schedule(
      8, {1, 2}, 2, [&](bool, int a, int b, int budget, int level) {
        levels.push_back(level);
        if (budget == 0) return SplitChoice{};
        return SplitChoice{(a + b) / 2, 1, budget - 1};
      });
  EXPECT_EQ(s.validate(), std::nullopt);
  EXPECT_EQ(s.num_slots(), 4);
  std::int32_t max_slot = 0;
  for (const Action& a : s.actions()) {
    if (a.type == ActionType::Store) max_slot = std::max(max_slot, a.slot);
    EXPECT_NE(a.slot, 1) << "pool 0 was never chosen";
  }
  EXPECT_EQ(max_slot, 3);
  EXPECT_EQ(levels.front(), 0);
  EXPECT_NE(std::find(levels.begin(), levels.end(), 1), levels.end());
}

TEST(SplitEmitter, ExhaustedPoolThrows) {
  // Asks for a slot at every split but owns only one.
  EXPECT_THROW(
      (void)emit_split_schedule(
          4, {1}, 0,
          [](bool, int a, int b, int, int) {
            return SplitChoice{(a + b) / 2, 0, 0};
          }),
      std::logic_error);
}

}  // namespace
}  // namespace edgetrain::core

// Tests for the sweep driver and the fault injector: the quick grids are
// interpreter-clean across all four scheduler families, and every
// corruption kind is both applicable and detected (the gate has teeth).
#include "analysis/sweep.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "analysis/report.hpp"
#include "core/replay.hpp"

namespace edgetrain::analysis {
namespace {

TEST(Sweep, QuickGridsAreCleanAndCoverEveryFamily) {
  const SweepConfig config = SweepConfig::quick();
  std::map<std::string, std::int64_t> per_family;
  std::int64_t failures = 0;
  std::string first_failure;
  const std::int64_t cases = run_sweep(config, [&](const SweepCase& c) {
    ++per_family[c.family];
    const core::Report report = core::interpret(c.schedule, c.cost, c.bounds);
    if (!report.ok()) {
      ++failures;
      if (first_failure.empty()) {
        first_failure = c.family + " [" + c.name + "]\n" + report.summary();
      }
    }
  });
  EXPECT_EQ(failures, 0) << first_failure;
  EXPECT_GE(cases, 300);
  EXPECT_GT(per_family["revolve"], 0);
  EXPECT_GT(per_family["sequential"], 0);
  EXPECT_GT(per_family["hetero"], 0);
  EXPECT_GT(per_family["disk"], 0);
}

TEST(Sweep, SplitFamiliesStoreOnlyWhatTheyRestore) {
  // Every store of a split schedule is restored later, except the chain
  // input of a one-step chain. Dead stores stay a warning because the
  // other families keep them on purpose: sequential segmentation's
  // last-segment store replays to the paper's M(s), and full storage's
  // input store is the "- 1" of the peak convention.
  const std::set<std::string> split = {"revolve", "hetero", "hetero-bytes",
                                       "disk", "disk-overlap"};
  std::int64_t checked = 0;
  run_sweep(SweepConfig::quick(), [&](const SweepCase& c) {
    if (split.count(c.family) == 0 && c.family.rfind("replan-", 0) != 0) {
      return;
    }
    ++checked;
    const core::Report report = core::interpret(c.schedule, c.cost, c.bounds);
    for (const core::Finding& f : report.findings) {
      if (f.check != core::Check::DeadStore) continue;
      const core::Action& store =
          c.schedule.actions()[static_cast<std::size_t>(f.position)];
      EXPECT_EQ(store.slot, 0) << c.family << " [" << c.name << "] "
                               << f.detail;
      EXPECT_EQ(c.schedule.num_steps(), 1) << c.family << " [" << c.name
                                           << "] " << f.detail;
    }
  });
  EXPECT_GT(checked, 0);
}

TEST(Sweep, FullConfigMeetsTheThousandScheduleFloor) {
  // Count without interpreting (generation alone is cheap enough): the CI
  // gate's acceptance criterion is >= 1000 schedules per run.
  std::int64_t cases = 0;
  SweepConfig config;
  // Trim only the most expensive grid dimension (large-l tables) to keep
  // this unit test fast; the dense grids dominate the count.
  config.revolve_large_l = {128};
  config.seq_large_l = {128};
  run_sweep(config, [&](const SweepCase&) { ++cases; });
  EXPECT_GE(cases, 1000);
}

TEST(Sweep, EveryCorruptionKindIsDetectedOnQuickGrids) {
  const SweepConfig config = SweepConfig::quick();
  SweepReport report;
  run_sweep(config, [&](const SweepCase& c) {
    for (const Corruption corruption : kAllCorruptions) {
      const auto corrupted = corrupt(c, corruption);
      if (!corrupted) continue;
      report.add_injection(c, corruption,
                           core::interpret(*corrupted, c.cost, c.bounds));
    }
  });
  EXPECT_GT(report.injections_applied(), 0);
  EXPECT_TRUE(report.injections_all_detected())
      << report.injections_detected() << "/" << report.injections_applied()
      << " detected";
  // Every corruption kind must actually occur in the pool.
  std::set<std::string> applied;
  for (const InjectionRecord& r : report.injections()) {
    applied.insert(r.corruption);
  }
  for (const Corruption c : kAllCorruptions) {
    EXPECT_TRUE(applied.count(to_string(c)) == 1)
        << "corruption " << to_string(c) << " never applied";
  }
}

TEST(Sweep, CorruptionsFireTheirTargetedChecks) {
  // One representative case per family with every action pattern present.
  std::map<Corruption, core::Check> expected = {
      {Corruption::BackwardOutOfOrder, core::Check::BackwardOrder},
      {Corruption::DropForwardSave, core::Check::BackwardLiveness},
      {Corruption::RestoreWrongState, core::Check::RestoreState},
      {Corruption::EarlyFree, core::Check::FreeOrphan},
      {Corruption::ExtraStoreOverBudget, core::Check::MemoryBound},
      {Corruption::InflateWork, core::Check::WorkBound},
  };
  std::vector<SweepCase> pool;
  SweepConfig config = SweepConfig::quick();
  run_sweep(config, [&](const SweepCase& c) {
    if (c.family == "revolve" && c.schedule.num_steps() == 12) {
      pool.push_back(c);
    }
  });
  ASSERT_FALSE(pool.empty());
  for (const auto& [corruption, check] : expected) {
    bool fired = false;
    bool applied = false;
    for (const SweepCase& c : pool) {
      const auto corrupted = corrupt(c, corruption);
      if (!corrupted) continue;
      applied = true;
      const core::Report verdict = core::interpret(*corrupted, c.cost, c.bounds);
      for (const core::Finding& f : verdict.findings) {
        if (f.severity == core::Severity::Error && f.check == check) fired = true;
      }
    }
    EXPECT_TRUE(applied) << to_string(corruption) << " never applied";
    EXPECT_TRUE(fired) << to_string(corruption) << " did not fire "
                       << to_string(check);
  }
}

TEST(Sweep, ReportJsonCarriesVerdicts) {
  SweepConfig config = SweepConfig::quick();
  SweepReport report;
  std::int64_t seen = 0;
  run_sweep(config, [&](const SweepCase& c) {
    if (seen++ > 20) return;
    report.add(c, core::interpret(c.schedule, c.cost, c.bounds));
    const auto corrupted = corrupt(c, Corruption::BackwardOutOfOrder);
    if (corrupted) {
      report.add_injection(c, Corruption::BackwardOutOfOrder,
                           core::interpret(*corrupted, c.cost, c.bounds));
    }
  });
  EXPECT_TRUE(report.ok());
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"total_cases\""), std::string::npos);
  EXPECT_NE(json.find("\"families\""), std::string::npos);
  EXPECT_NE(json.find("\"revolve\""), std::string::npos);
  EXPECT_NE(json.find("\"injections\""), std::string::npos);
  EXPECT_NE(json.find("\"detected\":true"), std::string::npos);
  // Findings are also counted per family: the only revolve finding in
  // these cases is the never-restored input of the one-step chain.
  const FamilyStats& revolve = report.families().at("revolve");
  EXPECT_EQ(revolve.findings_by_check,
            (std::map<std::string, std::int64_t>{{"dead-store", 1}}));
  EXPECT_NE(json.find("\"with_warnings\":1,\"findings_by_check\":"
                      "{\"dead-store\":1}"),
            std::string::npos);

  // A failing case lands in the failures array with its findings.
  SweepReport failing;
  run_sweep(SweepConfig::quick(), [&](const SweepCase& c) {
    // Need l >= 2 so the retargeted Backward stays in step range and the
    // backward-order check (not step-range) is what fires.
    if (failing.total_cases() > 0 || c.schedule.num_steps() < 2) return;
    const auto corrupted = corrupt(c, Corruption::BackwardOutOfOrder);
    if (!corrupted) return;
    failing.add(c, core::interpret(*corrupted, c.cost, c.bounds));
  });
  ASSERT_EQ(failing.total_cases(), 1);
  EXPECT_EQ(failing.failed_cases(), 1);
  EXPECT_NE(failing.to_json().find("backward-order"), std::string::npos);
}

}  // namespace
}  // namespace edgetrain::analysis

// edgetrain: machine-readable aggregation of a schedule-lint sweep.
//
// SweepReport collects per-case interpreter verdicts (and, in injection
// mode, per-corruption detection results) into totals suitable for a CI
// gate: per-family case/failure and per-check finding counts, and a
// capped list of failing cases with their findings spelled out. to_json()
// serialises the whole report; tools/schedule_lint uploads that file as a
// CI artifact so a red gate carries its own diagnosis.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/sweep.hpp"
#include "core/replay.hpp"

namespace edgetrain::analysis {

/// One recorded schedule verdict (kept only for failing/warning cases).
struct CaseRecord {
  std::string family;
  std::string name;
  core::ScheduleStats facts;
  std::vector<core::Finding> findings;
};

/// One fault-injection outcome: did the interpreter reject the corrupted
/// schedule, and which checks fired.
struct InjectionRecord {
  std::string family;
  std::string name;
  std::string corruption;
  bool detected = false;
  std::vector<std::string> checks_fired;
};

struct FamilyStats {
  std::int64_t cases = 0;
  std::int64_t failed = 0;
  std::int64_t with_warnings = 0;
  /// Findings of this family's cases, keyed by check name.
  std::map<std::string, std::int64_t> findings_by_check;
};

/// Aggregated result of one sweep (and optional injection pass).
class SweepReport {
 public:
  /// Cap on retained failing-case details (totals are always exact).
  static constexpr std::size_t kMaxDetailedFailures = 64;

  /// Records one clean-schedule verdict.
  void add(const SweepCase& sweep_case, const core::Report& report);

  /// Records one fault-injection verdict. @p report is the interpreter's
  /// verdict on the corrupted schedule; detection means >= 1 error finding.
  void add_injection(const SweepCase& sweep_case, Corruption corruption,
                     const core::Report& report);

  [[nodiscard]] std::int64_t total_cases() const noexcept {
    return total_cases_;
  }
  [[nodiscard]] std::int64_t failed_cases() const noexcept {
    return failed_cases_;
  }
  [[nodiscard]] std::int64_t injections_applied() const noexcept {
    return static_cast<std::int64_t>(injections_.size());
  }
  [[nodiscard]] std::int64_t injections_detected() const noexcept;

  /// Gate verdict for the default (clean-sweep) mode.
  [[nodiscard]] bool ok() const noexcept { return failed_cases_ == 0; }

  /// Gate verdict for --self-check: every applied corruption detected and
  /// every corruption kind applied at least once.
  [[nodiscard]] bool injections_all_detected() const;

  [[nodiscard]] const std::map<std::string, FamilyStats>& families() const {
    return families_;
  }
  [[nodiscard]] const std::map<std::string, std::int64_t>& findings_by_check()
      const {
    return findings_by_check_;
  }
  [[nodiscard]] const std::vector<CaseRecord>& failures() const {
    return failures_;
  }
  [[nodiscard]] const std::vector<InjectionRecord>& injections() const {
    return injections_;
  }

  /// Full report as a JSON document (UTF-8, escaped, newline-terminated).
  [[nodiscard]] std::string to_json() const;

  /// Short human-readable summary for terminal output.
  [[nodiscard]] std::string summary() const;

 private:
  std::int64_t total_cases_ = 0;
  std::int64_t failed_cases_ = 0;
  std::int64_t warning_cases_ = 0;
  std::map<std::string, FamilyStats> families_;
  std::map<std::string, std::int64_t> findings_by_check_;
  std::vector<CaseRecord> failures_;
  std::vector<InjectionRecord> injections_;
};

}  // namespace edgetrain::analysis

#include "analysis/report.hpp"

#include <algorithm>
#include <set>
#include <sstream>

namespace edgetrain::analysis {

namespace {

void json_escape(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          os << "\\u00" << kHex[(c >> 4) & 0xf] << kHex[c & 0xf];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void json_facts(std::ostream& os, const core::ScheduleStats& f) {
  os << "{\"advances\":" << f.advances
     << ",\"forward_saves\":" << f.forward_saves
     << ",\"absorbed_saves\":" << f.absorbed_saves
     << ",\"backwards\":" << f.backwards << ",\"stores\":" << f.stores
     << ",\"restores\":" << f.restores << ",\"frees\":" << f.frees
     << ",\"peak_slots_in_use\":" << f.peak_slots_in_use
     << ",\"peak_ram_slots_in_use\":" << f.peak_ram_slots_in_use
     << ",\"peak_disk_slots_in_use\":" << f.peak_disk_slots_in_use
     << ",\"peak_live_saves\":" << f.peak_live_saves
     << ",\"peak_memory_units\":" << f.peak_memory_units
     << ",\"forward_cost\":" << f.forward_cost
     << ",\"backward_cost\":" << f.backward_cost
     << ",\"io_cost\":" << f.io_cost << ",\"total_cost\":" << f.total_cost()
     << '}';
}

void json_counts(std::ostream& os,
                 const std::map<std::string, std::int64_t>& counts) {
  os << '{';
  bool first = true;
  for (const auto& [key, count] : counts) {
    if (!first) os << ',';
    first = false;
    json_escape(os, key);
    os << ':' << count;
  }
  os << '}';
}

void json_findings(std::ostream& os,
                   const std::vector<core::Finding>& findings) {
  os << '[';
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const core::Finding& f = findings[i];
    if (i != 0) os << ',';
    os << "{\"severity\":"
       << (f.severity == core::Severity::Error ? "\"error\"" : "\"warning\"")
       << ",\"check\":";
    json_escape(os, core::to_string(f.check));
    os << ",\"position\":" << f.position << ",\"detail\":";
    json_escape(os, f.detail);
    os << '}';
  }
  os << ']';
}

}  // namespace

void SweepReport::add(const SweepCase& sweep_case,
                      const core::Report& report) {
  ++total_cases_;
  FamilyStats& fam = families_[sweep_case.family];
  ++fam.cases;
  bool has_error = false;
  bool has_warning = false;
  for (const core::Finding& f : report.findings) {
    ++findings_by_check_[core::to_string(f.check)];
    ++fam.findings_by_check[core::to_string(f.check)];
    if (f.severity == core::Severity::Error) {
      has_error = true;
    } else {
      has_warning = true;
    }
  }
  if (has_error) {
    ++failed_cases_;
    ++fam.failed;
    if (failures_.size() < kMaxDetailedFailures) {
      failures_.push_back(CaseRecord{sweep_case.family, sweep_case.name,
                                     report.facts, report.findings});
    }
  }
  if (has_warning) {
    ++warning_cases_;
    ++fam.with_warnings;
  }
}

void SweepReport::add_injection(const SweepCase& sweep_case,
                                Corruption corruption,
                                const core::Report& report) {
  InjectionRecord record;
  record.family = sweep_case.family;
  record.name = sweep_case.name;
  record.corruption = to_string(corruption);
  for (const core::Finding& f : report.findings) {
    if (f.severity != core::Severity::Error) continue;
    record.detected = true;
    const std::string check = core::to_string(f.check);
    if (std::find(record.checks_fired.begin(), record.checks_fired.end(),
                  check) == record.checks_fired.end()) {
      record.checks_fired.push_back(check);
    }
  }
  injections_.push_back(std::move(record));
}

std::int64_t SweepReport::injections_detected() const noexcept {
  std::int64_t n = 0;
  for (const InjectionRecord& r : injections_) {
    if (r.detected) ++n;
  }
  return n;
}

bool SweepReport::injections_all_detected() const {
  if (injections_.empty()) return false;
  std::set<std::string> applied;
  for (const InjectionRecord& r : injections_) {
    if (!r.detected) return false;
    applied.insert(r.corruption);
  }
  for (const Corruption c : kAllCorruptions) {
    if (applied.count(to_string(c)) == 0) return false;
  }
  return true;
}

std::string SweepReport::to_json() const {
  std::ostringstream os;
  os << "{\"total_cases\":" << total_cases_
     << ",\"failed_cases\":" << failed_cases_
     << ",\"warning_cases\":" << warning_cases_ << ",\"families\":{";
  bool first = true;
  for (const auto& [name, stats] : families_) {
    if (!first) os << ',';
    first = false;
    json_escape(os, name);
    os << ":{\"cases\":" << stats.cases << ",\"failed\":" << stats.failed
       << ",\"with_warnings\":" << stats.with_warnings
       << ",\"findings_by_check\":";
    json_counts(os, stats.findings_by_check);
    os << '}';
  }
  os << "},\"findings_by_check\":";
  json_counts(os, findings_by_check_);
  os << ",\"failures\":[";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    const CaseRecord& r = failures_[i];
    if (i != 0) os << ',';
    os << "{\"family\":";
    json_escape(os, r.family);
    os << ",\"name\":";
    json_escape(os, r.name);
    os << ",\"facts\":";
    json_facts(os, r.facts);
    os << ",\"findings\":";
    json_findings(os, r.findings);
    os << '}';
  }
  os << "],\"injections\":{\"applied\":" << injections_applied()
     << ",\"detected\":" << injections_detected() << ",\"records\":[";
  for (std::size_t i = 0; i < injections_.size(); ++i) {
    const InjectionRecord& r = injections_[i];
    if (i != 0) os << ',';
    os << "{\"family\":";
    json_escape(os, r.family);
    os << ",\"name\":";
    json_escape(os, r.name);
    os << ",\"corruption\":";
    json_escape(os, r.corruption);
    os << ",\"detected\":" << (r.detected ? "true" : "false")
       << ",\"checks_fired\":[";
    for (std::size_t k = 0; k < r.checks_fired.size(); ++k) {
      if (k != 0) os << ',';
      json_escape(os, r.checks_fired[k]);
    }
    os << "]}";
  }
  os << "]}}\n";
  return os.str();
}

std::string SweepReport::summary() const {
  std::ostringstream os;
  os << "schedule_lint: " << total_cases_ << " schedules, " << failed_cases_
     << " failed, " << warning_cases_ << " with warnings\n";
  for (const auto& [name, stats] : families_) {
    os << "  " << name << ": " << stats.cases << " cases, " << stats.failed
       << " failed";
    for (const auto& [check, count] : stats.findings_by_check) {
      os << ", " << count << ' ' << check;
    }
    os << '\n';
  }
  if (!injections_.empty()) {
    os << "  injections: " << injections_detected() << '/'
       << injections_applied() << " detected\n";
  }
  for (const CaseRecord& r : failures_) {
    os << "FAIL " << r.family << " [" << r.name << "]\n";
    for (const core::Finding& f : r.findings) {
      if (f.severity != core::Severity::Error) continue;
      os << "  " << core::to_string(f.check) << " at action " << f.position
         << ": " << f.detail << '\n';
    }
  }
  return os.str();
}

}  // namespace edgetrain::analysis

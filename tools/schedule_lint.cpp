// edgetrain: schedule_lint -- the CI gate for checkpointing schedules.
//
// Runs the abstract interpreter (src/analysis) over an exhaustive parameter
// sweep of every scheduler family and exits nonzero when any schedule
// violates an invariant or an analytic bound. Modes:
//
//   schedule_lint [--out report.json]        full sweep, fail on any error
//   schedule_lint --quick                    reduced grids (unit-test sized)
//   schedule_lint --inject                   lint deliberately corrupted
//                                            schedules: MUST exit nonzero
//                                            (CTest registers it WILL_FAIL)
//   schedule_lint --self-check               verify every corruption kind is
//                                            applied and detected; exit 0
//                                            only when the gate has teeth
//   schedule_lint --verbose                  per-family progress on stderr
//
// The full sweep covers > 1000 schedules (binomial Revolve dense grids and
// large-l slot/rho grids, uniform segmentation, heterogeneous per-step-cost
// DP over uniform slots and byte budgets, two-level RAM+disk Revolve) in a
// few seconds of wall clock.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "analysis/report.hpp"
#include "analysis/sweep.hpp"
#include "core/replay.hpp"

namespace {

using edgetrain::core::Bounds;
using edgetrain::analysis::Corruption;
using edgetrain::analysis::kAllCorruptions;
using edgetrain::core::Report;
using edgetrain::analysis::SweepCase;
using edgetrain::analysis::SweepConfig;
using edgetrain::analysis::SweepReport;

/// The acceptance floor for the full sweep; the gate fails if the grids
/// ever shrink below it.
constexpr std::int64_t kMinFullSweepCases = 1000;

struct Options {
  std::string out_path;
  bool quick = false;
  bool inject = false;
  bool self_check = false;
  bool verbose = false;
};

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--out <report.json>] [--quick] [--inject] [--self-check]"
               " [--verbose]\n";
  return 2;
}

bool write_report(const SweepReport& report, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::cerr << "schedule_lint: cannot open " << path << " for writing\n";
    return false;
  }
  out << report.to_json();
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out") {
      if (i + 1 >= argc) return usage(argv[0]);
      opt.out_path = argv[++i];
    } else if (arg == "--quick") {
      opt.quick = true;
    } else if (arg == "--inject") {
      opt.inject = true;
    } else if (arg == "--self-check") {
      opt.self_check = true;
    } else if (arg == "--verbose") {
      opt.verbose = true;
    } else {
      std::cerr << "schedule_lint: unknown flag " << arg << '\n';
      return usage(argv[0]);
    }
  }
  if (opt.inject && opt.self_check) {
    std::cerr << "schedule_lint: --inject and --self-check are exclusive\n";
    return usage(argv[0]);
  }

  const SweepConfig config =
      opt.quick ? SweepConfig::quick() : SweepConfig::full();
  SweepReport report;
  std::string last_family;

  const std::int64_t cases =
      run_sweep(config, [&](const SweepCase& sweep_case) {
        if (opt.verbose && sweep_case.family != last_family) {
          last_family = sweep_case.family;
          std::cerr << "schedule_lint: sweeping " << last_family << "...\n";
        }
        if (opt.inject || opt.self_check) {
          for (const Corruption corruption : kAllCorruptions) {
            const auto corrupted = edgetrain::analysis::corrupt(sweep_case,
                                                                corruption);
            if (!corrupted) continue;
            const Report verdict = edgetrain::core::interpret(
                *corrupted, sweep_case.cost, sweep_case.bounds);
            if (opt.inject) {
              // Injection mode lints the corrupted schedule as if it were
              // real: detections count as failures, so a healthy
              // interpreter makes this mode exit nonzero.
              report.add(sweep_case, verdict);
            } else {
              report.add_injection(sweep_case, corruption, verdict);
            }
          }
          return;
        }
        report.add(sweep_case, edgetrain::core::interpret(
                                   sweep_case.schedule, sweep_case.cost,
                                   sweep_case.bounds));
      });

  if (!opt.out_path.empty() && !write_report(report, opt.out_path)) return 2;
  std::cout << report.summary();

  if (opt.self_check) {
    const bool teeth = report.injections_all_detected();
    std::cout << "self-check: "
              << (teeth ? "every corruption kind detected"
                        : "UNDETECTED corruption -- the gate is blind")
              << '\n';
    return teeth ? 0 : 1;
  }
  if (!opt.inject && !opt.quick && cases < kMinFullSweepCases) {
    std::cerr << "schedule_lint: sweep shrank to " << cases << " cases (< "
              << kMinFullSweepCases << ")\n";
    return 1;
  }
  return report.ok() ? 0 : 1;
}

#include "analysis/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <sstream>

#include "core/disk_revolve.hpp"
#include "core/dynprog.hpp"
#include "core/revolve.hpp"
#include "core/sequential.hpp"

namespace edgetrain::analysis {

namespace {

std::string case_name(const char* family, std::initializer_list<
                                              std::pair<const char*, double>>
                                              params) {
  std::ostringstream os;
  os << family;
  for (const auto& [key, value] : params) {
    os << ' ' << key << '=';
    if (value == std::floor(value) && std::abs(value) < 1e15) {
      os << static_cast<std::int64_t>(value);
    } else {
      os << value;
    }
  }
  return os.str();
}

std::int64_t sweep_revolve(const SweepConfig& config,
                           const CaseVisitor& visit) {
  std::int64_t count = 0;
  auto emit = [&](const core::revolve::RevolveTable& table, int l, int s,
                  std::optional<double> rho_target) {
    s = std::clamp(s, 0, std::min(table.max_free_slots(), l - 1));
    SweepCase c;
    c.family = "revolve";
    const std::int64_t fwd = table.forward_cost(l, s);
    const double exact_cost = static_cast<double>(fwd + l);
    if (rho_target) {
      c.name = case_name("revolve", {{"l", static_cast<double>(l)},
                                     {"rho", *rho_target},
                                     {"s", static_cast<double>(s)}});
      // The paper's promise: work <= 2 rho l whenever the target was
      // achievable within the table; otherwise the DP optimum is the bound.
      const double budget = 2.0 * *rho_target * static_cast<double>(l);
      c.bounds.max_total_cost = std::max(budget, exact_cost);
    } else {
      c.name = case_name("revolve", {{"l", static_cast<double>(l)},
                                     {"s", static_cast<double>(s)}});
      c.bounds.max_total_cost = exact_cost;
    }
    c.bounds.max_memory_units = s + 1;
    c.bounds.max_ram_slots = s + 1;
    // Codec-weighted accounting at the fp16 planning ratio: Revolve holds
    // at most one live save, so the planner's 1 + ratio * s peak is a
    // sound (and tight) bound for compressed resting checkpoints.
    c.cost.slot_bytes_ratio = 0.5;
    c.bounds.max_weighted_units = 1.0 + 0.5 * static_cast<double>(s);
    c.schedule = core::revolve::make_schedule(table, l, s);
    visit(c);
    ++count;
  };

  for (int l = 1; l <= config.revolve_dense_max_l; ++l) {
    const core::revolve::RevolveTable table(l, std::max(l - 1, 0));
    for (int s = 0; s <= std::max(l - 1, 0); ++s) {
      emit(table, l, s, std::nullopt);
    }
  }
  for (const int l : config.revolve_large_l) {
    int cap = config.rho_slot_cap;
    for (const int s : config.revolve_large_s) cap = std::max(cap, s);
    cap = std::min(cap, l - 1);
    const core::revolve::RevolveTable table(l, std::max(cap, 0));
    for (const int s : config.revolve_large_s) {
      if (s > l - 1) continue;
      emit(table, l, s, std::nullopt);
    }
    for (const double rho : config.rho_targets) {
      const int s = core::revolve::min_free_slots_for_rho(table, l, rho);
      emit(table, l, std::min(s, cap), rho);
    }
  }
  return count;
}

std::int64_t sweep_sequential(const SweepConfig& config,
                              const CaseVisitor& visit) {
  std::int64_t count = 0;
  auto emit = [&](int l, int segments) {
    SweepCase c;
    c.family = "sequential";
    c.name = case_name("sequential", {{"l", static_cast<double>(l)},
                                      {"segments",
                                       static_cast<double>(segments)}});
    c.bounds.max_memory_units =
        static_cast<int>(core::seq::memory_units(l, segments));
    c.bounds.max_ram_slots = segments;
    c.bounds.max_total_cost =
        static_cast<double>(core::seq::forward_cost(l, segments) + l);
    c.schedule = core::seq::make_schedule(l, segments);
    visit(c);
    ++count;
  };
  for (int l = 1; l <= config.seq_dense_max_l; ++l) {
    for (int seg = 1; seg <= std::min(l, config.seq_segment_cap); ++seg) {
      emit(l, seg);
    }
  }
  for (const int l : config.seq_large_l) {
    for (int seg = 1; seg <= std::min(l, config.seq_segment_cap); ++seg) {
      emit(l, seg);
    }
  }
  return count;
}

/// Three per-step cost shapes: homogeneous, linear ramp, and a staged
/// profile that doubles across four "network stages" (the ResNet pattern
/// the heterogeneous solver exists for).
std::vector<double> hetero_costs(int l, int profile) {
  std::vector<double> costs(static_cast<std::size_t>(l), 1.0);
  for (int i = 0; i < l; ++i) {
    switch (profile) {
      case 0: break;
      case 1:
        costs[static_cast<std::size_t>(i)] = 1.0 + i;
        break;
      default: {
        const int stage = l <= 1 ? 0 : (4 * i) / l;
        costs[static_cast<std::size_t>(i)] =
            static_cast<double>(1 << stage);
        break;
      }
    }
  }
  return costs;
}

std::int64_t sweep_hetero(const SweepConfig& config,
                          const CaseVisitor& visit) {
  std::int64_t count = 0;
  for (int l = 1; l <= config.hetero_max_l; ++l) {
    for (int profile = 0; profile < 3; ++profile) {
      std::vector<double> costs = hetero_costs(l, profile);
      const int max_s = std::min(config.hetero_max_s, std::max(l - 1, 0));
      const core::hetero::HeteroSolver solver(costs, max_s);
      for (int s = 0; s <= max_s; ++s) {
        SweepCase c;
        c.family = "hetero";
        c.name = case_name("hetero", {{"l", static_cast<double>(l)},
                                      {"profile",
                                       static_cast<double>(profile)},
                                      {"s", static_cast<double>(s)}});
        c.cost.step_costs = costs;
        c.bounds.max_memory_units = s + 1;
        c.bounds.max_ram_slots = s + 1;
        c.bounds.max_total_cost =
            solver.forward_cost(s) + solver.sweep_cost();
        c.schedule = solver.make_schedule(s);
        visit(c);
        ++count;
      }
    }
  }
  return count;
}

std::int64_t sweep_disk(const SweepConfig& config, const CaseVisitor& visit) {
  std::int64_t count = 0;
  for (const int l : config.disk_l) {
    for (const int ram : config.disk_ram_slots) {
      for (std::size_t io = 0; io < config.disk_io_costs.size(); ++io) {
        for (const bool allow_disk : {true, false}) {
          // The disk-disabled degenerate (single-level Revolve) does not
          // depend on the IO point; emit it once.
          if (!allow_disk && io != 0) continue;
          core::disk::DiskRevolveOptions options;
          options.ram_slots = ram;
          options.write_cost = config.disk_io_costs[io];
          options.read_cost = config.disk_io_costs[io];
          options.allow_disk = allow_disk;
          const core::disk::DiskRevolveSolver solver(l, options);
          const int rs = solver.options().ram_slots;  // clamped to l-1
          SweepCase c;
          c.family = "disk";
          c.name = case_name(
              "disk", {{"l", static_cast<double>(l)},
                       {"ram", static_cast<double>(rs)},
                       {"io", options.write_cost},
                       {"disk", allow_disk ? 1.0 : 0.0}});
          c.cost.first_disk_slot = rs + 1;
          c.cost.disk_write_cost = options.write_cost;
          c.cost.disk_read_cost = options.read_cost;
          c.bounds.max_memory_units = rs + 1;
          c.bounds.max_ram_slots = rs + 1;
          // Two-level Revolve also keeps a single live save; RAM-resting
          // checkpoints compressed at the fp16 ratio obey 1 + ratio * rs.
          c.cost.slot_bytes_ratio = 0.5;
          c.bounds.max_weighted_units = 1.0 + 0.5 * static_cast<double>(rs);
          c.bounds.max_total_cost = solver.forward_cost() + l;
          c.schedule = solver.make_schedule();
          visit(c);
          ++count;

          if (!allow_disk) continue;
          // Overlapped variant: the same grid point solved with async-IO
          // pricing and interpreted under the pipeline model (the
          // TieredSlotStore configuration). The overlap DP is an
          // optimistic planning heuristic, so the sound wall-clock bound
          // is the *serial* total of the emitted schedule -- stalls only
          // accrue while the worker is busy, so the pipeline can never be
          // slower than compute + full IO. Staging (one write-behind slot)
          // is extra RAM on top of the planner's activation bound.
          core::disk::DiskRevolveOptions ov_options = options;
          ov_options.overlap_io = true;
          const core::disk::DiskRevolveSolver ov_solver(l, ov_options);
          const int ov_rs = ov_solver.options().ram_slots;
          SweepCase oc;
          oc.family = "disk-overlap";
          oc.name = case_name(
              "disk-overlap", {{"l", static_cast<double>(l)},
                               {"ram", static_cast<double>(ov_rs)},
                               {"io", ov_options.write_cost}});
          oc.cost.first_disk_slot = ov_rs + 1;
          oc.cost.disk_write_cost = ov_options.write_cost;
          oc.cost.disk_read_cost = ov_options.read_cost;
          oc.cost.overlapped_io = true;
          oc.cost.write_staging_slots = 1;
          oc.cost.read_staging_slots = 1;
          oc.schedule = ov_solver.make_schedule();
          CostModel serial = oc.cost;
          serial.overlapped_io = false;
          const Report serial_report =
              interpret(oc.schedule, serial, Bounds{});
          oc.bounds.max_total_cost = serial_report.facts.total_cost();
          oc.bounds.max_memory_units =
              ov_rs + 1 + oc.cost.write_staging_slots;
          oc.bounds.max_ram_slots = ov_rs + 1;
          // Staged write-behind blobs are encoded too (the async store
          // compresses at put), so staging joins the weighted term.
          oc.cost.slot_bytes_ratio = 0.5;
          oc.bounds.max_weighted_units =
              1.0 + 0.5 * static_cast<double>(ov_rs +
                                              oc.cost.write_staging_slots);
          visit(oc);
          ++count;
        }
      }
    }
  }
  return count;
}

/// Deterministic "measured" bitmap ratios: the achieved compression of
/// post-ReLU activations at 45..95% sparsity, cycling by checkpoint
/// ordinal. Heterogeneous on purpose -- the per-slot accounting must not
/// degenerate to a mean.
double pseudo_measured_ratio(int k) {
  constexpr double kRatios[] = {0.13, 0.31, 0.55, 0.82, 1.0, 0.22};
  return kRatios[static_cast<std::size_t>(k) % std::size(kRatios)];
}

/// Re-planned schedules: the slot count is re-solved from measured
/// per-slot ratios (the AdaptiveReplanner path) and the emitted schedule
/// must obey the per-slot weighted prefix-sum bound -- the gate the issue
/// adds for dynamic-ratio codecs. Covers single-level Revolve plus the
/// serial and overlapped two-level families.
std::int64_t sweep_replan(const SweepConfig& config,
                          const CaseVisitor& visit) {
  std::int64_t count = 0;
  for (const int l : config.replan_l) {
    if (l < 2) continue;
    std::vector<double> measured(static_cast<std::size_t>(l - 1));
    for (int k = 0; k < l - 1; ++k) {
      measured[static_cast<std::size_t>(k)] = pseudo_measured_ratio(k);
    }
    for (const int target : config.replan_target_slots) {
      if (target > l - 1) continue;
      // Capacity sized (act = 1, fixed = 0) to exactly afford the first
      // `target` measured slots: the re-solve must pick s = target.
      double prefix = 0.0;
      for (int k = 0; k < target; ++k) {
        prefix += measured[static_cast<std::size_t>(k)];
      }
      const double capacity = 1.0 + prefix + 1e-9;
      const int s = core::revolve::max_free_slots_for_bytes(
          capacity, 0.0, 1.0, measured, 1.0);
      SweepCase c;
      c.family = "replan-revolve";
      c.name = case_name("replan-revolve",
                         {{"l", static_cast<double>(l)},
                          {"s", static_cast<double>(s)}});
      c.cost.slot_bytes_ratios.assign(static_cast<std::size_t>(s) + 1, 1.0);
      double bound = 1.0;
      for (int slot = 1; slot <= s; ++slot) {
        const double ratio = measured[static_cast<std::size_t>(slot - 1)];
        c.cost.slot_bytes_ratios[static_cast<std::size_t>(slot)] = ratio;
        bound += ratio;
      }
      c.bounds.max_memory_units = s + 1;
      c.bounds.max_ram_slots = s + 1;
      c.bounds.max_weighted_units = bound;
      c.schedule = core::revolve::make_schedule(l, s);
      visit(c);
      ++count;
    }

    for (const int ram : config.replan_ram_slots) {
      for (const bool overlap : {false, true}) {
        core::disk::DiskRevolveOptions options;
        options.ram_slots = ram;
        options.write_cost = 2.0;
        options.read_cost = 2.0;
        options.overlap_io = overlap;
        // Measured spill ratios of the disk slots a previous pass filled:
        // the DP prices IO at their mean; the interpreter still charges
        // each slot its own ratio.
        options.spill_slot_ratios = {0.2, 0.5, 0.35};
        const core::disk::DiskRevolveSolver solver(l, options);
        const int rs = solver.options().ram_slots;
        const double disk_ratio = 0.5;  // >= every spill_slot_ratios entry
        SweepCase c;
        c.family = overlap ? "replan-disk-overlap" : "replan-disk";
        c.name = case_name(c.family.c_str(),
                           {{"l", static_cast<double>(l)},
                            {"ram", static_cast<double>(rs)}});
        c.cost.first_disk_slot = rs + 1;
        c.cost.disk_write_cost = options.write_cost;
        c.cost.disk_read_cost = options.read_cost;
        c.schedule = solver.make_schedule();
        c.cost.slot_bytes_ratios.assign(
            static_cast<std::size_t>(c.schedule.num_slots()), disk_ratio);
        c.cost.slot_bytes_ratios[0] = 1.0;
        double ram_sum = 0.0;
        for (int slot = 1; slot <= rs; ++slot) {
          const double ratio = pseudo_measured_ratio(slot - 1);
          c.cost.slot_bytes_ratios[static_cast<std::size_t>(slot)] = ratio;
          ram_sum += ratio;
        }
        c.bounds.max_ram_slots = rs + 1;
        if (overlap) {
          c.cost.overlapped_io = true;
          c.cost.write_staging_slots = 1;
          c.cost.read_staging_slots = 1;
          c.bounds.max_memory_units =
              rs + 1 + c.cost.write_staging_slots;
          // Staged write-behind blobs are charged at their target disk
          // slot's ratio, all equal to disk_ratio here.
          c.bounds.max_weighted_units =
              1.0 + ram_sum +
              disk_ratio * static_cast<double>(c.cost.write_staging_slots);
        } else {
          c.bounds.max_memory_units = rs + 1;
          c.bounds.max_weighted_units = 1.0 + ram_sum;
        }
        visit(c);
        ++count;
      }
    }
  }
  return count;
}

}  // namespace

SweepConfig SweepConfig::quick() {
  SweepConfig config;
  config.revolve_dense_max_l = 16;
  config.revolve_large_l = {96};
  config.revolve_large_s = {4, 8};
  config.rho_targets = {1.5, 2.5};
  config.rho_slot_cap = 24;
  config.seq_dense_max_l = 16;
  config.seq_large_l = {128};
  config.seq_segment_cap = 8;
  config.hetero_max_l = 8;
  config.hetero_max_s = 3;
  config.disk_l = {1, 2, 5, 9, 16};
  config.disk_ram_slots = {0, 2};
  config.disk_io_costs = {2.0};
  config.replan_l = {6, 12};
  config.replan_target_slots = {1, 3};
  config.replan_ram_slots = {2};
  return config;
}

std::int64_t run_sweep(const SweepConfig& config, const CaseVisitor& visit) {
  std::int64_t count = 0;
  count += sweep_revolve(config, visit);
  count += sweep_sequential(config, visit);
  count += sweep_hetero(config, visit);
  count += sweep_disk(config, visit);
  count += sweep_replan(config, visit);
  return count;
}

std::string to_string(Corruption corruption) {
  switch (corruption) {
    case Corruption::BackwardOutOfOrder: return "backward-out-of-order";
    case Corruption::DropForwardSave: return "drop-forward-save";
    case Corruption::RestoreWrongState: return "restore-wrong-state";
    case Corruption::EarlyFree: return "early-free";
    case Corruption::ExtraStoreOverBudget: return "extra-store-over-budget";
    case Corruption::InflateWork: return "inflate-work";
  }
  return "?";
}

namespace {

using core::Action;
using core::ActionType;
using core::Schedule;

Schedule with_actions(const Schedule& original,
                      const std::vector<Action>& actions, int extra_slots) {
  Schedule out(original.num_steps(), original.num_slots() + extra_slots);
  for (const Action& a : actions) out.push(a);
  return out;
}

std::optional<Schedule> corrupt_backward(const Schedule& schedule) {
  std::vector<Action> actions = schedule.actions();
  for (Action& a : actions) {
    if (a.type == ActionType::Backward) {
      a.index = a.index > 0 ? a.index - 1 : a.index + 1;
      return with_actions(schedule, actions, 0);
    }
  }
  return std::nullopt;
}

std::optional<Schedule> corrupt_drop_save(const Schedule& schedule) {
  std::vector<Action> actions = schedule.actions();
  // Prefer a save whose very next action is its own Backward: demoting it
  // leaves that Backward provably without intermediates.
  for (std::size_t i = 0; i + 1 < actions.size(); ++i) {
    if (actions[i].type == ActionType::ForwardSave &&
        actions[i + 1].type == ActionType::Backward &&
        actions[i + 1].index == actions[i].index) {
      actions[i].type = ActionType::Forward;
      return with_actions(schedule, actions, 0);
    }
  }
  return std::nullopt;
}

std::optional<Schedule> corrupt_restore_state(const Schedule& schedule) {
  std::vector<Action> actions = schedule.actions();
  for (Action& a : actions) {
    if (a.type == ActionType::Restore) {
      a.index += 1;
      return with_actions(schedule, actions, 0);
    }
  }
  return std::nullopt;
}

std::optional<Schedule> corrupt_early_free(const Schedule& schedule) {
  const std::vector<Action>& actions = schedule.actions();
  for (std::size_t i = 0; i < actions.size(); ++i) {
    if (actions[i].type == ActionType::Restore) {
      std::vector<Action> mutated(actions.begin(),
                                  actions.begin() +
                                      static_cast<std::ptrdiff_t>(i));
      mutated.push_back(Action{ActionType::Free, 0, actions[i].slot});
      mutated.insert(mutated.end(),
                     actions.begin() + static_cast<std::ptrdiff_t>(i),
                     actions.end());
      return with_actions(schedule, mutated, 0);
    }
  }
  return std::nullopt;
}

std::optional<Schedule> corrupt_extra_store(const SweepCase& sweep_case) {
  if (!sweep_case.bounds.max_memory_units) return std::nullopt;
  const Schedule& schedule = sweep_case.schedule;
  if (schedule.num_steps() < 1) return std::nullopt;
  // The injected slot id must count as RAM under the case's cost model, or
  // it would not press on the RAM activation bound (two-level cases class
  // high slot ids as disk).
  if (sweep_case.cost.first_disk_slot <= schedule.num_slots()) {
    return std::nullopt;
  }
  // Occupy one slot beyond the planner's budget for the whole program: the
  // peak rises by exactly one unit above the (tight) analytic bound.
  std::vector<Action> actions;
  actions.reserve(schedule.actions().size() + 1);
  actions.push_back(Action{ActionType::Store, 0, schedule.num_slots()});
  actions.insert(actions.end(), schedule.actions().begin(),
                 schedule.actions().end());
  return with_actions(schedule, actions, 1);
}

std::optional<Schedule> corrupt_inflate_work(const SweepCase& sweep_case) {
  if (!sweep_case.bounds.max_total_cost) return std::nullopt;
  const Schedule& schedule = sweep_case.schedule;
  const std::vector<Action>& actions = schedule.actions();
  for (std::size_t i = 0; i < actions.size(); ++i) {
    if (actions[i].type != ActionType::Restore) continue;
    const Action& restore = actions[i];
    if (restore.index >= schedule.num_steps()) continue;
    // Budget-aware churn: advance one step off the checkpoint and restore
    // again until the charged work provably exceeds the promise.
    const Report clean = interpret(schedule, sweep_case.cost, Bounds{});
    // Under the overlapped model a restore's read may hide entirely under
    // compute, and the injected compute can even *shrink* the original
    // schedule's stalls (the worker gets more slack). The only guaranteed
    // floor on the corrupted wall-clock is the compute alone, and the only
    // guaranteed increment per injected pair is the forward's step cost.
    const double pair_cost =
        sweep_case.cost.step_cost(restore.index) +
        (!sweep_case.cost.overlapped_io &&
                 sweep_case.cost.is_disk_slot(restore.slot)
             ? sweep_case.cost.disk_read_cost
             : 0.0);
    const double guaranteed_base =
        sweep_case.cost.overlapped_io
            ? clean.facts.forward_cost + clean.facts.backward_cost
            : clean.facts.total_cost();
    const double deficit =
        *sweep_case.bounds.max_total_cost - guaranteed_base;
    const auto pairs = static_cast<std::int64_t>(
        std::ceil(std::max(deficit, 0.0) / std::max(pair_cost, 1e-9))) + 1;
    std::vector<Action> mutated(actions.begin(),
                                actions.begin() +
                                    static_cast<std::ptrdiff_t>(i + 1));
    for (std::int64_t p = 0; p < pairs; ++p) {
      mutated.push_back(Action{ActionType::Forward, restore.index, -1});
      mutated.push_back(restore);
    }
    mutated.insert(mutated.end(),
                   actions.begin() + static_cast<std::ptrdiff_t>(i + 1),
                   actions.end());
    return with_actions(schedule, mutated, 0);
  }
  return std::nullopt;
}

}  // namespace

std::optional<Schedule> corrupt(const SweepCase& sweep_case,
                                Corruption corruption) {
  switch (corruption) {
    case Corruption::BackwardOutOfOrder:
      return corrupt_backward(sweep_case.schedule);
    case Corruption::DropForwardSave:
      return corrupt_drop_save(sweep_case.schedule);
    case Corruption::RestoreWrongState:
      return corrupt_restore_state(sweep_case.schedule);
    case Corruption::EarlyFree:
      return corrupt_early_free(sweep_case.schedule);
    case Corruption::ExtraStoreOverBudget:
      return corrupt_extra_store(sweep_case);
    case Corruption::InflateWork:
      return corrupt_inflate_work(sweep_case);
  }
  return std::nullopt;
}

}  // namespace edgetrain::analysis

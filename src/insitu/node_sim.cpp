#include "insitu/node_sim.hpp"

#include <algorithm>

#include "nn/trainer.hpp"

namespace edgetrain::insitu {

namespace {

/// Mean accuracy of @p model over viewpoint bins of the frame.
double eval_over_bins(PatchClassifier& model, SceneSimulator& sim,
                      const NodeSimConfig& config) {
  double total = 0.0;
  const float width = static_cast<float>(config.scene.frame_width);
  for (int bin = 0; bin < config.eval_bins; ++bin) {
    const float x = width * (static_cast<float>(bin) + 0.5F) /
                    static_cast<float>(config.eval_bins);
    PatchDataset eval_data(config.harvest.patch);
    for (std::int32_t label = 0; label < config.scene.num_classes; ++label) {
      for (int i = 0; i < config.eval_per_class_per_bin; ++i) {
        eval_data.add(sim.skewed_patch(label, x, config.harvest.patch), label);
      }
    }
    total += model.evaluate(eval_data);
  }
  return total / config.eval_bins;
}

}  // namespace

NodeSimResult run_node_simulation(const NodeSimConfig& config) {
  NodeSimResult result;

  // Cloud-side teacher, delivered to the node once.
  SceneSimulator sim(config.scene);
  PatchDataset teacher_data(config.harvest.patch);
  for (std::int32_t label = 0; label < config.scene.num_classes; ++label) {
    for (int i = 0; i < config.teacher_examples_per_class; ++i) {
      teacher_data.add(sim.canonical_patch(label, config.harvest.patch),
                       label);
    }
  }
  PatchClassifier teacher(config.harvest.patch, config.scene.num_classes,
                          config.classifier_channels, config.seed);
  (void)teacher.train(teacher_data, config.teacher_train);

  PatchClassifier student(config.harvest.patch, config.scene.num_classes,
                          config.classifier_channels, config.seed + 1);
  Harvester harvester(teacher, config.harvest);
  std::mt19937 rng(config.seed + 2);

  // One shared evaluation of the (static) teacher.
  result.teacher_accuracy = eval_over_bins(teacher, sim, config);

  // Hourly foreground duty cycle.
  constexpr double kHour = 3600.0;
  for (int hour = 0; hour < config.hours; ++hour) {
    HourReport report;
    report.hour = hour;

    // 1. Capture + harvest.
    for (int f = 0; f < config.frames_per_hour; ++f) {
      harvester.consume(sim.next_frame());
    }
    report.frames = config.frames_per_hour;
    report.dataset_images =
        static_cast<std::int64_t>(harvester.dataset().size());
    report.storage_used_bytes = harvester.store().used_bytes();

    // 2. Idle-time training budget from the scheduler.
    edge::IdleScheduler scheduler(config.step_seconds);
    for (const auto& task : edge::periodic_tasks(
             "inference", config.inference_period_seconds,
             config.inference_duration_seconds, 8, kHour)) {
      scheduler.add_task(task);
    }
    for (const auto& task : edge::periodic_tasks(
             "sensing", config.sensing_period_seconds,
             config.sensing_duration_seconds, 5, kHour)) {
      scheduler.add_task(task);
    }
    const edge::ScheduleReport schedule_report = scheduler.run(kHour);
    report.idle_fraction = schedule_report.idle_fraction;
    report.step_budget = schedule_report.training_steps;

    // 3. Spend the budget on real checkpointed training steps.
    const PatchDataset& data = harvester.dataset();
    if (!data.empty()) {
      const int steps = static_cast<int>(std::min<std::int64_t>(
          report.step_budget, config.max_real_steps_per_hour));
      // One trainer per hour: its optimizer, and so the momentum, starts
      // afresh each hour.
      nn::Trainer trainer(student.chain(),
                          trainer_options(config.student_train));

      const std::size_t batch = std::min<std::size_t>(
          static_cast<std::size_t>(config.student_train.batch_size),
          data.size());
      std::uniform_int_distribution<std::size_t> index_dist(0,
                                                            data.size() - 1);
      for (int step = 0; step < steps; ++step) {
        if (batch < 2) break;
        // Random minibatch: the harvested dataset is ordered by track, so
        // contiguous slices would be nearly single-class.
        std::vector<std::size_t> indices;
        indices.reserve(batch);
        for (std::size_t i = 0; i < batch; ++i) {
          indices.push_back(index_dist(rng));
        }
        (void)trainer.step(data.gather(indices),
                           data.gather_labels(indices));
        ++report.steps_run;
      }
    }

    // 4. Hourly evaluation.
    report.student_accuracy =
        data.empty() ? 0.0 : eval_over_bins(student, sim, config);
    report.teacher_accuracy = result.teacher_accuracy;
    result.hours.push_back(report);
  }

  harvester.finish();
  result.harvest = harvester.stats();
  result.final_student_accuracy =
      result.hours.empty() ? 0.0 : result.hours.back().student_accuracy;
  return result;
}

}  // namespace edgetrain::insitu

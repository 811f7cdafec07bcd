#include "core/batch_tradeoff.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace edgetrain::core {

BatchTradeoffPlanner::BatchTradeoffPlanner(BatchTradeoffConfig config)
    : config_(config),
      table_(config.depth, std::max(config.depth - 1, 0)) {
  if (config_.depth < 1) {
    throw std::invalid_argument("BatchTradeoff: depth < 1");
  }
  if (config_.act_bytes_per_sample <= 0.0) {
    throw std::invalid_argument("BatchTradeoff: activation size must be > 0");
  }
}

BatchPoint BatchTradeoffPlanner::evaluate(std::int64_t batch) const {
  BatchPoint point;
  point.batch = batch;
  const double act_bytes =
      static_cast<double>(batch) * config_.act_bytes_per_sample;
  const int fit = config_.pricing.max_free_slots(
      config_.capacity_bytes, config_.fixed_bytes, act_bytes);
  if (fit < 0) {
    point.feasible = false;
    point.time_per_sample = std::numeric_limits<double>::infinity();
    return point;
  }
  point.feasible = true;
  const int free_slots = std::min(fit, config_.depth - 1);
  point.total_slots = free_slots + 1;
  const std::int64_t forwards = table_.forward_cost(config_.depth, free_slots);
  point.rho = static_cast<double>(forwards + config_.depth) /
              (2.0 * static_cast<double>(config_.depth));
  point.peak_bytes =
      config_.fixed_bytes +
      (1.0 + config_.pricing.units(free_slots)) * act_bytes;

  const double e = config_.efficiency_exponent;
  if (e > 0.0) {
    const double ke = std::pow(static_cast<double>(batch), e);
    const double ce = std::pow(config_.efficiency_half_batch, e);
    point.efficiency = ke / (ke + ce);
  } else {
    point.efficiency = 1.0;
  }
  point.time_per_sample = point.rho / point.efficiency;
  return point;
}

std::vector<BatchPoint> BatchTradeoffPlanner::sweep(
    const std::vector<std::int64_t>& batches) const {
  std::vector<BatchPoint> points;
  points.reserve(batches.size());
  for (const std::int64_t batch : batches) points.push_back(evaluate(batch));
  return points;
}

BatchPoint BatchTradeoffPlanner::best(std::int64_t max_batch) const {
  BatchPoint best_point;
  best_point.batch = 0;
  best_point.time_per_sample = std::numeric_limits<double>::infinity();
  for (std::int64_t k = 1; k <= max_batch; ++k) {
    const BatchPoint point = evaluate(k);
    if (point.feasible &&
        point.time_per_sample < best_point.time_per_sample) {
      best_point = point;
    }
  }
  return best_point;
}

}  // namespace edgetrain::core

#include "calib/chain_costs.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <random>
#include <stdexcept>

#include "tensor/tensor.hpp"

namespace edgetrain::calib {

double ChainCosts::sweep_us() const {
  return std::accumulate(forward_us.begin(), forward_us.end(), 0.0);
}

double ChainCosts::backward_total_us() const {
  return std::accumulate(backward_us.begin(), backward_us.end(), 0.0);
}

double ChainCosts::mean_forward_us() const {
  return forward_us.empty()
             ? 0.0
             : sweep_us() / static_cast<double>(forward_us.size());
}

double ChainCosts::backward_ratio() const {
  const double fwd = sweep_us();
  return fwd > 0.0 ? backward_total_us() / fwd : 1.0;
}

double ChainCosts::mean_boundary_bytes() const {
  if (boundary_bytes.empty()) return 0.0;
  return std::accumulate(boundary_bytes.begin(), boundary_bytes.end(), 0.0) /
         static_cast<double>(boundary_bytes.size());
}

bool ChainCosts::valid() const {
  const std::size_t l = forward_us.size();
  if (l == 0) return false;
  if (backward_us.size() != l) return false;
  if (boundary_bytes.size() != l - 1) return false;
  for (const double c : forward_us)
    if (!(c > 0.0)) return false;
  for (const double c : backward_us)
    if (!(c > 0.0)) return false;
  for (const double b : boundary_bytes)
    if (!(b > 0.0)) return false;
  return input_bytes > 0.0 && output_bytes > 0.0;
}

ChainCosts measure_chain(nn::LayerChain& chain, const Tensor& input,
                         const MeasureOptions& options) {
  const int l = chain.size();
  if (l < 1) throw std::invalid_argument("measure_chain: empty chain");

  ChainCosts costs;
  costs.forward_us.resize(static_cast<std::size_t>(l));
  costs.backward_us.resize(static_cast<std::size_t>(l));

  const std::vector<Shape> shapes = chain.shapes(input.shape());
  costs.input_bytes =
      static_cast<double>(shapes.front().numel()) * sizeof(float);
  costs.output_bytes =
      static_cast<double>(shapes.back().numel()) * sizeof(float);
  for (int j = 1; j < l; ++j) {
    costs.boundary_bytes.push_back(
        static_cast<double>(shapes[static_cast<std::size_t>(j)].numel()) *
        sizeof(float));
  }

  // first_visit = false keeps batch-norm running statistics untouched, so a
  // calibration pass over a live model perturbs nothing but the gradient
  // accumulators (zeroed below).
  nn::RunContext ctx;
  ctx.phase = nn::Phase::Train;
  ctx.save_for_backward = true;
  ctx.first_visit = false;
  ctx.pass_token = 0;

  // One un-timed saving sweep records the true input of every step.
  std::vector<Tensor> acts;
  acts.reserve(static_cast<std::size_t>(l) + 1);
  acts.push_back(input);
  for (int i = 0; i < l; ++i) {
    acts.push_back(chain.layer(i).forward(acts.back(), ctx));
  }

  // Two timed samples per step: the forward alone, and a forward+backward
  // pair (backward() consumes the saved internals, so each backward must
  // follow a fresh saving forward; the forward share is subtracted below).
  struct Sample {
    std::function<void()> run;
    std::int64_t iters = 1;
    double best = 0.0;  ///< minimum seconds per iteration so far
  };
  std::mt19937 rng(17);
  std::vector<Tensor> grad_outs;
  grad_outs.reserve(static_cast<std::size_t>(l));
  std::vector<Sample> samples;
  samples.reserve(2 * static_cast<std::size_t>(l));
  for (int i = 0; i < l; ++i) {
    nn::Layer& layer = chain.layer(i);
    const Tensor& x = acts[static_cast<std::size_t>(i)];
    grad_outs.push_back(
        Tensor::randn(shapes[static_cast<std::size_t>(i) + 1], rng));
    samples.push_back({[&layer, &x, &ctx] {
      Tensor y = layer.forward(x, ctx);
      if (y.data() == nullptr) std::abort();
    }});
    samples.push_back({[&layer, &x, &ctx, &grad_outs, i] {
      Tensor y = layer.forward(x, ctx);
      Tensor gx = layer.backward(grad_outs[static_cast<std::size_t>(i)]);
      if (y.data() == nullptr || gx.data() == nullptr) std::abort();
    }});
  }
  const auto time_once = [](const Sample& sample) {
    const auto start = std::chrono::steady_clock::now();
    for (std::int64_t k = 0; k < sample.iters; ++k) sample.run();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  // Grow each sample's iteration count until one sample lasts
  // min_sample_seconds; that sample is the first reading.
  for (Sample& sample : samples) {
    double secs = time_once(sample);
    while (secs < options.min_sample_seconds && sample.iters < (1LL << 30)) {
      sample.iters *= 2;
      secs = time_once(sample);
    }
    sample.best = secs / static_cast<double>(sample.iters);
  }
  // Then every round times every sample once and each keeps its minimum. A
  // load burst thus slows one round of many steps instead of all readings
  // of one step, so it cannot skew a single step against the others.
  for (int round = 0; round < options.repeats; ++round) {
    for (Sample& sample : samples) {
      sample.best = std::min(
          sample.best, time_once(sample) / static_cast<double>(sample.iters));
    }
  }
  for (int i = 0; i < l; ++i) {
    const double fwd_secs = samples[2 * static_cast<std::size_t>(i)].best;
    const double pair_secs = samples[2 * static_cast<std::size_t>(i) + 1].best;
    costs.forward_us[static_cast<std::size_t>(i)] = fwd_secs * 1e6;
    // Clamp: on a noisy machine the pair sample can come in under the
    // forward sample; a zero/negative backward would poison the DP.
    costs.backward_us[static_cast<std::size_t>(i)] =
        std::max(pair_secs - fwd_secs, 0.05 * fwd_secs) * 1e6;
  }

  chain.clear_saved();
  chain.zero_grad();
  return costs;
}

ChainCosts predict_resnet(const models::ResNetSpec& spec, int image_size,
                          std::int64_t batch, const DeviceModel& model,
                          int threads, Precision precision) {
  if (!model.valid()) {
    throw std::invalid_argument("predict_resnet: invalid device model");
  }
  // Quantized pricing: conv work lowers to GEMM, so the measured
  // fp32-GEMM/quantized-GEMM throughput ratio is the speedup the conv rate
  // inherits. A factor of 1.0 (unmeasured quantized rate falls back to the
  // fp32 gemm_us) degrades gracefully to the fp32 prediction.
  double scale = 1.0;
  if (precision != Precision::Fp32) {
    const double fp32_us = model.gemm_us(1e9, threads);
    const double quant_us = precision == Precision::Bf16
                                ? model.bf16_gemm_us(1e9, threads)
                                : model.s8_gemm_us(1e9, threads);
    if (fp32_us > 0.0 && quant_us > 0.0) scale = quant_us / fp32_us;
  }
  ChainCosts costs;
  const std::vector<double> macs =
      spec.chain_step_forward_costs(image_size, batch);
  const std::vector<std::int64_t> out_elems =
      spec.chain_step_output_elems(image_size, batch);
  const std::size_t l = macs.size();
  costs.forward_us.reserve(l);
  costs.backward_us.reserve(l);
  for (std::size_t i = 0; i < l; ++i) {
    // MACs -> flops (x2), priced at conv throughput: every step of a
    // ResNet is conv-dominated except the (negligible) head linear.
    const double us = scale * model.conv_us(2.0 * macs[i], threads);
    costs.forward_us.push_back(us);
    // Backward of a conv is the dX + dW GEMM pair: 2x the forward work.
    costs.backward_us.push_back(2.0 * us);
  }
  costs.input_bytes = 3.0 * static_cast<double>(image_size) *
                      static_cast<double>(image_size) *
                      static_cast<double>(batch) * sizeof(float);
  costs.output_bytes =
      static_cast<double>(out_elems.back()) * sizeof(float);
  for (std::size_t j = 0; j + 1 < l; ++j) {
    costs.boundary_bytes.push_back(static_cast<double>(out_elems[j]) *
                                   sizeof(float));
  }
  return costs;
}

std::vector<int> state_units(const ChainCosts& costs) {
  std::vector<int> units;
  if (costs.boundary_bytes.empty()) return units;
  const double unit =
      *std::min_element(costs.boundary_bytes.begin(),
                        costs.boundary_bytes.end());
  units.reserve(costs.boundary_bytes.size());
  for (const double bytes : costs.boundary_bytes) {
    units.push_back(static_cast<int>(std::ceil(bytes / unit - 1e-9)));
  }
  return units;
}

core::ChainSpec measured_chain_spec(std::string name, const ChainCosts& costs,
                                    double fixed_bytes,
                                    core::SlotPricing pricing) {
  if (!costs.valid()) {
    throw std::invalid_argument("measured_chain_spec: invalid ChainCosts");
  }
  core::ChainSpec spec;
  spec.name = std::move(name);
  spec.depth = costs.num_steps();
  spec.fixed_bytes = fixed_bytes;
  // The planner's homogeneous byte model keeps one number per step; the
  // mean boundary is the faithful aggregate (total slot bytes at s slots
  // matches the measured chain in expectation).
  spec.activation_bytes_per_step =
      costs.boundary_bytes.empty() ? costs.output_bytes
                                   : costs.mean_boundary_bytes();
  spec.pricing = std::move(pricing);
  spec.step_costs = costs.forward_us;
  spec.backward_ratio = costs.backward_ratio();
  return spec;
}

std::vector<double> measured_slot_ratios(const core::SlotStore& store,
                                         std::int32_t first_slot,
                                         std::int32_t count) {
  std::vector<double> ratios;
  ratios.reserve(static_cast<std::size_t>(std::max(count, 0)));
  for (std::int32_t slot = first_slot; slot < first_slot + count; ++slot) {
    ratios.push_back(std::clamp(store.measured_slot_ratio(slot), 1e-6, 1.0));
  }
  return ratios;
}

core::disk::DiskRevolveOptions priced_disk_options(
    const ChainCosts& costs, const DeviceModel& model,
    core::disk::DiskRevolveOptions base,
    const std::vector<double>& spill_ratios) {
  const double fwd_us = costs.mean_forward_us();
  if (!(fwd_us > 0.0)) {
    throw std::invalid_argument("priced_disk_options: no forward costs");
  }
  const double bytes = costs.mean_boundary_bytes() > 0.0
                           ? costs.mean_boundary_bytes()
                           : costs.output_bytes;
  // The DP prices IO in forward-step units and multiplies by
  // spill_bytes_ratio itself, so the weights here are the *plaintext*
  // spill times of this chain's mean boundary on this device.
  base.write_cost = model.disk_write_us(bytes) / fwd_us;
  base.read_cost = model.disk_read_us(bytes) / fwd_us;
  if (!spill_ratios.empty()) {
    base.spill_bytes_ratio =
        std::accumulate(spill_ratios.begin(), spill_ratios.end(), 0.0) /
        static_cast<double>(spill_ratios.size());
  }
  return base;
}

core::CostModel cost_model(const ChainCosts& costs, const DeviceModel& model,
                           std::int32_t first_disk_slot,
                           core::SlotPricing pricing) {
  core::CostModel cm;
  cm.step_costs = costs.forward_us;
  cm.first_disk_slot = first_disk_slot;
  const double bytes = costs.mean_boundary_bytes() > 0.0
                           ? costs.mean_boundary_bytes()
                           : costs.output_bytes;
  cm.disk_write_cost = model.disk_write_us(bytes);
  cm.disk_read_cost = model.disk_read_us(bytes);
  cm.pricing = std::move(pricing);
  return cm;
}

}  // namespace edgetrain::calib

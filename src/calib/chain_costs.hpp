// edgetrain: converting chains into measured per-step cost/size vectors.
//
// The DP planners (core/dynprog, core/disk_revolve, core/planner) and the
// schedule replay (core/replay) all accept arbitrary per-step
// cost vectors but were historically fed unit or analytic FLOP counts --
// optimal for an abstraction, not for the hardware. This module closes the
// loop: a ChainCosts carries per-step forward/backward microseconds and
// boundary-state bytes for one concrete chain on *this* device, obtained
// either by
//
//   * measure_chain(): timing the real layers of a live nn::LayerChain
//     (ground truth; what bench_calib proves schedules against), or
//   * predict_resnet(): converting ResNetSpec's exact analytic MAC counts
//     into microseconds through the fitted DeviceModel (no network
//     instantiation -- plan a ResNet-152 on a 2 GB node without building
//     one),
//
// and the feeder helpers translate a ChainCosts into every planner's
// native inputs: HeteroSolver cost-and-unit vectors, DiskRevolveOptions
// whose IO weights come from the measured SD bandwidth, a measured
// ChainSpec for MemoryPlanner, and a core::CostModel whose lint bounds are
// stated in calibrated microseconds. One feeder per input: the ChainSpec
// and the CostModel take the checkpoint slots' core::SlotPricing as a
// defaulted parameter, the disk options the measured spill ratios.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "calib/device_model.hpp"
#include "core/disk_revolve.hpp"
#include "core/planner.hpp"
#include "core/replay.hpp"
#include "core/slot_store.hpp"
#include "models/resnet.hpp"
#include "nn/chain.hpp"

namespace edgetrain::calib {

/// Per-step timings and sizes of one concrete chain on one device.
struct ChainCosts {
  std::vector<double> forward_us;   ///< size l, > 0 each
  std::vector<double> backward_us;  ///< size l
  /// Bytes of boundary state j (the output of step j-1), j = 1..l-1 --
  /// the states a checkpoint slot may hold (size l-1). The chain input
  /// and output are never checkpointed (the byte-budget HeteroSolver's
  /// convention).
  std::vector<double> boundary_bytes;
  double input_bytes = 0.0;
  double output_bytes = 0.0;

  [[nodiscard]] int num_steps() const {
    return static_cast<int>(forward_us.size());
  }
  /// One un-checkpointed forward sweep, microseconds.
  [[nodiscard]] double sweep_us() const;
  [[nodiscard]] double backward_total_us() const;
  [[nodiscard]] double mean_forward_us() const;
  /// Measured backward/forward cost ratio (the paper's bwd_ratio, but
  /// observed instead of assumed 1).
  [[nodiscard]] double backward_ratio() const;
  [[nodiscard]] double mean_boundary_bytes() const;

  /// True when sizes are consistent and every cost is positive.
  [[nodiscard]] bool valid() const;
};

struct MeasureOptions {
  /// Per-step samples are grown (iterations doubled) until one lasts at
  /// least this long.
  double min_sample_seconds = 0.005;
  /// Rounds after that sizing pass: each round times every step once, and
  /// each step keeps its minimum over the sizing sample and all rounds.
  int repeats = 3;
};

/// Times every step of @p chain (forward with save, then backward) on a
/// real @p input batch. Runs in Phase::Train with first_visit = false, so
/// batch-norm running statistics are not perturbed; accumulated parameter
/// gradients are zeroed and saved state cleared before returning.
[[nodiscard]] ChainCosts measure_chain(nn::LayerChain& chain,
                                       const Tensor& input,
                                       const MeasureOptions& options = {});

/// Predicts a block-level ResNet chain's per-step costs from its analytic
/// MAC counts through the fitted model: forward MACs at conv throughput,
/// backward charged 2x forward (the dX + dW GEMM pair). Boundary bytes use
/// the spec's per-step activation accounting.
///
/// @p precision prices the compute at the device's measured quantized GEMM
/// rate (Bf16/Int8 probes; fp32 fallback when unmeasured): forward times
/// scale by the fp32-GEMM/quantized-GEMM throughput ratio. Boundary bytes
/// stay fp32 -- the planners checkpoint master-precision activations (the
/// bf16 training path keeps fp32 boundaries; see ops::GemmPrecision).
[[nodiscard]] ChainCosts predict_resnet(const models::ResNetSpec& spec,
                                        int image_size, std::int64_t batch,
                                        const DeviceModel& model, int threads,
                                        Precision precision = Precision::Fp32);

// --- planner feeders -------------------------------------------------------

/// Boundary sizes as integer budget units for the byte-budget HeteroSolver:
/// one unit = the smallest boundary's bytes, each state rounded up.
[[nodiscard]] std::vector<int> state_units(const ChainCosts& costs);

/// MemoryPlanner chain description carrying the measured per-step costs:
/// plan selection and achieved_rho are then computed by the heterogeneous
/// DP in calibrated microseconds instead of unit Revolve counts. @p pricing
/// prices the resting checkpoints: a codec's planning ratio, or measured
/// per-slot ratios (e.g. measured_slot_ratios(store, 1, s) of the previous
/// pass), which is what lets a data-dependent codec (SlotCodec::Bitmap)
/// buy more slots than its worst-case planning ratio promises.
[[nodiscard]] core::ChainSpec measured_chain_spec(
    std::string name, const ChainCosts& costs, double fixed_bytes,
    core::SlotPricing pricing = core::SlotPricing());

/// Samples SlotStore::measured_slot_ratio for slots [first_slot,
/// first_slot + count) in slot order. Ratios are clamped into (0, 1] (a
/// blob a data-dependent codec could not shrink reports slightly above 1
/// because of its mode byte; the planners price it as plaintext). With
/// first_slot = 1 the vector is the measured part of a core::SlotPricing
/// (entry k = slot k + 1), which the ChainSpec and the CostModel share.
[[nodiscard]] std::vector<double> measured_slot_ratios(
    const core::SlotStore& store, std::int32_t first_slot,
    std::int32_t count);

/// Disk-revolve options whose write/read weights are the measured spill
/// time of this chain's mean boundary divided by the measured mean forward
/// step -- the DP's "forward-step units", tied to the device's actual SD
/// bandwidth. The DP scales them by base.spill_bytes_ratio itself. When
/// @p spill_ratios is non-empty (e.g. measured_slot_ratios of the disk
/// slots a previous pass filled), spill_bytes_ratio becomes their mean, so
/// the DP prices IO at the measured achieved ratio instead of the static
/// one.
[[nodiscard]] core::disk::DiskRevolveOptions priced_disk_options(
    const ChainCosts& costs, const DeviceModel& model,
    core::disk::DiskRevolveOptions base,
    const std::vector<double>& spill_ratios = {});

/// Interpreter cost model in calibrated microseconds: per-step forward
/// weights from the measurement, disk IO weights from the measured spill
/// path. total_cost() of a clean interpretation is then the predicted
/// wall-clock (microseconds) of replaying the schedule on this device.
/// @p pricing feeds the interpreter's weighted peak accounting, so
/// schedule_lint re-checks a re-planned schedule against the ratios it was
/// solved with.
[[nodiscard]] core::CostModel cost_model(
    const ChainCosts& costs, const DeviceModel& model,
    std::int32_t first_disk_slot = std::numeric_limits<std::int32_t>::max(),
    core::SlotPricing pricing = core::SlotPricing());

}  // namespace edgetrain::calib

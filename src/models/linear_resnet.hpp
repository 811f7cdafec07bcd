// edgetrain: the paper's LinearResNet_x abstraction (Section VI).
//
// "We will denote by LinearResNet_x a linear homogeneous network built by
//  analogy to ResNet_x. The memory needed to store all network weights is
//  the same ... and the size of the forward activation ... is defined as
//  the overall activation weights for ResNet_x divided by the depth."
#pragma once

#include <cstdint>
#include <string>

#include "core/planner.hpp"
#include "models/memory_model.hpp"

namespace edgetrain::models {

struct LinearResNet {
  std::string name;                    ///< "LinearResNet152" etc.
  int depth = 1;                       ///< l = x
  double fixed_bytes = 0.0;            ///< same as ResNet_x (incl. optimizer)
  double act_bytes_per_step = 0.0;     ///< k * M_A, batch folded in

  /// Homogenises ResNet_x at the given image/batch size.
  [[nodiscard]] static LinearResNet from_resnet(const ResNetMemoryModel& model,
                                                int image_size,
                                                std::int64_t batch);

  /// The planner's chain description, every resting checkpoint priced at
  /// @p checkpoint_bytes_ratio (1.0 = uncompressed,
  /// core::planning_bytes_ratio(codec) for a codec).
  [[nodiscard]] core::ChainSpec to_chain_spec(
      double checkpoint_bytes_ratio = 1.0) const;

  /// Footprint with all activations stored (rho = 1).
  [[nodiscard]] double full_storage_bytes() const {
    return fixed_bytes + static_cast<double>(depth) * act_bytes_per_step;
  }
};

}  // namespace edgetrain::models

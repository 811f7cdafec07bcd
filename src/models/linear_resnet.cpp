#include "models/linear_resnet.hpp"

namespace edgetrain::models {

LinearResNet LinearResNet::from_resnet(const ResNetMemoryModel& model,
                                       int image_size, std::int64_t batch) {
  LinearResNet linear;
  linear.name = "Linear" + model.spec().name();
  linear.depth = model.spec().depth();
  linear.fixed_bytes = model.fixed_bytes();
  linear.act_bytes_per_step = model.activation_bytes(image_size, batch) /
                              static_cast<double>(linear.depth);
  return linear;
}

core::ChainSpec LinearResNet::to_chain_spec(
    double checkpoint_bytes_ratio) const {
  core::ChainSpec spec;
  spec.name = name;
  spec.depth = depth;
  spec.fixed_bytes = fixed_bytes;
  spec.activation_bytes_per_step = act_bytes_per_step;
  spec.pricing = core::SlotPricing(checkpoint_bytes_ratio);
  return spec;
}

}  // namespace edgetrain::models

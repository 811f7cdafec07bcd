// edgetrain: forwarding header. The schedule replay machine (interpret,
// its checks, cost model, bounds and report) lives in core/replay.hpp;
// these names stay for code that includes this header.
#pragma once

#include "core/replay.hpp"
#include "core/schedule.hpp"

namespace edgetrain::analysis {

using core::Bounds;
using core::Check;
using core::CostModel;
using core::Finding;
using core::interpret;
using core::Report;
using core::Severity;
using core::to_string;

}  // namespace edgetrain::analysis

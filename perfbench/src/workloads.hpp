#pragma once

#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  unsigned seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What one run measured. `metrics` holds the end-to-end list (untraced
/// runs) or the per-layer list (traced runs); `info` lines describe the
/// inputs and every fixed knob.
struct RunResult {
  Metrics metrics;
  Tally tally;
  std::vector<std::string> info;
};

RunResult runRouteServe(const RunConfig& cfg);
RunResult runChurnServe(const RunConfig& cfg);
RunResult runPreprocessLossy(const RunConfig& cfg);

}  // namespace perfbench

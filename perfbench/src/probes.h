// Layer probes: each times one layer's public entry points, on inputs
// shaped like the workload's traffic, outside any simulation. A probe's
// cost times the run's exact call count of that entry point attributes
// host time to the layer.
#pragma once

#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct ProbeResult {
  std::string name;  // per-layer metric name ("sim.probe.ns_per_event", ...)
  double ns = 0;     // median host ns per call over the probe's batches
  std::size_t bytes = 0;  // encoded input size, where the input is a frame
};

/// Every probe, on inputs shaped like `w`'s traffic. `scale` multiplies the
/// iteration counts (tests pass a small value).
[[nodiscard]] std::vector<ProbeResult> run_probes(const Workload& w,
                                                  double scale = 1.0);

}  // namespace perfbench

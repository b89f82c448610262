// Reproduces Figure 5: group-communication bandwidth (bytes/sec) as a
// function of the rejuvenation threshold, for the GIOP LOCATION_FORWARD and
// MEAD message schemes.
//
// Paper: ~6,000 bytes/s at an 80% threshold rising to ~10,000 bytes/s at a
// 20% threshold — lower thresholds restart servers more often, so more
// bandwidth goes into reaching group consensus (§5.2.4).
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"

using namespace mead;
using namespace mead::bench;

int main() {
  std::printf("Figure 5: Effect of varying threshold on GC bandwidth\n");
  std::printf("%-10s %22s %22s\n", "Threshold", "GIOP Location_Fwd", "MEAD");
  std::printf("%-10s %15s %15s\n", "(%)", "(bytes/sec)", "(bytes/sec)");

  const std::vector<double> thresholds = {0.2, 0.4, 0.6, 0.8};
  const core::RecoveryScheme schemes[2] = {
      core::RecoveryScheme::kLocationForward,
      core::RecoveryScheme::kMeadMessage};

  // Grid of (threshold, scheme) specs; trace names carry the threshold so
  // runs at different thresholds do not collide on (scheme, seed).
  Sweep sweep("fig5");
  for (double t : thresholds) {
    for (int i = 0; i < 2; ++i) {
      ExperimentSpec spec;
      spec.scheme = schemes[i];
      // Keep the paper's 10%-of-capacity gap between launch and migrate.
      spec.thresholds = core::Thresholds{t, t + 0.1};
      char trace[64];
      std::snprintf(trace, sizeof trace, "trace_fig5_%s_t%02.0f_seed2004.jsonl",
                    i == 0 ? "lf" : "mead", t * 100);
      spec.trace_jsonl = trace;
      char label[48];
      std::snprintf(label, sizeof label, "%s @%.0f%%",
                    i == 0 ? "LOCATION_FORWARD" : "MEAD message", t * 100);
      sweep.add(std::move(spec), label);
    }
  }
  const auto& results = sweep.run();

  for (std::size_t row = 0; row < thresholds.size(); ++row) {
    double bw[2] = {0, 0};
    std::size_t deaths[2] = {0, 0};
    for (int i = 0; i < 2; ++i) {
      const std::size_t idx = row * 2 + static_cast<std::size_t>(i);
      bw[i] = results[idx].gc_bandwidth_bps();
      deaths[i] = results[idx].server_failures;
    }
    std::printf("%-10.0f %15.0f %15.0f     (rejuvenations: LF=%zu MEAD=%zu)\n",
                thresholds[row] * 100, bw[0], bw[1], deaths[0], deaths[1]);
  }
  std::printf("\nShape check (paper): bandwidth decreases monotonically as "
              "the threshold rises (~10kB/s @20%% -> ~6kB/s @80%%).\n");
  return sweep.finish();
}

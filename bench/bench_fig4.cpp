// Reproduces Figure 4: per-invocation RTT series for the three proactive
// recovery schemes — GIOP NEEDS_ADDRESSING_MODE, GIOP LOCATION_FORWARD at
// the 80% threshold, and the MEAD proactive fail-over message at the 80%
// threshold (note the paper's "reduced jitter" annotation on this panel).
#include <cstdio>
#include <vector>

#include "harness.h"

using namespace mead;
using namespace mead::bench;

namespace {

void print_panel(const char* title, const ExperimentResult& r) {
  std::printf("\n===== %s =====\n", title);
  std::printf("invocations: %llu   server failures (incl. rejuvenations): %zu\n",
              static_cast<unsigned long long>(r.client.invocations_completed),
              r.server_failures);
  std::printf("client exceptions: %llu (COMM_FAILURE %llu, TRANSIENT %llu)\n",
              static_cast<unsigned long long>(r.client.total_exceptions()),
              static_cast<unsigned long long>(r.client.comm_failures),
              static_cast<unsigned long long>(r.client.transients));
  std::printf("masked failures: %llu   query timeouts: %llu   "
              "LOCATION_FORWARDs: %llu   MEAD redirects: %llu\n",
              static_cast<unsigned long long>(
                  r.counter("client.masked_failures")),
              static_cast<unsigned long long>(
                  r.counter("client.query_timeouts")),
              static_cast<unsigned long long>(
                  r.counter("orb.forwards_followed")),
              static_cast<unsigned long long>(
                  r.counter("client.mead_redirects")));
  std::printf("steady-state RTT: %.3f ms   failover: n=%zu mean=%.3f ms "
              "max=%.3f ms\n",
              r.client.steady_state_rtt_ms(), r.client.failover_ms.count(),
              r.client.failover_ms.mean(), r.client.failover_ms.max());
  print_series(title, r.client.rtt_ms);

  std::printf("BEGIN_SERIES %s\n", title);
  const auto& v = r.client.rtt_ms.samples();
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::printf("%zu,%.4f\n", i, v[i]);
  }
  std::printf("END_SERIES\n");
}

}  // namespace

int main() {
  trace_prefix() = "fig4";
  std::printf("Figure 4: Proactive recovery schemes (RTT vs invocation)\n");

  struct Panel {
    const char* title;
    core::RecoveryScheme scheme;
  };
  const std::vector<Panel> panels = {
      {"Proactive Recovery Scheme (GIOP Needs_Addressing_Mode)",
       core::RecoveryScheme::kNeedsAddressing},
      {"Proactive Recovery Scheme (GIOP Location_Forward-Threshold=80%)",
       core::RecoveryScheme::kLocationForward},
      {"Proactive Recovery Scheme (MEAD message-Threshold=80%)",
       core::RecoveryScheme::kMeadMessage},
  };

  Sweep sweep("fig4");
  for (const auto& panel : panels) {
    ExperimentSpec spec;
    spec.scheme = panel.scheme;
    spec.thresholds = core::Thresholds{0.8, 0.9};
    sweep.add(std::move(spec), panel.title);
  }
  const auto& results = sweep.run();
  for (std::size_t i = 0; i < panels.size(); ++i) {
    print_panel(panels[i].title, results[i]);
  }
  return sweep.finish();
}

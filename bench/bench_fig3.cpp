// Reproduces Figure 3: per-invocation RTT series for the two reactive
// recovery schemes (without / with cached replica references), 10,000
// invocations under the memory-leak fault.
//
// Emits the raw series as CSV on stdout (invocation index, RTT ms) between
// BEGIN/END markers for plotting, plus an ASCII sparkline and the summary
// statistics the paper narrates (§5.2.3): failover spikes ~10ms, initial
// naming-resolve spike, COMM_FAILURE/TRANSIENT structure.
#include <cstdio>
#include <vector>

#include "harness.h"

using namespace mead;
using namespace mead::bench;

namespace {

void print_panel(const char* title, const ExperimentResult& r) {
  std::printf("\n===== %s =====\n", title);
  std::printf("invocations: %llu   server failures: %zu\n",
              static_cast<unsigned long long>(r.client.invocations_completed),
              r.server_failures);
  std::printf("COMM_FAILURE: %llu   TRANSIENT: %llu\n",
              static_cast<unsigned long long>(r.client.comm_failures),
              static_cast<unsigned long long>(r.client.transients));
  std::printf("steady-state RTT: %.3f ms   failover spikes: n=%zu mean=%.3f "
              "ms max=%.3f ms\n",
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
  trace_prefix() = "fig3";
  std::printf("Figure 3: Reactive recovery schemes (RTT vs invocation)\n");

  struct Panel {
    const char* title;
    core::RecoveryScheme scheme;
  };
  const std::vector<Panel> panels = {
      {"Reactive Recovery Scheme (Without cache)",
       core::RecoveryScheme::kReactiveNoCache},
      {"Reactive Recovery Scheme (With cache)",
       core::RecoveryScheme::kReactiveCache},
  };

  Sweep sweep("fig3");
  for (const auto& panel : panels) {
    ExperimentSpec spec;
    spec.scheme = panel.scheme;
    sweep.add(std::move(spec), panel.title);
  }
  const auto& results = sweep.run();
  for (std::size_t i = 0; i < panels.size(); ++i) {
    print_panel(panels[i].title, results[i]);
  }
  return sweep.finish();
}

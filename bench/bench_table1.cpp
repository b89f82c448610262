// Reproduces Table 1: "Overhead and fail-over times" (§5.2).
//
// Five strategies, 10,000 invocations each, memory-leak fault on the
// primary. Reports, per the paper:
//   * Increase in RTT (%) over the reactive baseline,
//   * Client Failures (%) per server-side failure,
//   * Fail-over time (ms) and change vs. the reactive no-cache baseline.
//
// Paper's values for comparison:
//   Reactive w/o cache   baseline   100%   10.177 ms   baseline
//   Reactive w/ cache    0%         146%   10.461 ms   +2.8%
//   NEEDS_ADDRESSING     8%         25%     9.396 ms   -7.7%
//   LOCATION_FORWARD     90%        0%      8.803 ms   -13.5%
//   MEAD message         3%         0%      2.661 ms   -73.9%
#include <cstdio>
#include <vector>

#include "harness.h"

using namespace mead;
using namespace mead::bench;

int main() {
  trace_prefix() = "table1";
  struct Row {
    const char* name;
    core::RecoveryScheme scheme;
    const char* paper;
  };
  const std::vector<Row> rows = {
      {"Reactive Without Cache", core::RecoveryScheme::kReactiveNoCache,
       "paper: base / 100% / 10.177ms / base"},
      {"Reactive With Cache", core::RecoveryScheme::kReactiveCache,
       "paper: 0% / 146% / 10.461ms / +2.8%"},
      {"NEEDS ADDRESSING Mode", core::RecoveryScheme::kNeedsAddressing,
       "paper: 8% / 25% / 9.396ms / -7.7%"},
      {"LOCATION FORWARD", core::RecoveryScheme::kLocationForward,
       "paper: 90% / 0% / 8.803ms / -13.5%"},
      {"MEAD Message", core::RecoveryScheme::kMeadMessage,
       "paper: 3% / 0% / 2.661ms / -73.9%"},
  };

  std::printf("Table 1: Overhead and fail-over times "
              "(10,000 invocations @1ms, 3 replicas, 32KB leak)\n");
  std::printf("%-24s %10s %10s %12s %10s   %s\n", "Recovery Strategy",
              "RTT incr", "ClientFail", "Failover", "change", "");
  std::printf("%-24s %10s %10s %12s %10s\n", "", "(%)", "(%)", "(ms)", "(%)");

  // Aggregate over several seeds: individual runs have only ~20 fail-over
  // events, so per-seed binomial noise would dominate the Table-1 columns.
  const std::vector<std::uint64_t> seeds = {2004, 2005, 2006, 2007, 2008};

  // One spec per (scheme, seed); the whole grid fans out across the sweep
  // runner's thread pool, results come back in spec order.
  Sweep sweep("table1");
  for (const auto& row : rows) {
    for (std::uint64_t seed : seeds) {
      ExperimentSpec spec;
      spec.scheme = row.scheme;
      spec.seed = seed;
      sweep.add(std::move(spec), row.name);
    }
  }
  const auto& results = sweep.run();

  double baseline_rtt = 0;
  double baseline_failover = 0;
  std::size_t run_idx = 0;
  for (const auto& row : rows) {
    double rtt_sum = 0;
    Series failover_all("failover");
    std::size_t deaths = 0;
    std::uint64_t exceptions = 0;
    for (std::size_t s = 0; s < seeds.size(); ++s, ++run_idx) {
      const ExperimentResult& r = results[run_idx];
      rtt_sum += r.client.steady_state_rtt_ms();
      for (double v : r.client.failover_ms.samples()) failover_all.add(v);
      deaths += r.server_failures;
      exceptions += r.client.total_exceptions();
    }
    const double rtt = rtt_sum / static_cast<double>(seeds.size());
    if (row.scheme == core::RecoveryScheme::kReactiveNoCache) {
      baseline_rtt = rtt;
    }
    const double rtt_incr = baseline_rtt > 0
                                ? 100.0 * (rtt - baseline_rtt) / baseline_rtt
                                : 0.0;
    const double failover = failover_all.mean();
    if (row.scheme == core::RecoveryScheme::kReactiveNoCache) {
      baseline_failover = failover;
    }
    const double failover_change =
        baseline_failover > 0
            ? 100.0 * (failover - baseline_failover) / baseline_failover
            : 0.0;
    const double fail_pct =
        deaths == 0 ? 0
                    : 100.0 * static_cast<double>(exceptions) /
                          static_cast<double>(deaths);

    std::printf("%-24s %9.1f%% %9.1f%% %9.3f ms %+9.1f%%   [%s]\n", row.name,
                rtt_incr, fail_pct, failover, failover_change, row.paper);
    std::printf("%-24s  (rtt %.3fms, %zu server failures, %llu exceptions, "
                "%zu failover samples, %zu seeds)\n",
                "", rtt, deaths,
                static_cast<unsigned long long>(exceptions),
                failover_all.count(), seeds.size());
  }
  std::printf("\nShape checks (paper): RTT overhead cache~0 < MEAD~3%% < "
              "NA~8%% << LF~90%%; failures LF=MEAD=0 < NA~25%% < "
              "no-cache=100%% < cache~146%%; failover MEAD << LF < NA < "
              "no-cache < cache.\n");
  return sweep.finish();
}

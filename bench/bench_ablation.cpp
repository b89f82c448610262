// Ablation studies for the design choices DESIGN.md calls out:
//
//  A1 (§4.1): the 16-bit object-key hash vs. byte-by-byte key comparison in
//      the LOCATION_FORWARD interceptor — modeled as the difference in the
//      interceptor's per-reply processing cost; also see bench_micro for
//      the raw CPU numbers.
//  A2 (§4.3): MEAD piggybacking vs. the counterfactual where the fail-over
//      notification pays for its own message (modeled by charging the
//      redirect on a separate read path: one extra RTT per fail-over).
//  A3 (§3.2): threshold spacing — how close T1 (launch) may sit to T2
//      (migrate) before the spare replica is not ready in time.
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"

using namespace mead;
using namespace mead::bench;

namespace {

// The whole ablation grid is declared up front, swept once through the
// parallel runner, and each section then prints from its slice of results.
struct AblationRun {
  std::string label;
  ExperimentSpec spec;
};

std::vector<AblationRun>& runs() {
  static std::vector<AblationRun> all;
  return all;
}

std::size_t add_run(const char* label, core::RecoveryScheme scheme,
                    const app::Calibration& calib,
                    core::Thresholds thresholds = {}) {
  AblationRun run;
  run.label = label;
  run.spec.scheme = scheme;
  run.spec.thresholds = thresholds;
  run.spec.calib = calib;
  run.spec.trace_jsonl =
      "trace_ablation_" + std::string(label) + "_seed2004.jsonl";
  runs().push_back(std::move(run));
  return runs().size() - 1;
}

app::Calibration byte_compare_calibration() {
  app::Calibration byte_calib;
  // Byte-by-byte comparison of 52-byte keys against every table entry
  // roughly doubles the reply-path processing (measured ratio from
  // bench_micro's BM_ObjectKeyHash16 vs BM_ObjectKeyByteCompare, scaled to
  // the paper's per-message cost).
  byte_calib.lf_reply_process = byte_calib.lf_reply_process * 2;
  byte_calib.lf_request_parse =
      byte_calib.lf_request_parse + microseconds(120);
  return byte_calib;
}

app::Calibration separate_notification_calibration() {
  app::Calibration separate;
  // A separate notification costs its own delivery: model as an extra
  // cross-node round trip plus send/receive processing on the redirect.
  separate.redirect_cost =
      separate.redirect_cost + separate.link_cross_node * 2 + microseconds(160);
  return separate;
}

void print_key_lookup(const ExperimentResult& hash_run,
                      const ExperimentResult& byte_run) {
  std::printf("A1: LOCATION_FORWARD IOR lookup: 16-bit hash vs byte-compare\n");
  std::printf("  hash lookup : RTT %.3f ms, failover %.3f ms\n",
              hash_run.client.steady_state_rtt_ms(),
              hash_run.client.failover_ms.mean());
  std::printf("  byte compare: RTT %.3f ms, failover %.3f ms\n",
              byte_run.client.steady_state_rtt_ms(),
              byte_run.client.failover_ms.mean());
  std::printf("  -> hash lookup saves %.1f%% steady-state RTT\n\n",
              100.0 * (byte_run.client.steady_state_rtt_ms() -
                       hash_run.client.steady_state_rtt_ms()) /
                  byte_run.client.steady_state_rtt_ms());
}

void print_piggyback(const ExperimentResult& p, const ExperimentResult& s) {
  std::printf("A2: MEAD fail-over notification: piggybacked vs separate\n");
  std::printf("  piggybacked : failover %.3f ms (n=%zu)\n",
              p.client.failover_ms.mean(), p.client.failover_ms.count());
  std::printf("  separate msg: failover %.3f ms (n=%zu)\n",
              s.client.failover_ms.mean(), s.client.failover_ms.count());
  std::printf("  -> piggybacking saves %.3f ms per fail-over\n\n",
              s.client.failover_ms.mean() - p.client.failover_ms.mean());
}

}  // namespace

int main() {
  std::printf("Ablation benches for DESIGN.md design choices\n\n");

  const app::Calibration default_calib;
  const std::size_t a1_hash = add_run(
      "a1-hash", core::RecoveryScheme::kLocationForward, default_calib);
  const std::size_t a1_byte =
      add_run("a1-bytecmp", core::RecoveryScheme::kLocationForward,
              byte_compare_calibration());
  const std::size_t a2_piggy = add_run(
      "a2-piggyback", core::RecoveryScheme::kMeadMessage, default_calib);
  const std::size_t a2_separate =
      add_run("a2-separate", core::RecoveryScheme::kMeadMessage,
              separate_notification_calibration());

  struct Case {
    const char* name;
    std::size_t run;
  };
  const Case a3_cases[] = {
      {"wide   (launch 60%, migrate 90%)",
       add_run("a3-wide", core::RecoveryScheme::kMeadMessage, default_calib,
               core::Thresholds{0.6, 0.9})},
      {"paper  (launch 80%, migrate 90%)",
       add_run("a3-paper", core::RecoveryScheme::kMeadMessage, default_calib,
               core::Thresholds{0.8, 0.9})},
      {"narrow (launch 88%, migrate 90%)",
       add_run("a3-narrow", core::RecoveryScheme::kMeadMessage, default_calib,
               core::Thresholds{0.88, 0.9})},
      {"late   (launch 95%, migrate 97%)",
       add_run("a3-late", core::RecoveryScheme::kMeadMessage, default_calib,
               core::Thresholds{0.95, 0.97})},
  };
  const Case a4_cases[] = {
      {"fixed 20/30 (eager)",
       add_run("a4-eager", core::RecoveryScheme::kMeadMessage, default_calib,
               core::Thresholds{0.2, 0.3})},
      {"fixed 80/90 (paper)",
       add_run("a4-paper", core::RecoveryScheme::kMeadMessage, default_calib,
               core::Thresholds{0.8, 0.9})},
      {"adaptive (150ms/60ms leads)",
       add_run("a4-adaptive", core::RecoveryScheme::kMeadMessage, default_calib,
               core::Thresholds::adaptive(milliseconds(150),
                                          milliseconds(60)))},
  };

  Sweep sweep("ablation");
  for (const auto& run : runs()) sweep.add(run.spec, run.label);
  const auto& results = sweep.run();

  print_key_lookup(results[a1_hash], results[a1_byte]);
  print_piggyback(results[a2_piggy], results[a2_separate]);

  std::printf("A3: threshold spacing (T1 launch / T2 migrate)\n");
  for (const auto& c : a3_cases) {
    const ExperimentResult& r = results[c.run];
    std::printf("  %-36s exceptions=%llu rejuvenations=%zu failover=%.3f ms\n",
                c.name,
                static_cast<unsigned long long>(r.client.total_exceptions()),
                r.server_failures, r.client.failover_ms.mean());
  }
  std::printf("  -> too-late thresholds degrade toward reactive behaviour "
              "(the paper's 'if we waited too long ... the resulting "
              "fault-recovery ends up resembling a reactive strategy').\n");

  std::printf("A4: fixed presets vs adaptive thresholds (paper future work)\n");
  for (const auto& c : a4_cases) {
    const ExperimentResult& r = results[c.run];
    std::printf("  %-30s rejuvenations=%2zu exceptions=%llu "
                "gc=%6.0f B/s failover=%.3f ms\n",
                c.name, r.server_failures,
                static_cast<unsigned long long>(r.client.total_exceptions()),
                r.gc_bandwidth_bps(), r.client.failover_ms.mean());
  }
  std::printf("  -> adaptive keeps the 0%% failure rate while rejuvenating "
              "least often (least bandwidth + fewest hand-offs).\n");
  return sweep.finish();
}

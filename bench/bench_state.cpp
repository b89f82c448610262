// Stateful-service restore bench: how long does a replacement replica
// take to come back — base snapshot + delta chain from a live peer, then
// message-log replay — as the application state grows, and how much of
// that cost does each recovery scheme expose to clients?
//
// Sweep: state size (keys) x checkpoint interval x all five schemes on
// the paper's five-node testbed, memory-leak injection on. Reactive
// schemes crash the primary when the leak exhausts it; proactive schemes
// rejuvenate it first. Either way every replacement incarnation restores
// state before announcing, so:
//
//   restore_ms   grows with state size (snapshot bytes ride the per-KB
//                link cost) and, for the schemes that keep serving while
//                the replacement restores, shrinks with checkpoint
//                frequency (less log to replay);
//   recovery_ms  is the group's replica-hole exposure: mean time from an
//                abrupt replica death (kCrash) to the next restore-gated
//                re-registration. Reactive schemes eat detection + launch
//                + restore there, so it grows with state size; proactive
//                schemes rejuvenate gracefully — the replacement restores
//                and registers BEFORE the old replica exits, so they have
//                no kCrash at all and recovery_ms stays 0. The proactive
//                advantage therefore GROWS with state size;
//                ci/check_bench_regression.py enforces all three trends
//                from this file's BENCH_state.json.
//
// No paper counterpart: DSN 2004 measures stateless TimeOfDay servers
// (§5); this quantifies the recovery stack the paper's §6 defers.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"

using namespace mead;
using namespace mead::bench;

namespace {

constexpr std::uint32_t kKeySweep[] = {512, 2048, 8192};
constexpr int kIntervalSweepMs[] = {10, 50};

ExperimentSpec state_spec(core::RecoveryScheme scheme, std::uint32_t keys,
                          int interval_ms) {
  ExperimentSpec spec;
  spec.seed = 2004;
  spec.invocations = 2000;
  spec.invoke_timeout = milliseconds(25);
  spec.scheme = scheme;
  app::ServiceGroupSpec g;
  g.scheme = scheme;
  g.state.enabled = true;
  g.state.keys = keys;
  g.state.value_pad = 32;  // ~40 wire bytes/entry: transfer cost is real
  g.state.checkpoint_interval = milliseconds(interval_ms);
  g.state.log_cap = 256;  // never forces an early checkpoint mid-sweep
  // Big states need room: the 8 K-key base alone is ~.3 MB of frames, and
  // the default grace/deadline (3/40 ms) would clip exactly the restores
  // this bench exists to measure.
  g.state.restore_grace = milliseconds(10);
  g.state.restore_deadline = milliseconds(250);
  spec.groups.push_back(std::move(g));
  return spec;
}

/// Mean replica-hole time: for every abrupt replica death that clients
/// actually noticed (a kFailoverBegin before the next registration),
/// milliseconds until that next — restore-gated — Naming registration.
/// The client-visibility filter drops the deaths that cost the group
/// nothing: a proactively replaced incarnation crashing AFTER its
/// replacement registered would otherwise pair with the next
/// rejuvenation cycle's registration, hundreds of ms away.
double mean_hole_ms(app::Experiment& exp) {
  const auto& events = exp.obs().trace().events();
  double total = 0;
  int holes = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    if (e.kind != obs::EventKind::kCrash ||
        e.actor.rfind("replica/", 0) != 0) {
      continue;
    }
    bool client_noticed = false;
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      if (events[j].kind == obs::EventKind::kFailoverBegin) {
        client_noticed = true;
      } else if (events[j].kind == obs::EventKind::kReplicaRegistered) {
        if (client_noticed) {
          total += (events[j].at - e.at).ms();
          ++holes;
        }
        break;
      }
    }
  }
  return holes > 0 ? total / holes : 0;
}

}  // namespace

int main() {
  std::vector<ExperimentSpec> specs;
  std::vector<std::string> labels;
  for (const auto scheme :
       {core::RecoveryScheme::kReactiveNoCache,
        core::RecoveryScheme::kReactiveCache,
        core::RecoveryScheme::kNeedsAddressing,
        core::RecoveryScheme::kLocationForward,
        core::RecoveryScheme::kMeadMessage}) {
    for (const auto keys : kKeySweep) {
      for (const int interval_ms : kIntervalSweepMs) {
        specs.push_back(state_spec(scheme, keys, interval_ms));
        labels.push_back(std::string(core::to_string(scheme)) + "/keys" +
                         std::to_string(keys) + "/ckpt" +
                         std::to_string(interval_ms) + "ms");
      }
    }
  }

  std::printf("Stateful-service restore: leak-driven failures, "
              "restore-gated announce, seed 2004\n\n");
  std::printf("%-38s %9s %9s %10s %9s %11s\n", "Run", "Restores",
              "Restore", "Hole", "Replayed", "Ckpt KB");

  PerfReport perf("state");
  int rc = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    app::Experiment exp(specs[i]);
    const ExperimentResult r = exp.run();
    const auto& st = specs[i].groups[0].state;
    const double recovery_ms = mean_hole_ms(exp);
    perf.add(specs[i], r, labels[i],
             {{"state_keys", static_cast<double>(st.keys)},
              {"ckpt_interval_ms", st.checkpoint_interval.ms()},
              {"restore_ms", r.state_restore_ms},
              {"recovery_ms", recovery_ms}});
    std::printf("%-38s %9llu %7.2fms %8.2fms %9llu %11.1f\n",
                labels[i].c_str(),
                static_cast<unsigned long long>(r.state_restores),
                r.state_restore_ms, recovery_ms,
                static_cast<unsigned long long>(
                    r.counter("state.replay.msgs")),
                static_cast<double>(r.counter("state.ckpt.bytes")) / 1024.0);
    if (r.state_restores == 0) {
      std::fprintf(stderr, "%s: no restore happened\n", labels[i].c_str());
      rc = 1;
    }
    if (!r.state_ok) {
      std::fprintf(stderr, "%s: state digest invariant violated\n",
                   labels[i].c_str());
      rc = 1;
    }
    if (r.total_invocations() !=
        static_cast<std::uint64_t>(specs[i].invocations)) {
      std::fprintf(stderr, "%s: client lost invocations\n",
                   labels[i].c_str());
      rc = 1;
    }
  }

  if (!perf.write()) {
    std::fprintf(stderr, "could not write BENCH_state.json\n");
    return 1;
  }
  return rc;
}

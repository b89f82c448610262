// Proactive-migration bench: what does a leaking stateful primary cost
// the client under each defence, as the application state grows?
//
//   reactive         kReactiveNoCache, no planner: the leak exhausts the
//                    primary, it crashes, and the client eats detection +
//                    launch + restore. window_ms is the mean client-
//                    noticed replica hole (kCrash -> next restore-gated
//                    kReplicaRegistered) and grows with state size.
//   proactive-spawn  kMeadMessage: the threshold machinery spawns a
//                    replacement when usage crosses the line; the
//                    replacement restores and registers before the old
//                    incarnation exits, so window_ms is 0.
//   migration        kReactiveNoCache + MigrationSpec.horizon: no
//                    threshold scheme at all — the Recovery Manager
//                    trends usage reports, pre-warms a standby, and
//                    rotates with an atomic drain/handoff before the
//                    predicted exhaustion. window_ms is 0 and the drain
//                    (drain_ms) is a flat, server-side cost independent
//                    of state size.
//
// ci/check_bench_regression.py enforces the headline trend from this
// file's BENCH_migration.json: migration's window_ms stays strictly
// below reactive's at EVERY state size.
//
// A second sweep covers the kQuorum read plane: crash the serving
// replica of a quorum group mid-run and count client exceptions inside
// the rejoiner's catch-up window (kRestoreBegin..kRestoreEnd). The
// rejoiner counts for writes immediately but is excluded from reads
// until kCatchupDone, so read availability must be flat through the
// rejoin: catchup_exceptions is exactly 0, also CI-enforced.
//
// No paper counterpart: DSN 2004 rejuvenates on a static threshold
// (§4); this quantifies the prediction-driven rotation and the quorum
// read plane the paper leaves open.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"

using namespace mead;
using namespace mead::bench;

namespace {

constexpr std::uint32_t kKeySweep[] = {512, 2048, 8192};

/// Common stateful-group skeleton; every mode edits the defence knobs.
ExperimentSpec base_spec(core::RecoveryScheme scheme, std::uint32_t keys) {
  ExperimentSpec spec;
  spec.seed = 2004;
  spec.invocations = 2000;
  spec.invoke_timeout = milliseconds(25);
  spec.scheme = scheme;
  app::ServiceGroupSpec g;
  g.scheme = scheme;
  g.state.enabled = true;
  g.state.keys = keys;
  g.state.value_pad = 32;
  g.state.checkpoint_interval = milliseconds(20);
  g.state.log_cap = 256;
  // Same headroom as bench_state: the 8 K-key base snapshot would not fit
  // the default restore grace/deadline.
  g.state.restore_grace = milliseconds(10);
  g.state.restore_deadline = milliseconds(250);
  spec.groups.push_back(std::move(g));
  return spec;
}

ExperimentSpec migration_spec(std::uint32_t keys) {
  ExperimentSpec spec = base_spec(core::RecoveryScheme::kReactiveNoCache, keys);
  // The planner is the only proactive defence: any rotation is its doing.
  spec.groups[0].migration.horizon = seconds(2);
  return spec;
}

ExperimentSpec quorum_spec(std::uint32_t keys) {
  ExperimentSpec spec = base_spec(core::RecoveryScheme::kLocationForward, keys);
  spec.routing = orb::RoutingPolicy::kRoundRobin;
  spec.groups[0].style = core::ReplicationStyle::kQuorum;
  spec.groups[0].inject_leak = false;
  // Kill the serving replica mid-run: the relaunch announces immediately
  // (write quorum) and catches up online while its peers carry the reads.
  spec.chaos.crash_process(milliseconds(200), app::kServiceName);
  return spec;
}

/// Mean client-noticed replica-hole time (same definition as bench_state):
/// for every abrupt replica death a client actually noticed (a
/// kFailoverBegin before the next registration), milliseconds until the
/// next restore-gated Naming registration.
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

/// Client exceptions inside the rejoiner's catch-up window
/// (kRestoreBegin..kRestoreEnd). Returns -1 when no restore ever closed —
/// the run did not measure a rejoin at all.
double catchup_exceptions(app::Experiment& exp) {
  const auto& events = exp.obs().trace().events();
  TimePoint begin{};
  TimePoint end{};
  bool caught_up = false;
  for (const auto& ev : events) {
    if (ev.kind == obs::EventKind::kRestoreBegin) begin = ev.at;
    if (ev.kind == obs::EventKind::kRestoreEnd) {
      end = ev.at;
      caught_up = true;
    }
  }
  if (!caught_up) return -1;
  double n = 0;
  for (const auto& ev : events) {
    if (ev.kind == obs::EventKind::kClientException && begin <= ev.at &&
        ev.at <= end) {
      ++n;
    }
  }
  return n;
}

}  // namespace

int main() {
  std::printf("Prediction-driven migration vs reactive recovery, and the\n"
              "quorum read plane through a rejoin (seed 2004)\n\n");
  std::printf("%-28s %9s %9s %9s %9s %9s\n", "Run", "Window", "Drain",
              "Rotates", "Reactive", "Proactive");

  PerfReport perf("migration");
  int rc = 0;

  struct Mode {
    const char* name;
    ExperimentSpec (*make)(std::uint32_t keys);
  };
  const Mode modes[] = {
      {"reactive",
       [](std::uint32_t keys) {
         return base_spec(core::RecoveryScheme::kReactiveNoCache, keys);
       }},
      {"proactive-spawn",
       [](std::uint32_t keys) {
         return base_spec(core::RecoveryScheme::kMeadMessage, keys);
       }},
      {"migration", migration_spec},
  };

  for (const Mode& mode : modes) {
    for (const std::uint32_t keys : kKeySweep) {
      const ExperimentSpec spec = mode.make(keys);
      const std::string label =
          std::string(mode.name) + "/keys" + std::to_string(keys);
      app::Experiment exp(spec);
      const ExperimentResult r = exp.run();
      const double window_ms = mean_hole_ms(exp);
      const std::uint64_t rotations = r.counter("rm.migrations");
      const double drain_ms =
          rotations > 0 ? static_cast<double>(r.counter("mead.handoff_ms")) /
                              static_cast<double>(rotations)
                        : 0;
      const std::string& svc = r.group_results[0].service;
      const std::uint64_t reactive = r.counter("rm.reactive_launches." + svc);
      perf.add(spec, r, label,
               {{"state_keys", static_cast<double>(keys)},
                {"window_ms", window_ms},
                {"drain_ms", drain_ms},
                {"rotations", static_cast<double>(rotations)}});
      std::printf("%-28s %7.2fms %7.2fms %9llu %9llu %9llu\n", label.c_str(),
                  window_ms, drain_ms,
                  static_cast<unsigned long long>(rotations),
                  static_cast<unsigned long long>(reactive),
                  static_cast<unsigned long long>(
                      r.counter("rm.proactive_launches." + svc)));
      if (!r.state_ok) {
        std::fprintf(stderr, "%s: state digest invariant violated\n",
                     label.c_str());
        rc = 1;
      }
      if (r.total_invocations() !=
          static_cast<std::uint64_t>(spec.invocations)) {
        std::fprintf(stderr, "%s: client lost invocations\n", label.c_str());
        rc = 1;
      }
      const bool is_migration = std::string(mode.name) == "migration";
      const bool is_reactive = std::string(mode.name) == "reactive";
      if (is_reactive && window_ms <= 0) {
        std::fprintf(stderr, "%s: no client-noticed hole measured\n",
                     label.c_str());
        rc = 1;
      }
      if (is_migration &&
          (rotations == 0 || reactive != 0)) {
        std::fprintf(stderr,
                     "%s: planner did not preempt the leak "
                     "(rotations=%llu, reactive launches=%llu)\n",
                     label.c_str(),
                     static_cast<unsigned long long>(rotations),
                     static_cast<unsigned long long>(reactive));
        rc = 1;
      }
    }
  }

  std::printf("\n%-28s %9s %9s %9s %9s\n", "Quorum rejoin", "CatchEx",
              "ClientEx", "QReads", "Repairs");
  for (const std::uint32_t keys : kKeySweep) {
    const ExperimentSpec spec = quorum_spec(keys);
    const std::string label = "quorum-rejoin/keys" + std::to_string(keys);
    app::Experiment exp(spec);
    const ExperimentResult r = exp.run();
    const double catch_ex = catchup_exceptions(exp);
    const app::GroupResult& g = r.group_results[0];
    perf.add(spec, r, label,
             {{"state_keys", static_cast<double>(keys)},
              {"catchup_exceptions", catch_ex},
              {"client_exceptions", static_cast<double>(g.client_exceptions)},
              {"quorum_reads", static_cast<double>(r.quorum_reads)}});
    std::printf("%-28s %9.0f %9llu %9llu %9llu\n", label.c_str(), catch_ex,
                static_cast<unsigned long long>(g.client_exceptions),
                static_cast<unsigned long long>(r.quorum_reads),
                static_cast<unsigned long long>(r.quorum_repairs));
    if (catch_ex < 0) {
      std::fprintf(stderr, "%s: no rejoin catch-up happened\n", label.c_str());
      rc = 1;
    }
    if (!r.state_ok) {
      std::fprintf(stderr, "%s: state digest invariant violated\n",
                   label.c_str());
      rc = 1;
    }
    if (r.quorum_reads == 0) {
      std::fprintf(stderr, "%s: no confirm reads recorded\n", label.c_str());
      rc = 1;
    }
    if (r.total_invocations() != static_cast<std::uint64_t>(spec.invocations)) {
      std::fprintf(stderr, "%s: client lost invocations\n", label.c_str());
      rc = 1;
    }
  }

  if (!perf.write()) {
    std::fprintf(stderr, "could not write BENCH_migration.json\n");
    return 1;
  }
  return rc;
}

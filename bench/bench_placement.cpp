// Algorithmic placement bench: what does a host failure cost the Recovery
// Manager in placement traffic as the group count grows?
//
// Sweep: {16, 64} two-replica groups on a fixed 50-worker pool under the
// algorithmic policy (jump-hash over the published alive universe), with
// a failure burst of {1, 4} worker-node crashes mid-run. The RM runs
// replicated (two replicas) so the epoch frames are real wire traffic,
// not a solo no-op.
//
// The claim under test (DESIGN.md §3.10): the manager publishes ONE
// alive-epoch frame per failure and every replica computes the same
// replacement locally, so the per-failure placement traffic is O(1) in
// the group count. Each run records
//   placement_frames   "rm.placement.frames" delta
//   reactive_launches  the recovery work itself
// into BENCH_placement.json; ci/check_bench_regression.py holds the
// frames exactly equal across group counts (per burst) — the O(1)
// regression guard.
//
// No paper counterpart: DSN 2004 places replicas statically (§4).
#include <chrono>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "harness.h"

using namespace mead;
using namespace mead::bench;

namespace {

constexpr int kInvocationsPerGroup = 300;

/// Crash victims are the FIRST `burst` workers: stripe_hosts places group g
/// on workers 2g and 2g+1 (wrapping at 25 groups), so the early workers
/// carry one replica at 16 groups and three at 64 — the burst always hits
/// live replicas at both scales. The RM pair lives on the last two workers,
/// which no burst touches.
ExperimentSpec spec_for(std::size_t group_count, int burst) {
  ExperimentSpec spec;
  spec.seed = 2004;
  spec.invocations = kInvocationsPerGroup;
  spec.inject_leak = false;
  spec.invoke_timeout = milliseconds(25);
  spec.topology = app::ClusterTopology::uniform(52);  // fifty workers
  const auto& workers = spec.topology.worker_nodes;
  for (std::size_t g = 0; g < group_count; ++g) {
    app::ServiceGroupSpec s;
    if (g > 0) s.service = "Svc" + std::to_string(g);
    s.replica_count = 2;
    s.inject_leak = false;
    s.placement = core::PlacementPolicy::kAlgorithmic;
    spec.groups.push_back(std::move(s));
  }
  spec.rm.replicas = 2;
  spec.rm.hosts = {workers[workers.size() - 2], workers.back()};
  for (int i = 0; i < burst; ++i) {
    spec.chaos.crash_node(milliseconds(200 + 10 * i), workers[i]);
  }
  return spec;
}

}  // namespace

int main() {
  const std::vector<std::size_t> group_counts = {16, 64};
  const std::vector<int> bursts = {1, 4};

  std::printf("Algorithmic placement sweep: 2-replica groups on 50 workers, "
              "replicated RM, crash burst at 200 ms\n\n");
  std::printf("%-7s %-6s %12s %10s %12s %10s\n", "Groups", "Burst",
              "PlaceFrames", "Reactive", "Events", "Wall(ms)");

  PerfReport perf("placement");
  // frames[{groups, burst}] for the O(1) cross-check below.
  std::vector<std::tuple<std::size_t, int, std::uint64_t>> frames_seen;
  int rc = 0;
  for (const std::size_t groups : group_counts) {
    for (const int burst : bursts) {
      const ExperimentSpec spec = spec_for(groups, burst);
      app::Experiment exp(spec);
      if (!exp.start()) {
        std::fprintf(stderr, "%zu/%d: start failed\n", groups, burst);
        return 1;
      }
      const auto wall0 = std::chrono::steady_clock::now();
      exp.launch_client();
      exp.run_to_completion();
      exp.sim().run_for(milliseconds(800));  // replacements settle
      ExperimentResult r = exp.collect();
      r.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - wall0)
                      .count();

      const std::uint64_t frames = r.counter("rm.placement.frames");
      std::uint64_t reactive = 0;
      for (const auto& g : r.group_results) {
        reactive += r.counter("rm.reactive_launches." + g.service);
      }

      const std::string label = "algorithmic " + std::to_string(groups) +
                                " groups burst" + std::to_string(burst);
      perf.add(spec, r, label,
               {{"placement_frames", static_cast<double>(frames)},
                {"reactive_launches", static_cast<double>(reactive)},
                {"burst", static_cast<double>(burst)},
                {"algorithmic", 1.0}});
      std::printf("%-7zu %-6d %12llu %10llu %12llu %10.1f\n", groups, burst,
                  static_cast<unsigned long long>(frames),
                  static_cast<unsigned long long>(reactive),
                  static_cast<unsigned long long>(r.sim_events), r.wall_ms);

      if (r.total_invocations() !=
          static_cast<std::uint64_t>(kInvocationsPerGroup) * groups) {
        std::fprintf(stderr, "%s: incomplete (%llu invocations)\n",
                     label.c_str(),
                     static_cast<unsigned long long>(r.total_invocations()));
        rc = 1;
      }
      if (frames == 0) {
        std::fprintf(stderr, "%s: no placement frames recorded\n",
                     label.c_str());
        rc = 1;
      }
      frames_seen.emplace_back(groups, burst, frames);
    }
  }

  // The O(1) property, checked in-process too: per burst, the frame count
  // must not depend on the group count.
  auto frames_of = [&](std::size_t g, int b) -> std::uint64_t {
    for (const auto& [gg, bb, f] : frames_seen) {
      if (gg == g && bb == b) return f;
    }
    return 0;
  };
  for (const int burst : bursts) {
    const std::uint64_t a16 = frames_of(16, burst);
    const std::uint64_t a64 = frames_of(64, burst);
    if (a16 != a64) {
      std::fprintf(stderr,
                   "burst %d: algorithmic frames scale with groups "
                   "(16 -> %llu, 64 -> %llu)\n",
                   burst, static_cast<unsigned long long>(a16),
                   static_cast<unsigned long long>(a64));
      rc = 1;
    }
  }

  if (!perf.write()) {
    std::fprintf(stderr, "could not write BENCH_placement.json\n");
    return 1;
  }
  return rc;
}

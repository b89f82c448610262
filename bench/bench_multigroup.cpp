// Multi-group scale sweep: 1 -> 16 independent 3-replica service groups on
// a node pool that grows with the group count (three workers per group,
// plus the naming/RM node and the client node). Each group runs its own
// measurement client, so the simulated workload — and the group-
// communication mesh underneath it — scales with the group count.
//
// Two sweeps back to back:
//  * legacy:  1..16 groups on the default plane (single sequencer, full
//    broadcast), three fresh workers per group — the historical labels and
//    topologies, kept deterministic;
//  * scaled: 16..128 groups with the scaled GC plane (sharded sequencers,
//    interest-scoped delivery, batched mesh writes, delta read sets) on a
//    FIXED 50-node pool (the 16-group shape): the tentpole claim is that GC
//    cost scales with group *interest*, not cluster size, so the scale axis
//    is groups packed onto the same cluster. The per-run
//    events_per_group_per_sec (simulated-time basis) / gc_bps_per_group
//    fields in BENCH_multigroup.json are what ci/check_bench_regression.py's
//    flatness guard watches: per-group cost must stay near-flat 16 -> 64.
//
// No paper counterpart: the DSN 2004 testbed hosts exactly one group. This
// bench tracks how the simulator's throughput holds up as the cluster
// model grows, and writes BENCH_multigroup.json for the perf trajectory.
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"

using namespace mead;
using namespace mead::bench;

namespace {

ExperimentSpec spec_for(std::size_t group_count, int invocations,
                        bool scaled_plane) {
  ExperimentSpec spec;
  spec.seed = 2004;
  spec.invocations = invocations;
  // Legacy sweep: three dedicated workers per group (collision-free
  // placement at every scale; +2 for the naming/RM node and the client
  // node). Scaled sweep: the 16-group node pool, held fixed — groups are
  // the scale axis, replicas stripe over the shared workers.
  const std::size_t pool = scaled_plane ? 16 : group_count;
  spec.topology = app::ClusterTopology::uniform(3 * pool + 2);
  for (std::size_t i = 0; i < group_count; ++i) {
    app::ServiceGroupSpec g;
    if (i > 0) g.service = "Svc" + std::to_string(i);
    spec.groups.push_back(std::move(g));
  }
  if (scaled_plane) {
    spec.gc_plane = gc::PlaneOptions::scaled();
  }
  return spec;
}

}  // namespace

int main() {
  constexpr int kInvocationsPerGroup = 2000;
  const std::vector<std::size_t> legacy_counts = {1, 2, 4, 8, 16};
  const std::vector<std::size_t> scaled_counts = {16, 32, 64, 128};

  std::printf("Multi-group scale sweep: N x (3-replica group + client), "
              "%d invocations per group\n\n", kInvocationsPerGroup);

  Sweep sweep("multigroup");
  for (std::size_t g : legacy_counts) {
    sweep.add(spec_for(g, kInvocationsPerGroup, /*scaled_plane=*/false),
              std::to_string(g) + " groups x 3 replicas");
  }
  for (std::size_t g : scaled_counts) {
    sweep.add(spec_for(g, kInvocationsPerGroup, /*scaled_plane=*/true),
              std::to_string(g) + " groups x 3 replicas (scaled)");
  }
  const auto& results = sweep.run();

  std::printf("%-10s %-8s %-7s %12s %12s %10s %14s %16s\n", "Plane",
              "Groups", "Nodes", "Invocations", "Events", "Wall(ms)",
              "Events/sec", "SimEv/grp/sec");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const ExperimentSpec& spec = sweep.specs()[i];
    const ExperimentResult& r = results[i];
    const double eps =
        r.wall_ms > 0
            ? static_cast<double>(r.sim_events) * 1000.0 / r.wall_ms
            : 0;
    // Last column is the flatness metric: events per group per *simulated*
    // second (see harness.h) — near-constant down the scaled sweep.
    const double sim_pg =
        r.duration_s > 0 ? static_cast<double>(r.sim_events) / r.duration_s /
                               static_cast<double>(spec.groups.size())
                         : 0;
    std::printf("%-10s %-8zu %-7zu %12llu %12llu %10.1f %14.0f %16.0f\n",
                spec.gc_plane.sharded ? "scaled" : "legacy", spec.groups.size(),
                spec.topology.nodes.size(),
                static_cast<unsigned long long>(r.total_invocations()),
                static_cast<unsigned long long>(r.sim_events), r.wall_ms, eps,
                sim_pg);
    if (r.total_invocations() !=
        static_cast<std::uint64_t>(kInvocationsPerGroup) * spec.groups.size()) {
      std::fprintf(stderr, "run %zu incomplete: %llu invocations\n", i,
                   static_cast<unsigned long long>(r.total_invocations()));
      return 1;
    }
  }

  // ROADMAP item 2: host cost per simulated event should not grow with the
  // group count (target <= 1.5x). Compares the last run (128 groups,
  // scaled plane) with the first (1 group, legacy plane).
  auto host_ns_per_event = [&](std::size_t i) {
    return results[i].sim_events > 0
               ? results[i].wall_ms * 1e6 /
                     static_cast<double>(results[i].sim_events)
               : 0.0;
  };
  const double base = host_ns_per_event(0);
  const double top = host_ns_per_event(sweep.size() - 1);
  std::printf("\nHost ns/event, %zu scaled groups / %zu legacy group: "
              "%.1f / %.1f = %.2fx\n",
              sweep.specs().back().groups.size(),
              sweep.specs().front().groups.size(), top, base,
              base > 0 ? top / base : 0.0);

  return sweep.finish();
}

// Recovery Manager replication bench: what does running the RM as its own
// self-supervised GC group cost, and what does it buy when the manager
// itself dies mid-recovery?
//
// Four scenarios share one cluster (eight nodes, six workers, one
// 3-replica group under algorithmic placement) and one fault: a
// worker-node crash at 200 ms that takes a service replica with it. They
// differ only in the RM deployment and in which RM host (if any) is also
// crashed:
//
//   solo            the paper's single manager (RmSpec default)
//   replicated      three RM replicas on workers w3..w5, none crashed
//   backup-crash    a non-acting RM host dies before the worker crash
//   leader-crash    RM replica 0's host dies 10 ms after the worker crash,
//                   while the replacement's launch slot is still pending —
//                   the promoted backup must re-drive it
//
// For each run the bench reports the recovery latency (worker crash ->
// replacement registered with Naming), the RM failover count, and the GC
// byte overhead of replicating the manager. Writes BENCH_rm.json.
//
// No paper counterpart: DSN 2004 leaves the Recovery Manager a single
// point of failure (§6).
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"

using namespace mead;
using namespace mead::bench;

namespace {

/// All scenarios use a 20 ms launch delay: wide enough that leader-crash
/// reliably lands inside the replacement's launch window.
ExperimentSpec base_spec() {
  ExperimentSpec spec;
  spec.seed = 2004;
  spec.invocations = 2000;
  spec.inject_leak = false;
  spec.invoke_timeout = milliseconds(25);
  spec.topology = app::ClusterTopology::uniform(8);  // six workers
  app::ServiceGroupSpec g;
  g.replica_count = 3;
  g.inject_leak = false;
  g.placement = core::PlacementPolicy::kAlgorithmic;
  spec.groups.push_back(std::move(g));
  spec.rm.launch_delay = milliseconds(20);
  return spec;
}

/// Milliseconds from `t0` to the first replica registration after it;
/// negative if recovery never completed.
double recovery_after(app::Experiment& exp, TimePoint t0) {
  for (const auto& e : exp.obs().trace().events()) {
    if (e.kind == obs::EventKind::kReplicaRegistered && e.at > t0) {
      return (e.at - t0).ms();
    }
  }
  return -1;
}

}  // namespace

int main() {
  const TimePoint worker_crash = TimePoint{} + milliseconds(200);

  std::vector<std::string> labels;
  std::vector<ExperimentSpec> specs;
  {
    ExperimentSpec solo = base_spec();
    labels.push_back("solo");
    specs.push_back(std::move(solo));
  }
  for (const char* label : {"replicated", "backup-crash", "leader-crash"}) {
    ExperimentSpec spec = base_spec();
    const auto& workers = spec.topology.worker_nodes;
    spec.rm.replicas = 3;
    // RM replicas live on workers the service group does not use (the
    // default stripe places the three service replicas on w0..w2).
    spec.rm.hosts = {workers[3], workers[4], workers[5]};
    if (std::string(label) == "backup-crash") {
      spec.chaos.crash_node(milliseconds(150), workers[4]);
    }
    if (std::string(label) == "leader-crash") {
      spec.chaos.crash_node(milliseconds(210), workers[3]);
    }
    labels.push_back(label);
    specs.push_back(std::move(spec));
  }
  for (auto& spec : specs) {
    spec.chaos.crash_node(milliseconds(200),
                          spec.topology.worker_nodes[0]);
  }

  std::printf("Recovery Manager replication: worker crash at 200 ms, "
              "launch delay 20 ms\n\n");
  std::printf("%-14s %-4s %10s %12s %10s %12s %10s\n", "Scenario", "RMs",
              "Recovery", "Failovers", "Events", "GC bytes", "Wall(ms)");

  PerfReport perf("rm");
  std::uint64_t solo_gc = 0;
  int rc = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    app::Experiment exp(specs[i]);
    const ExperimentResult r = exp.run();
    const double rec_ms = recovery_after(exp, worker_crash);
    const std::uint64_t rm_failovers = r.counter("rm.failovers");
    // recovery_ms is simulated time — deterministic per seed — so the CI
    // regression check can hold it to a tight latency budget.
    perf.add(specs[i], r, labels[i],
             {{"recovery_ms", rec_ms},
              {"rm_failovers", static_cast<double>(rm_failovers)}});
    if (i == 0) solo_gc = r.gc_bytes;
    std::printf("%-14s %-4zu %8.1fms %12llu %10llu %12llu %10.1f\n",
                labels[i].c_str(), specs[i].rm.replicas, rec_ms,
                static_cast<unsigned long long>(rm_failovers),
                static_cast<unsigned long long>(r.sim_events),
                static_cast<unsigned long long>(r.gc_bytes), r.wall_ms);
    if (rec_ms < 0) {
      std::fprintf(stderr, "%s: recovery never completed\n", labels[i].c_str());
      rc = 1;
    }
    if (labels[i] == "leader-crash" && rm_failovers == 0) {
      std::fprintf(stderr, "leader-crash: no RM failover recorded\n");
      rc = 1;
    }
  }
  if (solo_gc > 0) {
    std::printf("\n(gc-byte overhead of replicating the RM is visible in the "
                "GC bytes column; solo = %llu)\n",
                static_cast<unsigned long long>(solo_gc));
  }

  if (!perf.write()) {
    std::fprintf(stderr, "could not write BENCH_rm.json\n");
    return 1;
  }
  return rc;
}

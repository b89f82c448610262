#include "workloads.h"

#include <algorithm>
#include <chrono>

namespace perfbench {

namespace app = mead::app;
namespace core = mead::core;
using mead::milliseconds;

namespace {

constexpr core::RecoveryScheme kSchemes[] = {
    core::RecoveryScheme::kReactiveNoCache,
    core::RecoveryScheme::kReactiveCache,
    core::RecoveryScheme::kNeedsAddressing,
    core::RecoveryScheme::kLocationForward,
    core::RecoveryScheme::kMeadMessage,
};

// Simulation seeds per workload, and how many of them every pass reruns.
// Simulated metrics are exact per seed but vary between seeds with the
// number and mix of failures, so their seed-to-seed spread falls only with
// more failures in the first pass. Host time is noisy over time on a
// shared machine, so it wants many short repeats. The first pass runs
// every seed; later passes rerun the leading seeds only.
constexpr std::uint64_t kTable1Seeds = 5;
constexpr std::uint64_t kTable1Repeated = 5;
constexpr std::uint64_t kStateSeeds = 15;
constexpr std::uint64_t kStateRepeated = 2;
constexpr std::uint64_t kScaledSeeds = 3;
constexpr std::uint64_t kScaledRepeated = 1;

constexpr int kStateInvocations = 2000;
constexpr std::size_t kScaledGroups = 64;
constexpr int kScaledInvocations = 2000;

// Same bound as Experiment::run_to_completion: 300 s of simulated time.
constexpr std::size_t kMaxSlices = 3000;

std::string label_for(core::RecoveryScheme scheme, std::uint64_t offset) {
  return std::string(core::to_string(scheme)) + " seed+" +
         std::to_string(offset);
}

// The paper's §5 setup: five nodes, one stateless TimeOfDay group, solo
// RM, legacy GC plane, 10,000 invocations per scheme. Seed offset 0 with
// --seed 2004 is the run behind the committed Table 1 anchors.
Workload paper_table1(std::uint64_t seed) {
  Workload w;
  w.name = "paper_table1";
  w.workers = app::ClusterTopology::paper().worker_nodes;
  w.repeated = kTable1Repeated * std::size(kSchemes);
  for (std::uint64_t s = 0; s < kTable1Seeds; ++s) {
    for (const auto scheme : kSchemes) {
      app::ExperimentSpec spec;
      spec.scheme = scheme;
      spec.seed = seed + s;
      w.sims.push_back({label_for(scheme, s), std::move(spec)});
    }
  }
  return w;
}

// One stateful group with 8192 keys and 32 pad bytes per entry,
// checkpointed every 10 ms, with bench_state's restore grace and deadline
// (the 8 K-key base is ~0.3 MB of frames; the default 3/40 ms would clip
// the restores this workload measures).
Workload stateful_restore(std::uint64_t seed) {
  Workload w;
  w.name = "stateful_restore";
  w.stateful = true;
  w.workers = app::ClusterTopology::paper().worker_nodes;
  w.state.enabled = true;
  w.state.keys = 8192;
  w.state.value_pad = 32;
  w.state.checkpoint_interval = milliseconds(10);
  w.state.log_cap = 256;
  w.state.restore_grace = milliseconds(10);
  w.state.restore_deadline = milliseconds(250);
  w.repeated = kStateRepeated * std::size(kSchemes);
  for (std::uint64_t s = 0; s < kStateSeeds; ++s) {
    for (const auto scheme : kSchemes) {
      app::ExperimentSpec spec;
      spec.scheme = scheme;
      spec.seed = seed + s;
      spec.invocations = kStateInvocations;
      spec.invoke_timeout = milliseconds(25);
      app::ServiceGroupSpec g;
      g.scheme = scheme;
      g.state = w.state;
      spec.groups.push_back(std::move(g));
      w.sims.push_back({label_for(scheme, s), std::move(spec)});
    }
  }
  return w;
}

// 64 three-replica groups on a fixed 50-node pool (48 workers), the scaled
// GC plane and algorithmic placement, solo RM. Groups cycle through the
// five schemes, so every recovery path runs at scale and client failures
// (from the reactive groups) are never zero. Worker node1 crashes mid-run;
// it hosts replicas of groups 0, 16, 32 and 48, which recover together. A
// replicated RM fails bring-up at this size on the scaled plane ("only 0
// of 3 replicas came up"; see README.md), hence the solo RM.
Workload scaled_groups(std::uint64_t seed) {
  Workload w;
  w.name = "scaled_groups";
  w.groups = kScaledGroups;
  const auto topology = app::ClusterTopology::uniform(50);
  w.workers = topology.worker_nodes;
  w.repeated = kScaledRepeated;
  for (std::uint64_t s = 0; s < kScaledSeeds; ++s) {
    app::ExperimentSpec spec;
    spec.seed = seed + s;
    spec.invocations = kScaledInvocations;
    spec.topology = topology;
    spec.gc_plane = mead::gc::PlaneOptions::scaled();
    for (std::size_t i = 0; i < kScaledGroups; ++i) {
      app::ServiceGroupSpec g;
      if (i > 0) g.service = "Svc" + std::to_string(i);
      g.scheme = kSchemes[i % std::size(kSchemes)];
      g.placement = core::PlacementPolicy::kAlgorithmic;
      spec.groups.push_back(std::move(g));
    }
    spec.chaos.crash_node(milliseconds(1000), topology.worker_nodes.front());
    w.sims.push_back({"mixed seed+" + std::to_string(s), std::move(spec)});
  }
  return w;
}

double ns_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "paper_table1", "stateful_restore", "scaled_groups"};
  return names;
}

std::optional<Workload> make_workload(std::string_view name,
                                      std::uint64_t seed) {
  if (name == "paper_table1") return paper_table1(seed);
  if (name == "stateful_restore") return stateful_restore(seed);
  if (name == "scaled_groups") return scaled_groups(seed);
  return std::nullopt;
}

bool SimOutcome::same_simulation(const SimOutcome& o) const {
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    if (counters[i] != o.counters[i]) return false;
  }
  return error == o.error && expected == o.expected &&
         completed == o.completed && exceptions == o.exceptions &&
         naming_refreshes == o.naming_refreshes && rtt_ms == o.rtt_ms &&
         failover_ms == o.failover_ms &&
         server_failures == o.server_failures && gc_bytes == o.gc_bytes &&
         duration_s == o.duration_s && state_ok == o.state_ok &&
         restores == o.restores && restore_ms == o.restore_ms &&
         steady_rtt_ms == o.steady_rtt_ms && slices == o.slices &&
         events == o.events &&
         trace_emitted == o.trace_emitted && trace_dropped == o.trace_dropped;
}

SimOutcome run_sim(const SimRun& run, bool sliced) {
  using Clock = std::chrono::steady_clock;
  SimOutcome out;
  out.label = run.label;
  // One client per group (clients_per_group stays 1 on every workload).
  out.expected = static_cast<std::uint64_t>(run.spec.invocations) *
                 std::max<std::size_t>(1, run.spec.groups.size());

  const auto t0 = Clock::now();
  app::Experiment exp(run.spec);
  const auto up = exp.start();
  const auto t1 = Clock::now();
  out.host.setup_ns = ns_between(t0, t1);
  if (!up) {
    out.error = up.error().reason;
    return out;
  }

  const auto& metrics = exp.obs().metrics();
  std::uint64_t base[kCounterCount];
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    base[i] = metrics.counter_value(kCounters[i]);
  }
  const std::uint64_t events0 = exp.sim().events_processed();
  const std::uint64_t emitted0 = exp.obs().trace().total_emitted();

  const auto t2 = Clock::now();
  exp.launch_client();
  const auto t3 = Clock::now();
  auto all_done = [&exp] {
    for (const auto& c : exp.clients()) {
      if (!c->done()) return false;
    }
    return true;
  };
  for (; out.slices < kMaxSlices && !all_done(); ++out.slices) {
    if (sliced) {
      const auto s0 = Clock::now();
      exp.sim().run_for(milliseconds(100));
      out.host.slice_ns.push_back(ns_between(s0, Clock::now()));
    } else {
      exp.sim().run_for(milliseconds(100));
    }
  }
  const auto t4 = Clock::now();
  const app::ExperimentResult r = exp.collect();
  const auto t5 = Clock::now();
  out.host.launch_ns = ns_between(t2, t3);
  out.host.slices_ns = ns_between(t3, t4);
  out.host.collect_ns = ns_between(t4, t5);

  for (std::size_t i = 0; i < kCounterCount; ++i) {
    out.counters[i] = metrics.counter_value(kCounters[i]) - base[i];
  }
  out.events = exp.sim().events_processed() - events0;
  out.trace_emitted = exp.obs().trace().total_emitted() - emitted0;
  out.trace_dropped = exp.obs().trace().dropped();

  for (const auto& c : exp.clients()) {
    const app::ClientResults cr = c->results();
    out.completed += cr.invocations_completed;
    out.exceptions += cr.total_exceptions();
    out.naming_refreshes += cr.naming_refreshes;
    out.steady_rtt_ms += cr.steady_state_rtt_ms() /
                         static_cast<double>(exp.clients().size());
    const auto& rtt = cr.rtt_ms.samples();
    if (rtt.size() > 1) {
      out.rtt_ms.insert(out.rtt_ms.end(), rtt.begin() + 1, rtt.end());
    }
    const auto& fo = cr.failover_ms.samples();
    out.failover_ms.insert(out.failover_ms.end(), fo.begin(), fo.end());
  }
  out.server_failures = r.server_failures;
  out.gc_bytes = r.gc_bytes;
  out.duration_s = r.duration_s;
  out.state_ok = r.state_ok;
  out.restores = r.state_restores;
  out.restore_ms = r.state_restore_ms;
  return out;
}

}  // namespace perfbench

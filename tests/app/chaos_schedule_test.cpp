// Declarative chaos schedules on ExperimentSpec: whole-node crashes that
// take co-located replicas of different groups down together, partitions
// that heal (daemon mesh re-formation), and process-scoped faults — all
// replayed at fixed sim-time offsets so every run is reproducible.
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "app/experiment.h"

namespace mead::app {
namespace {

/// Six nodes (four workers), two 3-replica algorithmic-placement groups:
/// each occupies three of the four workers, so at least two workers host a
/// replica of both — a node crash there hits both groups at once.
ExperimentSpec colocated_spec() {
  ExperimentSpec spec;
  spec.seed = 2004;
  spec.invocations = 600;
  spec.topology = ClusterTopology::uniform(6);
  ServiceGroupSpec a;  // the default TimeOfDay group
  a.inject_leak = false;
  a.placement = core::PlacementPolicy::kAlgorithmic;
  ServiceGroupSpec b = a;
  b.service = "Beta";
  spec.groups = {a, b};
  return spec;
}

/// The hosts bring-up placed each group's replicas on, read from a probe
/// run of `spec`. The chaos schedule is armed only after bring-up, so the
/// probe places exactly as the real run will.
std::vector<std::set<std::string>> initial_hosts(const ExperimentSpec& spec) {
  Experiment probe(spec);
  std::vector<std::set<std::string>> out;
  if (!probe.start()) return out;
  for (const auto& g : probe.testbed().groups()) {
    std::set<std::string>& hosts = out.emplace_back();
    for (const auto& rep : g->replicas()) hosts.insert(rep->endpoint().host);
  }
  return out;
}

/// Algorithmic placements the acting RM made (bootstrap included).
std::uint64_t placements(Experiment& exp) {
  return exp.obs().metrics().counter_value("rm.algorithmic.placements");
}

std::string fingerprint(const ExperimentResult& r) {
  std::ostringstream os;
  os << r.sim_events << '|' << r.server_failures << '|' << r.gc_bytes;
  for (const auto& g : r.group_results) {
    os << ';' << g.service << ':' << g.server_failures << ','
       << g.invocations_completed << ',' << g.client_exceptions << ','
       << g.naming_refreshes;
  }
  // Every registry delta, "chaos.faults" and "rm.*launches.<svc>" included.
  for (const auto& [name, delta] : r.counters) {
    os << ';' << name << '=' << delta;
  }
  return os.str();
}

TEST(ChaosScheduleTest, CoLocatedGroupsEachRecoverOnce) {
  ExperimentSpec spec = colocated_spec();
  // A worker hosting one replica of each group (plus a GC daemon): one node
  // crash, two independent recoveries — exactly one per group.
  const auto hosts = initial_hosts(spec);
  ASSERT_EQ(hosts.size(), 2u);
  std::string shared;
  for (const auto& h : hosts[0]) {
    if (hosts[1].contains(h)) {
      shared = h;
      break;
    }
  }
  ASSERT_FALSE(shared.empty());
  spec.chaos.crash_node(milliseconds(200), shared);
  Experiment exp(spec);
  ASSERT_TRUE(exp.start());
  const std::uint64_t placed0 = placements(exp);
  exp.launch_client();
  exp.run_to_completion();
  // Let the relaunched replicas announce + register before checking degree.
  exp.sim().run_for(milliseconds(500));
  const ExperimentResult r = exp.collect();

  EXPECT_EQ(r.counter("chaos.faults"), 1u);
  ASSERT_EQ(r.group_results.size(), 2u);
  for (const auto& g : r.group_results) {
    EXPECT_EQ(r.counter("rm.reactive_launches." + g.service), 1u)
        << g.service;
    EXPECT_EQ(g.server_failures, 1u) << g.service;
    EXPECT_EQ(g.invocations_completed, 600u) << g.service;
  }
  EXPECT_EQ(placements(exp) - placed0, 2u);  // one replacement per group
  EXPECT_FALSE(exp.testbed().net().node_alive(shared));
  for (const auto& g : exp.testbed().groups()) {
    EXPECT_EQ(g->live_replica_count(), 3u) << g->service();
    for (const auto& rep : g->replicas()) {
      if (rep->alive()) {
        EXPECT_NE(rep->endpoint().host, shared);
      }
    }
  }
}

TEST(ChaosScheduleTest, AlgorithmicNeverPlacesOnDeadNode) {
  ExperimentSpec spec;
  spec.seed = 2004;
  spec.invocations = 800;
  spec.topology = ClusterTopology::uniform(10);  // eight workers
  for (int i = 0; i < 2; ++i) {
    ServiceGroupSpec g;
    if (i > 0) g.service = "Svc1";
    g.inject_leak = false;
    g.placement = core::PlacementPolicy::kAlgorithmic;
    spec.groups.push_back(std::move(g));
  }
  // Two crashes, each taking a replica of exactly one group. Both
  // replacements must route around the dead hosts.
  const auto hosts = initial_hosts(spec);
  ASSERT_EQ(hosts.size(), 2u);
  std::string victims[2];
  for (std::size_t i = 0; i < 2; ++i) {
    for (const auto& h : hosts[i]) {
      if (!hosts[1 - i].contains(h)) {
        victims[i] = h;
        break;
      }
    }
    ASSERT_FALSE(victims[i].empty()) << i;
  }
  spec.chaos.crash_node(milliseconds(150), victims[0]);
  spec.chaos.crash_node(milliseconds(300), victims[1]);
  Experiment exp(spec);
  ASSERT_TRUE(exp.start());
  const std::uint64_t placed0 = placements(exp);
  exp.launch_client();
  exp.run_to_completion();
  exp.sim().run_for(milliseconds(500));
  const ExperimentResult r = exp.collect();

  EXPECT_EQ(r.counter("chaos.faults"), 2u);
  EXPECT_EQ(placements(exp) - placed0, 2u);
  for (const auto& g : r.group_results) {
    EXPECT_EQ(r.counter("rm.reactive_launches." + g.service), 1u)
        << g.service;
    EXPECT_EQ(g.invocations_completed, 800u) << g.service;
  }
  const net::Network& net = exp.testbed().net();
  EXPECT_FALSE(net.node_alive(victims[0]));
  EXPECT_FALSE(net.node_alive(victims[1]));
  for (const auto& g : exp.testbed().groups()) {
    EXPECT_EQ(g->live_replica_count(), 3u) << g->service();
    std::set<std::string> hosts;  // one live replica per host per group
    for (const auto& rep : g->replicas()) {
      if (!rep->alive()) continue;
      EXPECT_TRUE(net.node_alive(rep->endpoint().host)) << rep->member();
      EXPECT_TRUE(hosts.insert(rep->endpoint().host).second) << rep->member();
    }
  }
}

TEST(ChaosScheduleTest, HealAfterPartitionClientRecovers) {
  // The DESIGN.md §8 gap, closed: isolate the client's node long enough for
  // the daemon mesh to expel its daemon, then heal. The expelled daemon must
  // re-probe, rejoin with fresh state, and the client must finish every
  // invocation — all without restarting the testbed.
  ExperimentSpec spec;
  spec.seed = 2004;
  spec.invocations = 1500;
  spec.calib.gc_heartbeat = milliseconds(50);  // fast expulsion
  spec.invoke_timeout = milliseconds(30);      // partitions never EOF
  spec.chaos.partition(milliseconds(150), "node4");  // the client's node
  spec.chaos.heal(milliseconds(700));
  Experiment exp(spec);
  ASSERT_TRUE(exp.start());
  exp.launch_client();
  exp.run_to_completion();
  exp.sim().run_for(milliseconds(500));
  const ExperimentResult r = exp.collect();

  EXPECT_EQ(r.counter("chaos.faults"), 2u);  // the partition and the heal
  EXPECT_EQ(r.client.invocations_completed, 1500u);
  EXPECT_GT(r.client.total_exceptions(), 0u);  // the outage was visible
  EXPECT_GE(exp.obs().metrics().counter_value("gc.rejoins"), 1u);
  EXPECT_GE(exp.testbed().daemons()[3]->rejoins(), 1u);  // node4's daemon
  EXPECT_EQ(exp.testbed().live_replica_count(), 3u);
}

TEST(ChaosScheduleTest, CrashProcessFaultKillsServingPrimary) {
  ExperimentSpec spec;
  spec.seed = 2004;
  spec.invocations = 500;
  spec.inject_leak = false;
  spec.chaos.crash_process(milliseconds(150), kServiceName);
  Experiment exp(spec);
  ASSERT_TRUE(exp.start());
  exp.launch_client();
  exp.run_to_completion();
  exp.sim().run_for(milliseconds(500));
  const ExperimentResult r = exp.collect();

  EXPECT_EQ(r.counter("chaos.faults"), 1u);
  EXPECT_EQ(exp.obs().metrics().counter_value("chaos.crash_process"), 1u);
  EXPECT_EQ(r.server_failures, 1u);
  EXPECT_EQ(
      r.counter("rm.reactive_launches." + r.group_results[0].service), 1u);
  EXPECT_EQ(r.client.invocations_completed, 500u);
  EXPECT_EQ(exp.testbed().live_replica_count(), 3u);
}

TEST(ChaosScheduleTest, LeakBurstAcceleratesProactiveRecovery) {
  // A burst to ~81% of the buffer crosses T1 (80%) immediately: the replica
  // asks for a spare long before its natural leak would have.
  ExperimentSpec spec;
  spec.seed = 2004;
  spec.invocations = 600;
  spec.scheme = core::RecoveryScheme::kMeadMessage;
  spec.chaos.leak_burst(milliseconds(100), kServiceName, 26 * 1024);
  Experiment exp(spec);
  ASSERT_TRUE(exp.start());
  exp.launch_client();
  exp.run_to_completion();
  exp.sim().run_for(milliseconds(500));
  const ExperimentResult r = exp.collect();

  EXPECT_EQ(r.counter("chaos.faults"), 1u);
  EXPECT_EQ(exp.obs().metrics().counter_value("chaos.leak_burst"), 1u);
  EXPECT_GE(r.counter("rm.proactive_launches"), 1u);
  EXPECT_GE(r.server_failures, 1u);  // the burst victim rejuvenated
  EXPECT_EQ(r.client.invocations_completed, 600u);
  EXPECT_EQ(exp.testbed().live_replica_count(), 3u);
}

TEST(ChaosScheduleTest, UnknownTargetsFailStart) {
  {
    ExperimentSpec spec;
    spec.chaos.crash_node(milliseconds(10), "node99");
    Experiment exp(spec);
    EXPECT_FALSE(exp.start());
  }
  {
    ExperimentSpec spec;
    spec.chaos.crash_process(milliseconds(10), "NoSuchService");
    Experiment exp(spec);
    EXPECT_FALSE(exp.start());
  }
}

TEST(ChaosScheduleTest, JoinNodeRebalancesOntoTheJoinerAndRetiresVictims) {
  // Ten workers, the last withheld from the algorithmic placement
  // universe (late_workers); sixteen 2-replica kAlgorithmic groups. A
  // join_node event admits the withheld worker mid-run: the rebalance
  // pass must migrate exactly the jump-hash-minimal set of groups onto
  // it — at most ceil(G/N) — launching each replacement there and
  // retiring its victim, while every group stays at full strength.
  ExperimentSpec spec;
  spec.seed = 2004;
  spec.invocations = 200;
  spec.invoke_timeout = milliseconds(25);
  spec.topology = ClusterTopology::uniform(12);  // ten workers
  const auto& workers = spec.topology.worker_nodes;
  const std::string late = workers.back();
  spec.late_workers = {late};
  for (int g = 0; g < 16; ++g) {
    ServiceGroupSpec s;
    if (g > 0) s.service = "Svc" + std::to_string(g);
    s.inject_leak = false;
    s.replica_count = 2;
    s.placement = core::PlacementPolicy::kAlgorithmic;
    // Explicit seed hosts keep the withheld worker out of every group's
    // universe contribution (hosts union spares seed it).
    s.hosts = {workers[static_cast<std::size_t>(g) % 9],
               workers[(static_cast<std::size_t>(g) + 1) % 9]};
    spec.groups.push_back(std::move(s));
  }
  spec.chaos.join_node(milliseconds(200), late);

  Experiment exp(spec);
  ASSERT_TRUE(exp.start());
  // late_workers held: nothing was placed on the withheld worker.
  for (const auto& g : exp.testbed().groups()) {
    for (const auto& rep : g->replicas()) {
      EXPECT_NE(rep->endpoint().host, late) << rep->member();
    }
  }
  exp.launch_client();
  exp.run_to_completion();
  exp.sim().run_for(milliseconds(1000));  // drain + retire + settle
  const ExperimentResult r = exp.collect();

  EXPECT_EQ(r.counter("chaos.faults"), 1u);
  EXPECT_GE(exp.testbed().acting_rm().alive_epoch(), 1u);
  const std::uint64_t moves =
      exp.obs().metrics().counter_value("rm.rebalance.moves");
  EXPECT_GE(moves, 1u);   // 16 groups over 10 hosts: min load is 1
  EXPECT_LE(moves, 2u);   // ceil(16 / 10)
  // Every migration retires exactly one victim...
  EXPECT_EQ(exp.obs().metrics().counter_value("server.retires"), moves);
  // ...and lands exactly one live replica on the joined worker.
  std::size_t on_late = 0;
  for (const auto& g : exp.testbed().groups()) {
    EXPECT_EQ(g->live_replica_count(), 2u) << g->service();
    for (const auto& rep : g->replicas()) {
      if (rep->alive() && rep->endpoint().host == late) ++on_late;
    }
  }
  EXPECT_EQ(on_late, moves);
  // Migration is invisible to the workload.
  for (const auto& gr : r.group_results) {
    EXPECT_EQ(gr.invocations_completed, 200u) << gr.service;
  }
}

TEST(ChaosScheduleTest, IdenticalCountersSequentialVsPool) {
  // A schedule exercising every fault kind must stay bit-reproducible, and
  // the run_experiments thread pool must match the sequential path exactly.
  std::vector<ExperimentSpec> specs;
  for (std::uint64_t seed : {2004, 2005, 2006}) {
    ExperimentSpec spec = colocated_spec();
    spec.seed = seed;
    spec.invoke_timeout = milliseconds(30);
    spec.groups[1].inject_leak = true;  // leak_burst needs an injector
    spec.chaos.crash_node(milliseconds(200), "node2")
        .crash_process(milliseconds(250), kServiceName)
        .leak_burst(milliseconds(300), "Beta", 26 * 1024)
        .partition(milliseconds(350), "node3")
        .heal(milliseconds(600));
    specs.push_back(std::move(spec));
  }
  std::vector<ExperimentResult> sequential;
  sequential.reserve(specs.size());
  for (const auto& spec : specs) sequential.push_back(run_experiment(spec));
  const std::vector<ExperimentResult> pooled = run_experiments(specs, 3);
  ASSERT_EQ(pooled.size(), sequential.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_GE(sequential[i].counter("chaos.faults"), 5u) << i;
    EXPECT_EQ(fingerprint(pooled[i]), fingerprint(sequential[i])) << i;
  }
}

}  // namespace
}  // namespace mead::app

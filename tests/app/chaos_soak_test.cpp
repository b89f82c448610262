// Randomized chaos soak (ctest label: soak): many seeds, each deriving a
// random fault schedule — worker-node crashes, node isolations with a later
// heal, process crashes and leak bursts — over an eight-group cluster. The
// invariants are the point, not any one scenario:
//
//  * no lost group: every group keeps at least one live replica, and its
//    client finishes every invocation;
//  * incarnation numbers only ever grow;
//  * live replicas only ever sit on live nodes;
//  * every scheduled fault is accounted for (applied or explicitly skipped);
//  * the whole run is bit-reproducible from its seed.
//
// Even seeds additionally run the replicated Recovery Manager (three
// self-supervised RM replicas) and crash one RM host mid-run, so the soak
// also covers RM failover: recovery must still settle (no outstanding
// launch slot), no incarnation may ever be launched twice, and when the
// crashed host carried the acting manager, a backup must have promoted.
// Every third seed runs on the scaled GC plane (sharded sequencers +
// interest scoping + batching), so the invariants also cover shard-owner
// takeover and partition healing under interest-scoped delivery. A
// different every-third stripe (seed % 3 == 1) flips the odd-indexed
// groups to leaderless kQuorum replication with round-robin read routing,
// so rejoin-while-serving (announce before catch-up, kCatchupDone) runs
// under the same random fault schedules; live caught-up replicas of a
// quorum group must also agree digest-for-digest at equal applied counts.
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "app/experiment.h"
#include "common/rng.h"

namespace mead::app {
namespace {

constexpr std::uint64_t kSeeds = 50;
constexpr int kInvocations = 600;

ExperimentSpec soak_spec(std::uint64_t seed) {
  ExperimentSpec spec;
  spec.seed = seed;
  spec.invocations = kInvocations;
  spec.invoke_timeout = milliseconds(25);  // partitions never deliver EOF
  spec.calib.gc_heartbeat = milliseconds(50);
  spec.topology = ClusterTopology::uniform(12);  // ten workers
  // Every third seed (offset so it interleaves with the scaled-plane
  // stripe) runs the odd-indexed groups as leaderless kQuorum groups, with
  // the clients routing reads round-robin over the published quorum sets.
  const bool quorum_seed = (seed % 3 == 1);
  if (quorum_seed) spec.routing = orb::RoutingPolicy::kRoundRobin;
  for (int g = 0; g < 8; ++g) {
    ServiceGroupSpec s;
    if (g > 0) s.service = "Svc" + std::to_string(g);
    s.replica_count = 2;
    s.inject_leak = (g % 2 == 0);
    // Algorithmic placement (jump-hash over the shared alive universe):
    // every seed also covers epoch publication and the cross-replica
    // agreement invariant checked in the test body.
    s.placement = core::PlacementPolicy::kAlgorithmic;
    // Every group is stateful, so each crash/partition/relaunch the
    // schedule throws also exercises the checkpoint + replay pipeline and
    // the digest invariant below can catch any corruption it introduces.
    s.state.enabled = true;
    s.state.keys = 64;
    s.state.value_pad = 16;
    s.state.checkpoint_interval = milliseconds(20);
    s.state.log_cap = 64;
    if (quorum_seed && g % 2 == 1) {
      s.style = core::ReplicationStyle::kQuorum;
    }
    spec.groups.push_back(std::move(s));
  }

  // The schedule is itself a deterministic function of the seed (never of
  // wall time), so a failing seed replays exactly.
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  const auto& workers = spec.topology.worker_nodes;
  auto pick_worker = [&]() -> const std::string& {
    return workers[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(workers.size()) - 1))];
  };
  const bool rm_failover_seed = (seed % 2 == 0);
  std::set<std::string> crashed;
  const auto n_crashes = rng.uniform_int(0, 2);
  for (std::int64_t i = 0; i < n_crashes; ++i) {
    const std::string& host = pick_worker();
    crashed.insert(host);
    spec.chaos.crash_node(milliseconds(rng.uniform_int(50, 450)), host);
  }
  // Partitions are skipped on RM-failover seeds: by default an RM replica
  // expelled by a partition retires permanently (DESIGN.md §8 — the
  // RmSpec::readmit state transfer is the opt-in way back), and a schedule
  // that can retire every manager would legitimately stop recovery —
  // defeating the no-lost-group invariant this suite checks.
  const auto n_partitions = rng.uniform_int(0, 2);
  if (!rm_failover_seed) {
    for (std::int64_t i = 0; i < n_partitions; ++i) {
      spec.chaos.partition(milliseconds(rng.uniform_int(50, 350)),
                           pick_worker());
    }
    if (n_partitions > 0) spec.chaos.heal(milliseconds(500));
  }
  if (rng.chance(0.5)) {
    spec.chaos.crash_process(
        milliseconds(rng.uniform_int(100, 450)),
        spec.groups[static_cast<std::size_t>(rng.uniform_int(0, 7))].service);
  }
  if (rng.chance(0.5)) {
    // Leak-enabled groups are the even-indexed ones.
    const auto g = static_cast<std::size_t>(rng.uniform_int(0, 3)) * 2;
    spec.chaos.leak_burst(milliseconds(rng.uniform_int(100, 450)),
                          spec.groups[g].service, 26 * 1024);
  }
  if (rm_failover_seed) {
    // Three RM replicas on workers that no other event crashes, then kill
    // exactly one of them (possibly the acting manager). Appended last so
    // the test body can find the RM-crash event at events.back().
    spec.rm.replicas = 3;
    for (const auto& w : workers) {
      if (spec.rm.hosts.size() == 3) break;
      if (!crashed.contains(w)) spec.rm.hosts.push_back(w);
    }
    const auto victim = static_cast<std::size_t>(rng.uniform_int(0, 2));
    spec.chaos.crash_node(milliseconds(rng.uniform_int(50, 450)),
                          spec.rm.hosts[victim]);
  }
  // Every third seed runs the scaled GC plane (sharded sequencers,
  // interest-scoped delivery, batched mesh writes): the same invariants
  // must hold when a node crash takes a shard owner with it and partitions
  // heal under interest scoping.
  if (seed % 3 == 0) spec.gc_plane = gc::PlaneOptions::scaled();
  return spec;
}

std::string fingerprint(const ExperimentResult& r) {
  std::ostringstream os;
  os << r.sim_events << '|' << r.server_failures << '|' << r.gc_bytes << '|'
     << r.counter("chaos.faults") << '|' << r.counter("rm.failovers");
  for (const auto& g : r.group_results) {
    os << ';' << g.service << ':' << g.server_failures << ','
       << r.counter("rm.launches." + g.service) << ','
       << r.counter("rm.proactive_launches." + g.service) << ','
       << r.counter("rm.reactive_launches." + g.service) << ','
       << g.invocations_completed << ',' << g.client_exceptions << ','
       << g.state_applied << ',' << g.state_restores << ','
       << (g.state_ok ? 1 : 0);
  }
  return os.str();
}

TEST(ChaosSoakTest, RandomSchedulesHoldInvariants) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const ExperimentSpec spec = soak_spec(seed);
    Experiment exp(spec);
    ASSERT_TRUE(exp.start());

    Testbed& bed = exp.testbed();
    std::vector<int> inc0;
    inc0.reserve(spec.groups.size());
    for (const auto& g : spec.groups) {
      const auto v = bed.acting_rm().view(g.service);
      ASSERT_TRUE(v.has_value()) << g.service;
      inc0.push_back(v->next_incarnation);
    }
    // On RM-failover seeds, note whether the crashed RM host (the last
    // scheduled event, by construction) carries the initially acting
    // manager — only then is a promotion guaranteed.
    bool victim_was_acting = false;
    if (spec.rm.replicas > 1) {
      const std::string& victim_host = spec.chaos.events.back().target;
      for (std::size_t i = 0; i < bed.rm_count(); ++i) {
        if (bed.rm(i).acting() && spec.rm.hosts[i] == victim_host) {
          victim_was_acting = true;
        }
      }
    }

    exp.launch_client();
    exp.run_to_completion();
    // Post-heal settling: rejoin probes, resubmitted joins, relaunches.
    exp.sim().run_for(milliseconds(1500));
    const ExperimentResult r = exp.collect();

    // Every scheduled fault is accounted for: applied, or skipped because
    // its target had no live replica left at fire time.
    const std::uint64_t skipped =
        exp.obs().metrics().counter_value("chaos.skipped");
    EXPECT_EQ(r.counter("chaos.faults") + skipped, spec.chaos.events.size());

    const net::Network& net = exp.testbed().net();
    ASSERT_EQ(r.group_results.size(), spec.groups.size());
    for (std::size_t i = 0; i < spec.groups.size(); ++i) {
      const ServiceGroup* g = exp.testbed().group(spec.groups[i].service);
      ASSERT_NE(g, nullptr);
      // No lost group, and no stranded client.
      EXPECT_GE(g->live_replica_count(), 1u) << g->service();
      EXPECT_EQ(r.group_results[i].invocations_completed,
                static_cast<std::uint64_t>(kInvocations))
          << g->service();
      const auto v = bed.acting_rm().view(g->service());
      ASSERT_TRUE(v.has_value()) << g->service();
      // Incarnations are monotone: burned slots leave gaps, never reuse.
      EXPECT_GE(v->next_incarnation, inc0[i]) << g->service();
      // Recovery settled: no launch slot still outstanding after the run.
      EXPECT_EQ(v->pending, 0u) << g->service();
      // Exactly-once launches across RM failover: a member name encodes
      // its incarnation, so no name may ever be spawned twice.
      std::set<std::string> members;
      for (const auto& rep : g->replicas()) {
        EXPECT_TRUE(members.insert(rep->member()).second) << rep->member();
      }
      // Live replicas only on live nodes.
      for (const auto& rep : g->replicas()) {
        if (rep->alive()) {
          EXPECT_TRUE(net.node_alive(rep->endpoint().host)) << rep->member();
        }
      }
      // State integrity: every surviving replica's AppState digest matches
      // the deterministic expectation for its own applied-op count — the
      // checkpoint / delta / log-replay pipeline lost, duplicated, or
      // reordered nothing, no matter which faults hit the group.
      EXPECT_TRUE(r.group_results[i].state_ok) << g->service();
      // Quorum digest equality: live, settled replicas of a kQuorum group
      // that sit at the same applied-op count must hold identical digests —
      // online catch-up may lag a replica, but never fork it.
      if (spec.groups[i].style == core::ReplicationStyle::kQuorum) {
        std::map<std::uint64_t, std::uint64_t> digest_at;
        for (const auto& rep : g->replicas()) {
          if (!rep->alive()) continue;
          const core::ServerMead& mead = rep->mead();
          const state::AppState* s = mead.app_state();
          if (s == nullptr || mead.restoring()) continue;
          const auto [it, fresh] = digest_at.emplace(s->applied(), s->digest());
          if (!fresh) {
            EXPECT_EQ(it->second, s->digest()) << rep->member();
          }
        }
      }
    }
    if (victim_was_acting) {
      EXPECT_GE(r.counter("rm.failovers"), 1u) << "acting RM crashed but no backup promoted";
    }
    // Cross-replica agreement: every live, non-retired manager fed the
    // same ordered stream computes the identical alive epoch and the
    // identical next-incarnation placement for every group — the property
    // that lets the RM publish only an epoch per failure.
    const core::RecoveryManager* ref = nullptr;
    for (std::size_t i = 0; i < bed.rm_count(); ++i) {
      const core::RecoveryManager& rm = bed.rm(i);
      if (!rm.alive() || rm.retired()) continue;
      if (ref == nullptr) {
        ref = &rm;
        continue;
      }
      EXPECT_EQ(rm.alive_epoch(), ref->alive_epoch())
          << "RM " << i << " diverged from " << ref->member();
      for (const auto& gs : spec.groups) {
        EXPECT_EQ(rm.placement_choice(gs.service),
                  ref->placement_choice(gs.service))
            << gs.service << " (RM " << i << ")";
      }
    }
  }
}

TEST(ChaosSoakTest, SameSeedReproducesExactly) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const ExperimentSpec spec = soak_spec(seed);
    Experiment a(spec);
    ASSERT_TRUE(a.start());
    a.launch_client();
    a.run_to_completion();
    a.sim().run_for(milliseconds(1500));
    Experiment b(spec);
    ASSERT_TRUE(b.start());
    b.launch_client();
    b.run_to_completion();
    b.sim().run_for(milliseconds(1500));
    EXPECT_EQ(a.sim().events_processed(), b.sim().events_processed());
    EXPECT_EQ(fingerprint(a.collect()), fingerprint(b.collect()));
  }
}

}  // namespace
}  // namespace mead::app

// Leaderless quorum replication (ctest label: quorum): a kQuorum group
// publishes a versioned quorum set in which a rejoining replica counts for
// writes immediately (announced before its restore finishes) but carries
// the catching_up flag until its kCatchupDone, so routed reads never land
// on a replica that is still rebuilding state. The suite checks read
// availability through an online catch-up, a replica crash mid-catch-up,
// R = 2 confirm reads with per-member monotone version vectors, and
// client-visible reply deduplication (exactly-once application across a
// reply-losing partition and retry).
#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "app/experiment.h"

namespace mead::app {
namespace {

ExperimentSpec quorum_spec(int invocations) {
  ExperimentSpec spec;
  spec.seed = 2004;
  spec.invocations = invocations;
  spec.routing = orb::RoutingPolicy::kRoundRobin;
  ServiceGroupSpec g;
  g.scheme = core::RecoveryScheme::kLocationForward;
  g.style = core::ReplicationStyle::kQuorum;
  g.inject_leak = false;
  g.state.enabled = true;
  g.state.keys = 64;
  g.state.value_pad = 16;
  g.state.checkpoint_interval = milliseconds(20);
  g.state.log_cap = 64;
  spec.groups.push_back(std::move(g));
  return spec;
}

TEST(QuorumTest, ServesReadsWithNoVisibleErrorDuringCatchUp) {
  // Crash the serving replica mid-run: the relaunched incarnation announces
  // immediately (write quorum), restores online, and only rejoins the read
  // rotation at kCatchupDone. While it catches up the remaining replicas
  // carry every read — the client must see no exception anywhere in the
  // catch-up window.
  ExperimentSpec spec = quorum_spec(1'200);
  spec.chaos.crash_process(milliseconds(200), kServiceName);
  Experiment exp(spec);
  ASSERT_TRUE(exp.start());
  exp.launch_client();
  exp.run_to_completion();
  exp.sim().run_for(milliseconds(500));
  const ExperimentResult r = exp.collect();

  ASSERT_EQ(r.group_results.size(), 1u);
  const GroupResult& g = r.group_results[0];
  EXPECT_EQ(g.invocations_completed, 1'200u);
  EXPECT_TRUE(g.state_ok);
  EXPECT_GT(r.quorum_reads, 0u);

  // The rejoiner's catch-up window is bracketed by its restore events;
  // no client exception may fall inside it.
  const auto events = exp.obs().trace().events();
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
  ASSERT_TRUE(caught_up) << "relaunched replica never restored";
  for (const auto& ev : events) {
    if (ev.kind == obs::EventKind::kClientException) {
      EXPECT_FALSE(begin <= ev.at && ev.at <= end)
          << "client exception during catch-up window";
    }
  }
  // Catch-up closed: nobody is left restoring and the planner settled.
  const auto view = exp.testbed().acting_rm().view(kServiceName);
  ASSERT_TRUE(view.has_value());
  EXPECT_TRUE(view->restoring.empty());
  EXPECT_EQ(view->pending, 0u);
}

TEST(QuorumTest, ReplicaCrashMidCatchUpStillConverges) {
  // Kill the rejoining replica's node while its restore is still open (it
  // has announced — it already counts for writes). The Recovery Manager
  // must drop it from the restoring set with the view change, re-place the
  // slot, and converge back to a fully caught-up group.
  ExperimentSpec spec = quorum_spec(1'500);
  spec.groups[0].placement = core::PlacementPolicy::kAlgorithmic;
  spec.groups[0].state.keys = 256;
  spec.groups[0].state.value_pad = 64;
  spec.chaos.crash_process(milliseconds(200), kServiceName);
  // Every worker holds a replica, so the RM has no free host to offer
  // (placement_choice is empty) and the relaunch can only land on the host
  // the crashed first replica frees; crash that node inside the restore.
  std::string rejoiner_host;
  {
    Experiment probe(spec);
    ASSERT_TRUE(probe.start());
    Testbed& bed = probe.testbed();
    EXPECT_FALSE(bed.acting_rm().placement_choice(kServiceName).has_value());
    const ServiceGroup* sg = bed.group(kServiceName);
    ASSERT_NE(sg, nullptr);
    rejoiner_host = sg->replicas().front()->endpoint().host;
  }
  spec.chaos.crash_node(milliseconds(215), rejoiner_host);
  Experiment exp(spec);
  ASSERT_TRUE(exp.start());
  exp.launch_client();
  exp.run_to_completion();
  exp.sim().run_for(milliseconds(1'000));
  const ExperimentResult r = exp.collect();

  ASSERT_EQ(r.group_results.size(), 1u);
  const GroupResult& g = r.group_results[0];
  EXPECT_EQ(g.invocations_completed, 1'500u);
  EXPECT_TRUE(g.state_ok);
  EXPECT_GE(r.server_failures, 2u);

  const ServiceGroup* sg = exp.testbed().group(kServiceName);
  ASSERT_NE(sg, nullptr);
  EXPECT_GE(sg->live_replica_count(), 2u);
  std::set<std::string> members;
  bool rejoiner_died = false;
  for (const auto& rep : sg->replicas()) {
    EXPECT_TRUE(members.insert(rep->member()).second) << rep->member();
    if (rep->endpoint().host == rejoiner_host && !rep->alive()) {
      rejoiner_died = true;
    }
  }
  EXPECT_TRUE(rejoiner_died) << rejoiner_host;
  const auto view = exp.testbed().acting_rm().view(kServiceName);
  ASSERT_TRUE(view.has_value());
  // The dead rejoiner is not stuck in the restoring set forever.
  EXPECT_TRUE(view->restoring.empty());
  EXPECT_EQ(view->pending, 0u);
}

TEST(QuorumTest, ConfirmReadsKeepPerMemberCountsMonotone) {
  // Plain quorum run: every invocation pairs a routed read with a confirm
  // read against a second live replica. No replica may ever appear to move
  // backwards, so the repair counter stays zero; digests of live replicas
  // match their own applied counts (digest equality).
  const ExperimentResult r = run_experiment(quorum_spec(1'000));
  ASSERT_EQ(r.group_results.size(), 1u);
  EXPECT_EQ(r.group_results[0].invocations_completed, 1'000u);
  EXPECT_GT(r.quorum_reads, 0u);
  EXPECT_EQ(r.quorum_repairs, 0u);
  EXPECT_TRUE(r.state_ok);
  EXPECT_EQ(r.group_results[0].client_exceptions, 0u);
}

TEST(QuorumTest, QuorumRunsAreDeterministic) {
  ExperimentSpec spec = quorum_spec(800);
  spec.chaos.crash_process(milliseconds(200), kServiceName);
  Experiment a(spec);
  ASSERT_TRUE(a.start());
  a.launch_client();
  a.run_to_completion();
  Experiment b(spec);
  ASSERT_TRUE(b.start());
  b.launch_client();
  b.run_to_completion();
  EXPECT_EQ(a.sim().events_processed(), b.sim().events_processed());
  const ExperimentResult ra = a.collect();
  const ExperimentResult rb = b.collect();
  EXPECT_EQ(ra.quorum_reads, rb.quorum_reads);
  EXPECT_EQ(ra.quorum_repairs, rb.quorum_repairs);
  EXPECT_EQ(ra.gc_bytes, rb.gc_bytes);
}

TEST(QuorumTest, ReplyDedupAppliesRetriedRequestExactlyOnce) {
  // Single stateful replica with a reply cache; a short partition swallows
  // in-flight replies, the client times out and retries the same
  // (client_id, seq) token after the heal. The server answers the retry
  // from its dedup cache instead of re-applying: the replicated state must
  // end exactly one op per completed invocation.
  auto dedup_spec = [](std::uint32_t cap) {
    ExperimentSpec spec;
    spec.seed = 2004;
    spec.invocations = 1'000;
    spec.invoke_timeout = milliseconds(10);
    ServiceGroupSpec g;
    g.scheme = core::RecoveryScheme::kReactiveNoCache;
    g.replica_count = 1;
    g.inject_leak = false;
    g.state.enabled = true;
    g.state.keys = 32;
    g.state.value_pad = 8;
    g.state.checkpoint_interval = milliseconds(20);
    g.state.log_cap = 64;
    g.state.dedup_cap = cap;
    spec.groups.push_back(std::move(g));
    // Partition the lone replica's host mid-reply (the cut instant sits
    // inside the apply->reply window of one request, so the server applies
    // and the client never hears back) and heal far short of the GC dead
    // interval — no expulsion, no relaunch, just a client retry of an
    // already-applied token.
    spec.chaos.partition(microseconds(150'700), "node1");
    spec.chaos.heal(microseconds(250'700), "node1");
    return spec;
  };

  const ExperimentResult with = run_experiment(dedup_spec(128));
  ASSERT_EQ(with.group_results.size(), 1u);
  EXPECT_EQ(with.group_results[0].invocations_completed, 1'000u);
  EXPECT_GE(with.counter("state.dedup.hits"), 1u);
  EXPECT_TRUE(with.state_ok);
  // Exactly-once: one applied op per completed invocation, despite retries.
  EXPECT_EQ(with.group_results[0].state_applied,
            with.group_results[0].invocations_completed);

  // Control: with the cache off, the same retries re-apply and the state
  // machine runs ahead of the invocation count.
  const ExperimentResult without = run_experiment(dedup_spec(0));
  EXPECT_EQ(without.counter("state.dedup.hits"), 0u);
  EXPECT_GT(without.group_results[0].state_applied,
            without.group_results[0].invocations_completed);
}

}  // namespace
}  // namespace mead::app

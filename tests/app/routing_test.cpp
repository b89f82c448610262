// Replication styles and client request routing: K concurrent clients per
// group and cross-group striped workloads must behave deterministically
// (bit-identical counters sequentially vs. through the run_experiments
// pool), and a read-fanout group must survive the chaos crash of a read
// replica with every client completing its workload.
#include <sstream>

#include <gtest/gtest.h>

#include "app/experiment.h"

namespace mead::app {
namespace {

/// Everything routing determinism cares about, as one comparable string —
/// per-client rollups included, since K-client runs live or die on them.
std::string fingerprint(const ExperimentResult& r) {
  std::ostringstream os;
  os << r.sim_events << '|' << r.server_failures << '|' << r.gc_bytes;
  for (const auto& g : r.group_results) {
    os << ';' << g.service << ':' << g.invocations_completed << ','
       << g.client_exceptions << ',' << g.naming_refreshes << ','
       << g.route_switches << ',' << g.clients;
  }
  for (const auto& c : r.client_results) {
    os << ';' << c.label << ':' << c.prefix << ':' << c.service << ':'
       << c.invocations_completed << ',' << c.exceptions << ','
       << c.naming_refreshes << ',' << c.route_switches;
  }
  return os.str();
}

ExperimentSpec fanout_spec(int clients, orb::RoutingPolicy policy) {
  ExperimentSpec spec;
  spec.seed = 2004;
  spec.invocations = 400;
  spec.clients_per_group = clients;
  spec.routing = policy;
  ServiceGroupSpec g;
  g.scheme = core::RecoveryScheme::kLocationForward;
  g.style = core::ReplicationStyle::kActiveReadFanout;
  spec.groups.push_back(std::move(g));
  return spec;
}

ExperimentSpec striped_spec() {
  ExperimentSpec spec;
  spec.seed = 2004;
  spec.invocations = 300;
  spec.routing = orb::RoutingPolicy::kRoundRobin;
  spec.topology = ClusterTopology::uniform(8);
  for (int i = 0; i < 2; ++i) {
    ServiceGroupSpec g;
    if (i > 0) g.service = "SvcB";
    g.scheme = core::RecoveryScheme::kLocationForward;
    g.style = core::ReplicationStyle::kActiveReadFanout;
    spec.groups.push_back(std::move(g));
  }
  StripeSpec stripe;
  stripe.name = "xg";
  stripe.services = {kServiceName, "SvcB"};
  stripe.clients = 2;
  spec.stripes.push_back(std::move(stripe));
  return spec;
}

TEST(RoutingTest, KClientsEachCompleteUnderOwnNamespace) {
  const ExperimentResult r =
      run_experiment(fanout_spec(3, orb::RoutingPolicy::kRoundRobin));
  ASSERT_EQ(r.client_results.size(), 3u);
  for (int k = 1; k <= 3; ++k) {
    const ClientRollup& c = r.client_results[static_cast<std::size_t>(k - 1)];
    EXPECT_EQ(c.invocations_completed, 400u) << c.label;
    EXPECT_EQ(c.prefix, "client." + std::string(kServiceName) + "." +
                            std::to_string(k));
    EXPECT_EQ(c.label,
              std::string(kServiceName) + "/client/" + std::to_string(k));
  }
  ASSERT_EQ(r.group_results.size(), 1u);
  EXPECT_EQ(r.group_results[0].clients, 3u);
  EXPECT_EQ(r.group_results[0].invocations_completed, 1200u);
  EXPECT_EQ(r.total_invocations(), 1200u);
  // Round-robin over a 3-replica read set actually moves between replicas.
  EXPECT_GT(r.group_results[0].route_switches, 0u);
  EXPECT_EQ(r.group_results[0].client_exceptions, 0u);
}

TEST(RoutingTest, KClientWorkloadBitIdenticalSequentialVsPool) {
  std::vector<ExperimentSpec> specs;
  for (auto policy : {orb::RoutingPolicy::kRoundRobin,
                      orb::RoutingPolicy::kSticky,
                      orb::RoutingPolicy::kPrimaryOnly}) {
    specs.push_back(fanout_spec(4, policy));
  }
  std::vector<ExperimentResult> sequential;
  sequential.reserve(specs.size());
  for (const auto& spec : specs) sequential.push_back(run_experiment(spec));
  const std::vector<ExperimentResult> pooled = run_experiments(specs, 3);
  ASSERT_EQ(pooled.size(), sequential.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(fingerprint(pooled[i]), fingerprint(sequential[i])) << i;
  }
}

TEST(RoutingTest, StripedWorkloadBitIdenticalSequentialVsPool) {
  const std::vector<ExperimentSpec> specs{striped_spec(), striped_spec()};
  std::vector<ExperimentResult> sequential;
  sequential.reserve(specs.size());
  for (const auto& spec : specs) sequential.push_back(run_experiment(spec));
  const std::vector<ExperimentResult> pooled = run_experiments(specs, 2);
  ASSERT_EQ(pooled.size(), sequential.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(fingerprint(pooled[i]), fingerprint(sequential[i])) << i;
    // Striped clients belong to no group but must be fully counted.
    EXPECT_EQ(pooled[i].total_invocations(), 2 * 2 * 300u) << i;
  }
}

TEST(RoutingTest, StripedClientsFanOverBothGroups) {
  const ExperimentResult r = run_experiment(striped_spec());
  ASSERT_EQ(r.client_results.size(), 4u);  // 2 group clients + 2 striped
  EXPECT_EQ(r.client_results[2].service, "xg");
  EXPECT_EQ(r.client_results[3].service, "xg");
  EXPECT_EQ(r.client_results[2].prefix, "client.xg.1");
  EXPECT_EQ(r.client_results[3].prefix, "client.xg.2");
  for (const auto& c : r.client_results) {
    EXPECT_EQ(c.invocations_completed, 300u) << c.label;
  }
}

TEST(RoutingTest, ReadFanoutSurvivesReadReplicaCrash) {
  // Crash the node hosting a non-primary (read) replica mid-run: clients
  // whose reads were routed there must redirect through the existing
  // recovery schemes and still complete every invocation.
  ExperimentSpec spec = fanout_spec(3, orb::RoutingPolicy::kRoundRobin);
  spec.invocations = 600;
  spec.chaos.crash_node(milliseconds(200), "node2");
  const ExperimentResult r = run_experiment(spec);
  ASSERT_EQ(r.client_results.size(), 3u);
  for (const auto& c : r.client_results) {
    EXPECT_EQ(c.invocations_completed, 600u) << c.label;
  }
  EXPECT_EQ(r.counter("chaos.faults"), 1u);
  EXPECT_GE(r.server_failures, 1u);
}

TEST(RoutingTest, MissedReadSetHealsAtNextFullPublication) {
  // Isolate the client host for a window SHORTER than the GC dead interval
  // (3 heartbeats = 1.5 s): no daemon is expelled, so no membership change
  // republishes the set on the subscriber's behalf — the update the RM
  // publishes for the mid-window read-replica crash is simply lost. Every
  // publication carries the full set, so the first one that reaches the
  // healed subscriber (the post-heal churn) must bring it level with the
  // RM without any repair round trip.
  ExperimentSpec spec = fanout_spec(1, orb::RoutingPolicy::kRoundRobin);
  spec.invocations = 800;
  spec.invoke_timeout = milliseconds(25);  // isolation never delivers EOF
  spec.chaos.partition(milliseconds(150), "node4");   // the client host
  spec.chaos.crash_node(milliseconds(200), "node3");  // an update it misses
  spec.chaos.heal(milliseconds(400), "node4");
  spec.chaos.crash_process(milliseconds(600), kServiceName);  // post-heal churn

  Experiment exp(spec);
  ASSERT_TRUE(exp.start());
  exp.launch_client();
  exp.run_to_completion();
  exp.sim().run_for(milliseconds(500));  // let the last publication land
  const ExperimentResult r = exp.collect();

  // Routing resynchronized: the client finished its whole workload across
  // both crashes and the isolation window...
  ASSERT_EQ(r.client_results.size(), 1u);
  EXPECT_EQ(r.client_results[0].invocations_completed, 800u);
  EXPECT_GE(r.server_failures, 2u);
  // ...and its subscriber holds the version the acting RM last published.
  const core::ReadSetSubscriber* sub = exp.client()->read_set();
  ASSERT_NE(sub, nullptr);
  const auto view = exp.testbed().acting_rm().view(kServiceName);
  ASSERT_TRUE(view.has_value());
  ASSERT_NE(view->read_set, nullptr);
  EXPECT_GT(view->read_set->version, 0u);
  EXPECT_EQ(sub->last_version(), view->read_set->version);
}

TEST(RoutingTest, StickyPinsUntilFailover) {
  // Sticky routing pins each client to one read replica: far fewer route
  // switches than round-robin under the identical workload.
  const ExperimentResult sticky =
      run_experiment(fanout_spec(2, orb::RoutingPolicy::kSticky));
  const ExperimentResult rr =
      run_experiment(fanout_spec(2, orb::RoutingPolicy::kRoundRobin));
  std::uint64_t sticky_switches = 0;
  std::uint64_t rr_switches = 0;
  for (const auto& c : sticky.client_results) sticky_switches += c.route_switches;
  for (const auto& c : rr.client_results) rr_switches += c.route_switches;
  EXPECT_GT(rr_switches, 10 * (sticky_switches + 1));
  EXPECT_EQ(sticky.total_invocations(), rr.total_invocations());
}

}  // namespace
}  // namespace mead::app

// Multi-group cluster experiments: an N-node topology hosting many
// independent service groups must come up, run deterministically from a
// seed, and produce identical per-group counters whether the experiments
// run sequentially or through the run_experiments thread pool.
#include <sstream>

#include <gtest/gtest.h>

#include "app/experiment.h"

namespace mead::app {
namespace {

/// Eight 3-replica groups (the paper's TimeOfDay plus seven more) on a
/// fourteen-node cluster: twelve workers, naming+RM on node14, clients on
/// node13.
ExperimentSpec eight_group_spec() {
  ExperimentSpec spec;
  spec.seed = 2004;
  spec.invocations = 300;
  spec.topology = ClusterTopology::uniform(14);
  for (int i = 0; i < 8; ++i) {
    ServiceGroupSpec g;
    if (i > 0) g.service = "Svc" + std::to_string(i);
    g.replica_count = 3;
    spec.groups.push_back(std::move(g));
  }
  return spec;
}

/// Everything determinism cares about, as one comparable string.
std::string fingerprint(const ExperimentResult& r) {
  std::ostringstream os;
  os << r.sim_events << '|' << r.server_failures << '|' << r.gc_bytes;
  for (const auto& g : r.group_results) {
    os << ';' << g.service << ':' << g.replica_count << ','
       << g.server_failures << ',' << r.counter("rm.launches." + g.service)
       << ',' << r.counter("rm.proactive_launches." + g.service) << ','
       << r.counter("rm.reactive_launches." + g.service) << ','
       << g.invocations_completed << ',' << g.client_exceptions << ','
       << g.naming_refreshes;
  }
  return os.str();
}

TEST(MultiGroupTest, EightGroupsOnTwelveWorkersComeUp) {
  Experiment exp(eight_group_spec());
  ASSERT_TRUE(exp.start());
  Testbed& bed = exp.testbed();
  ASSERT_EQ(bed.groups().size(), 8u);
  EXPECT_EQ(bed.live_replica_count(), 24u);
  EXPECT_EQ(bed.naming_host(), "node14");
  EXPECT_EQ(bed.client_host(), "node13");
  // Groups stripe over the worker pool: group 0 keeps the paper's first
  // workers, group 1 starts where it left off, group 4 wraps around.
  EXPECT_EQ(bed.primary_group().hosts(),
            (std::vector<std::string>{"node1", "node2", "node3"}));
  EXPECT_EQ(bed.group("Svc1")->hosts(),
            (std::vector<std::string>{"node4", "node5", "node6"}));
  EXPECT_EQ(bed.group("Svc4")->hosts(),
            (std::vector<std::string>{"node1", "node2", "node3"}));
  // Auto base ports never collide across groups.
  EXPECT_EQ(bed.primary_group().spec().base_port, 20000);
  EXPECT_EQ(bed.group("Svc7")->spec().base_port, 27000);
}

TEST(MultiGroupTest, EveryGroupsClientCompletes) {
  ExperimentResult r = run_experiment(eight_group_spec());
  ASSERT_EQ(r.group_results.size(), 8u);
  for (const auto& g : r.group_results) {
    EXPECT_EQ(g.invocations_completed, 300u) << g.service;
  }
  EXPECT_EQ(r.total_invocations(), 2400u);
  // Legacy single-group fields still describe the first group.
  EXPECT_EQ(r.client.invocations_completed, 300u);
  EXPECT_EQ(r.group_results[0].service, kServiceName);
}

TEST(MultiGroupTest, SameSeedSameCountersSequentially) {
  const ExperimentResult a = run_experiment(eight_group_spec());
  const ExperimentResult b = run_experiment(eight_group_spec());
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

TEST(MultiGroupTest, ThreadPoolSweepMatchesSequential) {
  std::vector<ExperimentSpec> specs;
  for (std::uint64_t seed : {2004, 2005, 2006}) {
    ExperimentSpec spec = eight_group_spec();
    spec.seed = seed;
    specs.push_back(std::move(spec));
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

TEST(MultiGroupTest, GroupsWithDifferentSchemesCoexist) {
  ExperimentSpec spec;
  spec.seed = 7;
  spec.invocations = 200;
  spec.topology = ClusterTopology::uniform(9);  // six workers
  ServiceGroupSpec mead_group;  // default TimeOfDay, kMeadMessage
  ServiceGroupSpec reactive;
  reactive.service = "Reactive";
  reactive.scheme = core::RecoveryScheme::kReactiveNoCache;
  spec.groups = {mead_group, reactive};
  ExperimentResult r = run_experiment(spec);
  ASSERT_EQ(r.group_results.size(), 2u);
  EXPECT_EQ(r.group_results[0].invocations_completed, 200u);
  EXPECT_EQ(r.group_results[1].invocations_completed, 200u);
}

}  // namespace
}  // namespace mead::app

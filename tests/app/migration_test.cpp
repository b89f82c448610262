// Prediction-driven proactive migration (ctest label: migrate): the
// Recovery Manager trends the primary's usage reports and rotates the
// group — pre-warmed standby, atomic handoff, old primary rejuvenates —
// before the predicted exhaustion, so a leaking primary never has to
// crash at all. The suite checks the rotation pipeline end to end, the
// race against reactive recovery (exactly one of the two may win any
// incident), determinism, and that the default configuration keeps the
// migration plane completely dark.
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "app/experiment.h"

namespace mead::app {
namespace {

std::string fingerprint(const ExperimentResult& r) {
  std::ostringstream os;
  os << r.sim_events << '|' << r.server_failures << '|' << r.gc_bytes << '|'
     << r.counter("rm.migrations") << '|' << r.counter("mead.handoff_ms");
  for (const auto& g : r.group_results) {
    os << ';' << g.service << ':' << r.counter("rm.launches." + g.service)
       << ',' << r.counter("rm.proactive_launches." + g.service) << ','
       << r.counter("rm.reactive_launches." + g.service) << ','
       << r.counter("rm.migrations." + g.service) << ','
       << g.invocations_completed << ','
       << g.client_exceptions << ',' << (g.state_ok ? 1 : 0);
  }
  return os.str();
}

/// A leaking group whose only proactive defence is the migration planner:
/// the reactive no-cache scheme has no threshold machinery, so any rotation
/// that happens is the planner's doing.
ExperimentSpec migration_spec(int invocations) {
  ExperimentSpec spec;
  spec.seed = 2004;
  spec.invocations = invocations;
  ServiceGroupSpec g;
  g.scheme = core::RecoveryScheme::kReactiveNoCache;
  g.migration.horizon = seconds(2);
  spec.groups.push_back(std::move(g));
  return spec;
}

TEST(MigrationTest, PlannerRotatesLeakingPrimaryBeforeExhaustion) {
  const ExperimentResult r = run_experiment(migration_spec(10'000));
  ASSERT_EQ(r.group_results.size(), 1u);
  const GroupResult& g = r.group_results[0];
  // The planner fired and drove the whole pipeline: plan, pre-warm spawn,
  // handoff, drain (each handoff charges its drain window to the counter).
  const std::uint64_t migrations = r.counter("rm.migrations");
  EXPECT_GE(migrations, 1u);
  EXPECT_EQ(r.counter("rm.migrations." + g.service), migrations);
  EXPECT_GT(r.counter("mead.handoff_ms"), 0u);
  EXPECT_GE(r.counter("rm.proactive_launches." + g.service), migrations);
  // Migration preempted every exhaustion crash: no reactive launch ever
  // happened, and the client finished its full workload.
  EXPECT_EQ(r.counter("rm.reactive_launches." + g.service), 0u);
  EXPECT_EQ(g.invocations_completed, 10'000u);
}

TEST(MigrationTest, LeakBurstRacingPlannedRotationResolvesExactlyOnce) {
  // Blow the primary's memory in one burst mid-run: depending on timing the
  // burst either lands before the planner commits (reactive recovery wins,
  // the plan is cancelled) or after the handoff (the rotation wins and the
  // burst hits an already-doomed incarnation). Either way exactly one
  // recovery pipeline may own each incident: the group must settle at full
  // degree with no outstanding launch slot and no incarnation ever spawned
  // twice.
  for (const auto at : {milliseconds(300), milliseconds(900)}) {
    SCOPED_TRACE("burst at " + std::to_string(static_cast<int>(at.ms())));
    ExperimentSpec spec = migration_spec(3'000);
    spec.chaos.leak_burst(at, kServiceName, 26 * 1024);
    Experiment exp(spec);
    ASSERT_TRUE(exp.start());
    exp.launch_client();
    exp.run_to_completion();
    exp.sim().run_for(milliseconds(500));  // let the last rotation settle
    const ExperimentResult r = exp.collect();

    ASSERT_EQ(r.group_results.size(), 1u);
    const GroupResult& g = r.group_results[0];
    EXPECT_EQ(g.invocations_completed, 3'000u);
    // Every launch is attributed to exactly one pipeline.
    const std::uint64_t launches = r.counter("rm.launches." + g.service);
    EXPECT_EQ(launches, r.counter("rm.proactive_launches." + g.service) +
                            r.counter("rm.reactive_launches." + g.service));
    EXPECT_GE(launches, 1u);
    // Recovery settled and never double-launched.
    const ServiceGroup* sg = exp.testbed().group(kServiceName);
    ASSERT_NE(sg, nullptr);
    const auto view = exp.testbed().acting_rm().view(kServiceName);
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->pending, 0u);
    EXPECT_TRUE(view->migrating.empty());
    EXPECT_GE(sg->live_replica_count(), sg->spec().replica_count);
    std::set<std::string> members;
    for (const auto& rep : sg->replicas()) {
      EXPECT_TRUE(members.insert(rep->member()).second) << rep->member();
    }
  }
}

TEST(MigrationTest, MigrationRunsAreDeterministic) {
  ExperimentSpec spec = migration_spec(3'000);
  spec.chaos.leak_burst(milliseconds(400), kServiceName, 26 * 1024);
  Experiment a(spec);
  ASSERT_TRUE(a.start());
  a.launch_client();
  a.run_to_completion();
  Experiment b(spec);
  ASSERT_TRUE(b.start());
  b.launch_client();
  b.run_to_completion();
  EXPECT_EQ(a.sim().events_processed(), b.sim().events_processed());
  EXPECT_EQ(fingerprint(a.collect()), fingerprint(b.collect()));
}

TEST(MigrationTest, DefaultConfigurationKeepsMigrationPlaneDark) {
  // No MigrationSpec anywhere: no usage reports, no planner state, no
  // migration/handoff counters — the seed's behaviour, untouched.
  ExperimentSpec spec;
  spec.seed = 2004;
  spec.invocations = 2'000;
  Experiment exp(spec);
  ASSERT_TRUE(exp.start());
  exp.launch_client();
  exp.run_to_completion();
  const ExperimentResult r = exp.collect();
  EXPECT_EQ(r.counter("rm.migrations"), 0u);
  EXPECT_EQ(r.counter("mead.handoff_ms"), 0u);
  EXPECT_EQ(r.counter("state.dedup.hits"), 0u);
  for (const auto& ev : exp.obs().trace().events()) {
    EXPECT_NE(ev.kind, obs::EventKind::kMigrationPlanned);
    EXPECT_NE(ev.kind, obs::EventKind::kHandoff);
  }
}

}  // namespace
}  // namespace mead::app

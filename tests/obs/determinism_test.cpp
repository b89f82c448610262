// Two runs of the same ExperimentSpec must produce byte-identical event
// traces and metrics exports: the simulation is deterministic from its
// seed, and the observability layer must not perturb or depend on anything
// outside the virtual world.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "app/experiment.h"

namespace mead::app {
namespace {

ExperimentSpec short_spec() {
  ExperimentSpec spec;
  spec.scheme = core::RecoveryScheme::kMeadMessage;
  spec.seed = 2004;
  spec.invocations = 500;
  return spec;
}

std::pair<std::string, std::string> run_once(const ExperimentSpec& spec) {
  Experiment exp(spec);
  auto up = exp.start();
  EXPECT_TRUE(up.ok()) << (up.ok() ? "" : up.error().reason);
  exp.launch_client();
  exp.run_to_completion();
  return {exp.obs().trace().to_jsonl(), exp.obs().metrics().to_csv()};
}

TEST(DeterminismTest, IdenticalSpecsProduceByteIdenticalTraces) {
  const ExperimentSpec spec = short_spec();
  const auto [trace_a, metrics_a] = run_once(spec);
  const auto [trace_b, metrics_b] = run_once(spec);
  ASSERT_FALSE(trace_a.empty());
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_EQ(metrics_a, metrics_b);
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  ExperimentSpec a = short_spec();
  ExperimentSpec b = short_spec();
  b.seed = 2005;
  EXPECT_NE(run_once(a).first, run_once(b).first);
}

TEST(DeterminismTest, RegistrySuppliesTableOneCounters) {
  // The Table-1 columns must be readable straight from the registry.
  Experiment exp(short_spec());
  ASSERT_TRUE(exp.start().ok());
  exp.launch_client();
  exp.run_to_completion();
  const auto& metrics = exp.obs().metrics();
  EXPECT_GT(metrics.counter_value("net.bytes.total"), 0u);
  EXPECT_GT(metrics.counter_value("gc.broadcasts"), 0u);
  EXPECT_GT(metrics.counter_value("rm.launches"), 0u);
  // MEAD at the default thresholds masks failures via redirects.
  EXPECT_GT(metrics.counter_value("client.mead_redirects"), 0u);
  const auto r = exp.collect();
  EXPECT_EQ(r.counter("client.mead_redirects"),
            metrics.counter_value("client.mead_redirects"));
  EXPECT_GT(r.client.invocations_completed, 0u);
  // The registry RTT series collects one sample per completed invocation
  // (the initial Naming resolve is only in the client-local series).
  ASSERT_NE(metrics.find_series("client.rtt_ms"), nullptr);
  EXPECT_EQ(metrics.find_series("client.rtt_ms")->count(),
            r.client.invocations_completed);
}

TEST(DeterminismTest, ResultCountersAreWindowDeltas) {
  // collect() reports each registry counter's growth since start(), for
  // any counter name, without creating one.
  Experiment exp(short_spec());
  ASSERT_TRUE(exp.start().ok());
  auto& metrics = exp.obs().metrics();
  const std::uint64_t frames0 = metrics.counter_value("gc.frames");
  ASSERT_GT(frames0, 0u);  // start-up traffic, outside the window
  exp.launch_client();
  exp.run_to_completion();
  metrics.counter("test.fresh").add(3);
  const std::size_t count = metrics.counter_count();
  const auto r = exp.collect();
  EXPECT_EQ(metrics.counter_count(), count);
  // Already nonzero at start(): only the in-window growth.
  EXPECT_GT(r.counter("gc.frames"), 0u);
  EXPECT_EQ(r.counter("gc.frames"),
            metrics.counter_value("gc.frames") - frames0);
  // Created after start(): counted from 0.
  EXPECT_EQ(r.counter("test.fresh"), 3u);
  // Never created: 0, and absent from the deltas.
  EXPECT_EQ(r.counter("test.never"), 0u);
  EXPECT_EQ(r.counters.count("test.never"), 0u);
  for (const auto& [name, d] : r.counters) EXPECT_GT(d, 0u) << name;
}

// ---- Golden digests ----
// FNV-1a-64 of a run's trace JSONL and metrics CSV, pinned for seed 2004.
// A refactor that must not change behaviour (wire bytes, event order,
// traces) leaves every digest here unchanged; a deliberate behaviour change
// re-records them in its own commit.

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

struct Digests {
  std::uint64_t trace = 0;
  std::uint64_t metrics = 0;
};

/// Checks the run's digests against `want`; returns its result.
ExperimentResult expect_digests(const ExperimentSpec& spec, Digests want) {
  Experiment exp(spec);
  auto up = exp.start();
  EXPECT_TRUE(up.ok()) << (up.ok() ? "" : up.error().reason);
  exp.launch_client();
  exp.run_to_completion();
  // A wrapped ring would pin only the trace's tail.
  EXPECT_EQ(exp.obs().trace().dropped(), 0u);
  const Digests got{fnv1a64(exp.obs().trace().to_jsonl()),
                    fnv1a64(exp.obs().metrics().to_csv())};
  EXPECT_EQ(got.trace, want.trace)
      << "trace digest 0x" << std::hex << got.trace;
  EXPECT_EQ(got.metrics, want.metrics)
      << "metrics digest 0x" << std::hex << got.metrics;
  return exp.collect();
}

/// The scaled GC plane on the bench_multigroup shape: 16 groups packed on
/// a 50-node pool.
ExperimentSpec scaled_spec() {
  ExperimentSpec spec;
  spec.seed = 2004;
  spec.invocations = 150;
  spec.topology = ClusterTopology::uniform(50);
  for (int i = 0; i < 16; ++i) {
    ServiceGroupSpec g;
    if (i > 0) g.service = "Svc" + std::to_string(i);
    spec.groups.push_back(std::move(g));
  }
  spec.gc_plane = gc::PlaneOptions::scaled();
  return spec;
}

TEST(GoldenDigestTest, TableOneSchemes) {
  struct Case {
    core::RecoveryScheme scheme;
    Digests want;
  };
  const Case cases[] = {
      {core::RecoveryScheme::kReactiveNoCache,
       {0x1684860b7c3e6af7, 0x765fb704e5862ff0}},
      {core::RecoveryScheme::kReactiveCache,
       {0xd3eba34eaab1bf27, 0x9a87008072937e8a}},
      {core::RecoveryScheme::kNeedsAddressing,
       {0x9b048ff83d6a315c, 0x5e2e8b0d2b98a583}},
      {core::RecoveryScheme::kLocationForward,
       {0xf5184c0db62d7af9, 0x6fcf17604ad52506}},
      {core::RecoveryScheme::kMeadMessage,
       {0xefce5689fc2185b7, 0xa0a39c80c0461373}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(core::to_string(c.scheme)));
    ExperimentSpec spec = short_spec();
    spec.scheme = c.scheme;
    expect_digests(spec, c.want);
  }
}

TEST(GoldenDigestTest, ScaledPlaneSixteenGroups) {
  expect_digests(scaled_spec(), {0x1fdb47fefa89834c, 0x4ab1eadba1df72cd});
}

TEST(GoldenDigestTest, ScaledPlanePartitionAndHeal) {
  // Isolating a worker expels its daemon (orphan leaves in name order);
  // the heal merges it back through a state sync (the name-ordered
  // snapshot) and its clients rejoin.
  ExperimentSpec spec = scaled_spec();
  spec.invocations = 300;
  spec.calib.gc_heartbeat = milliseconds(20);  // silence detected in 60 ms
  spec.invoke_timeout = milliseconds(30);
  spec.chaos.partition(milliseconds(40), "node3").heal(milliseconds(150));
  expect_digests(spec, {0xe1511212eb6296dc, 0xc6a0077ba758e746});
}

TEST(GoldenDigestTest, StatefulCheckpointChain) {
  // perfbench's stateful_restore shape: one 8192-key group, value_pad 32,
  // 10 ms checkpoints. Both schemes restore a replacement from the
  // checkpoint chain, so the pins cover the kCkptDelta codec, the ckpt
  // group's fan-out across the GC plane and the restore handshake.
  struct Case {
    core::RecoveryScheme scheme;
    Digests want;
  };
  const Case cases[] = {
      {core::RecoveryScheme::kReactiveNoCache,
       {0x3538c792614305cd, 0x4c63b33bec9d8b26}},
      {core::RecoveryScheme::kMeadMessage,
       {0x3b9bae1bace76bc9, 0x0d705a52e707bba9}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(core::to_string(c.scheme)));
    ExperimentSpec spec;
    spec.scheme = c.scheme;
    spec.seed = 2004;
    spec.invocations = 2000;
    spec.invoke_timeout = milliseconds(25);
    ServiceGroupSpec g;
    g.scheme = c.scheme;
    g.state.enabled = true;
    g.state.keys = 8192;
    g.state.value_pad = 32;
    g.state.checkpoint_interval = milliseconds(10);
    g.state.log_cap = 256;
    g.state.restore_grace = milliseconds(10);
    g.state.restore_deadline = milliseconds(250);
    spec.groups.push_back(std::move(g));
    const ExperimentResult r = expect_digests(spec, c.want);
    EXPECT_GT(r.counter("state.ckpt.deltas"), 0u);
    EXPECT_GT(r.state_restores, 0u);
  }
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(DeterminismTest, ParallelSweepMatchesSequentialBitForBit) {
  // run_experiments must be a pure fan-out: the same specs through the
  // thread pool produce the same per-run results and the same trace
  // artifacts as the sequential path, byte for byte.
  const std::string dir = ::testing::TempDir();
  std::vector<ExperimentSpec> specs;
  for (std::uint64_t seed : {2004, 2005, 2006}) {
    ExperimentSpec spec = short_spec();
    spec.seed = seed;
    specs.push_back(spec);
  }
  auto with_traces = [&](const char* tag) {
    std::vector<ExperimentSpec> named = specs;
    for (std::size_t i = 0; i < named.size(); ++i) {
      named[i].trace_jsonl = dir + "/sweep_" + tag + "_" +
                             std::to_string(named[i].seed) + ".jsonl";
    }
    return named;
  };
  const auto seq_specs = with_traces("seq");
  const auto par_specs = with_traces("par");
  const auto seq = run_experiments(seq_specs, 1);
  const auto par = run_experiments(par_specs, 3);

  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].client.invocations_completed,
              par[i].client.invocations_completed) << "spec " << i;
    EXPECT_EQ(seq[i].client.comm_failures, par[i].client.comm_failures);
    EXPECT_EQ(seq[i].client.transients, par[i].client.transients);
    EXPECT_EQ(seq[i].server_failures, par[i].server_failures);
    EXPECT_EQ(seq[i].gc_bytes, par[i].gc_bytes);
    EXPECT_EQ(seq[i].counters, par[i].counters);
    EXPECT_EQ(seq[i].sim_events, par[i].sim_events);
    EXPECT_EQ(seq[i].duration_s, par[i].duration_s);
    EXPECT_EQ(seq[i].client.rtt_ms.samples(), par[i].client.rtt_ms.samples());
    const std::string seq_trace = slurp(seq_specs[i].trace_jsonl);
    const std::string par_trace = slurp(par_specs[i].trace_jsonl);
    ASSERT_FALSE(seq_trace.empty()) << seq_specs[i].trace_jsonl;
    EXPECT_EQ(seq_trace, par_trace) << "trace diverged for spec " << i;
  }
}

}  // namespace
}  // namespace mead::app

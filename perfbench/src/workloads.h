// The benchmark's workloads and the measured execution of one simulation.
//
// Every workload is a closed loop: one client per service group, each
// waiting for its reply, paced at 1 ms start-to-start, with the memory-leak
// fault on. A workload is a fixed list of simulations whose seeds derive
// from the benchmark's --seed. The first pass runs all of them and yields
// the simulated metrics; every later pass reruns the leading `repeated`
// ones, which must reproduce exactly and give the host-time samples.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "app/experiment.h"

namespace perfbench {

struct SimRun {
  std::string label;  // recovery scheme (and seed offset) of this run
  mead::app::ExperimentSpec spec;
};

struct Workload {
  std::string name;
  std::vector<SimRun> sims;
  /// How many leading sims every pass reruns (the host-time sample).
  std::size_t repeated = 0;
  /// Checkpoint shape the wire and state probes use: the stateful group's
  /// StateOptions, or the defaults on stateless workloads.
  mead::core::StateOptions state;
  bool stateful = false;
  std::size_t groups = 1;
  /// The placement universe (worker nodes) the rm probe chooses from.
  std::vector<std::string> workers;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// The workload called `name` with simulation seeds derived from `seed`;
/// nullopt for an unknown name.
[[nodiscard]] std::optional<Workload> make_workload(std::string_view name,
                                                    std::uint64_t seed);

/// Registry counters read as deltas over each simulation's measurement
/// window (from the end of start() to the end of collect()).
inline constexpr const char* kCounters[] = {
    "net.bytes.total",       "net.process_crashes",
    "orb.forwards_followed", "orb.readdress_retries",
    "client.mead_redirects", "client.masked_failures",
    "client.unmasked_eofs",  "client.query_timeouts",
    "server.failover_piggybacks", "server.rejuvenations",
    "rm.launches",           "rm.proactive_launches",
    "rm.placement.frames",   "gc.frames",
    "gc.broadcasts",         "gc.batch.frames",
    "gc.batch.coalesced",    "state.ckpt.deltas",
    "state.ckpt.bytes",      "state.replay.msgs",
};
inline constexpr std::size_t kCounterCount =
    sizeof kCounters / sizeof kCounters[0];

/// Host spans in nanoseconds around the benchmark's calls into
/// app::Experiment for one simulation.
struct Spans {
  double setup_ns = 0;    // construct + start()
  double launch_ns = 0;   // launch_client()
  double slices_ns = 0;   // every sim().run_for(100 ms) slice
  double collect_ns = 0;  // collect()
  std::vector<double> slice_ns;  // each slice; sliced runs only

  [[nodiscard]] double run_ns() const {
    return launch_ns + slices_ns + collect_ns;
  }
};

/// What one simulation produced: host-time spans (noisy) and simulated
/// results (exactly reproducible from the seed).
struct SimOutcome {
  std::string label;
  std::string error;  // non-empty: start() failed with this reason
  Spans host;

  // Simulated results.
  std::uint64_t expected = 0;    // invocations the clients were asked for
  std::uint64_t completed = 0;
  std::uint64_t exceptions = 0;  // client-visible, each retried
  std::uint64_t naming_refreshes = 0;
  std::vector<double> rtt_ms;       // every client, sample 0 excluded
  std::vector<double> failover_ms;  // invocations that went through fail-over
  std::uint64_t server_failures = 0;
  std::uint64_t gc_bytes = 0;
  double duration_s = 0;
  bool state_ok = true;
  std::uint64_t restores = 0;
  double restore_ms = 0;  // mean completed restore; 0 when none
  double steady_rtt_ms = 0;  // mean of the clients' steady-state RTTs
  std::size_t slices = 0;    // 100 ms slices until every client finished
  std::uint64_t events = 0;
  std::uint64_t trace_emitted = 0;  // trace events emitted in the window
  std::uint64_t trace_dropped = 0;  // ring overwrites since construction
  std::uint64_t counters[kCounterCount] = {};

  /// True when every simulated result equals `o`'s (host spans ignored).
  [[nodiscard]] bool same_simulation(const SimOutcome& o) const;
};

/// Runs one simulation through app::Experiment's public API. `sliced`
/// times each 100 ms slice on its own as well.
[[nodiscard]] SimOutcome run_sim(const SimRun& run, bool sliced);

}  // namespace perfbench

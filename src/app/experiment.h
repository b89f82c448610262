// One-call experiment facade over Testbed + ExperimentClient: a single
// ExperimentSpec in, a single ExperimentResult out, with every Table 1 /
// Figure 3-5 counter read back from the simulation's metrics registry
// (as deltas over the measurement window) rather than scraped from
// individual components.
//
// A spec may host several independent service groups on an arbitrary
// cluster topology; one measurement client runs per group, and the result
// carries per-group counters next to the legacy single-group view (which
// always describes the first group — the paper's TimeOfDay service).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "app/experiment_client.h"
#include "app/testbed.h"
#include "obs/metrics.h"

namespace mead::app {

/// A cross-group striping workload: one (or more) clients fanning
/// invocations round-robin over several service groups. `name` namespaces
/// the clients' counters ("client.<name>[.<k>].*") and member names.
struct StripeSpec {
  std::string name;
  std::vector<std::string> services;
  /// Concurrent clients running this stripe.
  int clients = 1;
};

/// Everything one §5 measurement run needs. Defaults: five-node testbed,
/// one TimeOfDay group, 10,000 invocations at 1 ms, seed 2004 (DSN 2004).
struct ExperimentSpec {
  ExperimentSpec() = default;

  core::RecoveryScheme scheme = core::RecoveryScheme::kReactiveNoCache;
  int invocations = 10'000;
  std::uint64_t seed = 2004;
  core::Thresholds thresholds;
  bool inject_leak = true;
  Calibration calib;
  Duration spacing = milliseconds(1);
  Duration query_timeout = milliseconds(10);
  std::size_t replica_count = 3;
  /// When non-empty, run() writes the structured event trace here as JSONL.
  std::string trace_jsonl;

  /// Cluster shape. Defaults to the paper's five-node layout.
  ClusterTopology topology = ClusterTopology::paper();
  /// Service groups to host; empty means one paper-default group built
  /// from the scalar fields above. Each group gets its own measurement
  /// client issuing `invocations` requests.
  std::vector<ServiceGroupSpec> groups;
  /// Measurement clients per group. 1 (the default) keeps the paper's
  /// layout and its historical counter names ("client.*"); K > 1 runs K
  /// concurrent clients per group, each under its own metrics namespace
  /// "client.<service>.<k>.*" and member name "<service>/client/<k>".
  int clients_per_group = 1;
  /// Read-routing policy for every measurement client. Only effective
  /// against read-set-publishing groups (kActiveReadFanout, kQuorum);
  /// kPrimaryOnly is the paper's model.
  orb::RoutingPolicy routing = orb::RoutingPolicy::kPrimaryOnly;
  /// Cross-group striping workloads, launched after the per-group clients.
  std::vector<StripeSpec> stripes;
  /// Declarative fault schedule replayed once the world is up. Empty (the
  /// default): no chaos machinery is constructed at all.
  fault::ChaosSchedule chaos;
  /// Per-invocation reply deadline for every measurement client. Unset
  /// (default): clients wait indefinitely — required under chaos schedules
  /// that partition the client away from a primary, where no EOF ever
  /// arrives to break the wait.
  std::optional<Duration> invoke_timeout;
  /// Recovery Manager deployment. The default single replica keeps the
  /// paper's solo manager (and its byte-identical traces); replicas > 1
  /// runs the replicated, self-supervised RM group.
  RmSpec rm;
  /// Scaled GC plane (sharded sequencers / interest-scoped delivery /
  /// batched mesh writes). Default-constructed = the legacy plane with its
  /// byte-identical seed-2004 traces.
  gc::PlaneOptions gc_plane;
  /// Worker nodes withheld from kAlgorithmic placement universes until a
  /// chaos join_node event admits them.
  std::vector<std::string> late_workers;
};

/// Measurement-window results for one service group. Its registry
/// counters ("rm.launches.<svc>", "rm.migrations.<svc>", ...) are read
/// through ExperimentResult::counter().
struct GroupResult {
  std::string service;
  std::size_t replica_count = 0;       // target degree
  std::size_t server_failures = 0;     // incarnation deaths in the window
  std::uint64_t invocations_completed = 0;  // summed over the group's clients
  std::uint64_t client_exceptions = 0;
  std::uint64_t naming_refreshes = 0;
  std::uint64_t route_switches = 0;
  std::size_t clients = 0;             // measurement clients on this group
  /// Mean of the group's clients' steady-state RTTs (the single client's
  /// value when clients == 1).
  double steady_state_rtt_ms = 0;
  /// Stateful groups only (StateOptions::enabled; trivially true
  /// otherwise): every live, non-restoring replica's AppState digest
  /// matched the deterministic expectation for its own applied-op count —
  /// no lost, duplicated, or reordered application anywhere in the
  /// checkpoint/replay pipeline.
  bool state_ok = true;
  /// Highest applied-op count over the group's live replicas (the
  /// primary's progress).
  std::uint64_t state_applied = 0;
  /// Completed checkpoint restores (base + deltas + log replay) summed
  /// over every incarnation the group ever launched.
  std::uint64_t state_restores = 0;
  /// Duplicate requests suppressed server-side, summed over every
  /// incarnation (dedup-enabled groups only).
  std::uint64_t dedup_hits = 0;
  /// kQuorum confirm reads / read repairs, summed over the group's clients.
  std::uint64_t quorum_reads = 0;
  std::uint64_t quorum_repairs = 0;
};

/// Per-client rollup: one entry per measurement client, in launch order
/// (group clients first, group-major, then striped clients).
struct ClientRollup {
  std::string label;    // obs actor ("client", "svcB/client/2", ...)
  std::string prefix;   // metrics namespace ("client", "client.<svc>.<k>")
  std::string service;  // measured service; stripe name for striped clients
  std::uint64_t invocations_completed = 0;
  std::uint64_t exceptions = 0;
  std::uint64_t naming_refreshes = 0;
  std::uint64_t route_switches = 0;
  std::uint64_t quorum_reads = 0;
  std::uint64_t quorum_repairs = 0;
  double steady_state_rtt_ms = 0;
};

struct ExperimentResult {
  /// The first group's client — the whole story for single-group specs.
  ClientResults client;
  std::size_t server_failures = 0;
  std::uint64_t gc_bytes = 0;          // GC traffic during the measurement
  double duration_s = 0;               // virtual seconds of measurement
  std::uint64_t sim_events = 0;        // kernel events processed by the run
  // Stateful-service pipeline (zero / true when no group enables
  // StateOptions).
  std::uint64_t state_restores = 0;    // completed restores, summed over groups
  /// Mean completed-restore duration (virtual ms) over replicas that
  /// restored; 0 when none did.
  double state_restore_ms = 0;
  bool state_ok = true;                // AND over group_results[].state_ok
  std::uint64_t quorum_reads = 0;      // summed over client rollups
  std::uint64_t quorum_repairs = 0;
  double wall_ms = 0;                  // real (host) time spent in run()
  /// One entry per hosted group, in spec order.
  std::vector<GroupResult> group_results;
  /// One entry per measurement client, in launch order.
  std::vector<ClientRollup> client_results;
  /// Every registry counter that grew during the measurement window (from
  /// the end of Experiment::start() to collect()), with its growth.
  obs::CounterSnapshot counters;

  /// The window's growth of registry counter `name` ("gc.frames",
  /// "rm.failovers", "rm.reactive_launches.<svc>", ...); 0 when it did not
  /// grow or was never created.
  [[nodiscard]] std::uint64_t counter(std::string_view name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }

  [[nodiscard]] double gc_bandwidth_bps() const {
    return duration_s > 0 ? static_cast<double>(gc_bytes) / duration_s : 0;
  }
  /// Table 1 "Client Failures (%)": client-visible exceptions per
  /// server-side failure.
  [[nodiscard]] double client_failure_pct() const {
    if (server_failures == 0) return 0;
    return 100.0 * static_cast<double>(client.total_exceptions()) /
           static_cast<double>(server_failures);
  }
  /// Invocations completed across every measurement client (group clients
  /// and striped clients alike).
  [[nodiscard]] std::uint64_t total_invocations() const {
    std::uint64_t n = 0;
    for (const auto& c : client_results) n += c.invocations_completed;
    return n;
  }
};

/// Owns the testbed and measurement clients for one experiment. start()
/// snapshots the registry's counters, so collect() reports deltas over the
/// measurement window even though the registry is simulation-global.
class Experiment {
 public:
  explicit Experiment(ExperimentSpec spec);
  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;
  ~Experiment();

  /// Bring the world up, validate stripes, snapshot the window's baselines.
  [[nodiscard]] StartResult start();
  /// Spawn the measurement clients (after start() succeeds):
  /// clients_per_group per group in group-major order, then the striped
  /// clients in stripe order.
  void launch_client();
  /// Drive the simulation until every client finishes (bounded at 300 s
  /// virtual time so a wedged run still terminates).
  void run_to_completion();
  /// The measurement window so far.
  [[nodiscard]] ExperimentResult collect() const;

  /// start + launch_client + run_to_completion + collect. On start failure
  /// prints the reason to stderr and returns an empty result (matching the
  /// old bench harness). Writes spec.trace_jsonl if set.
  ExperimentResult run();

  /// Write the event trace to `path` as JSONL; returns false on I/O error.
  bool export_trace_jsonl(const std::string& path) const;

  [[nodiscard]] const ExperimentSpec& spec() const { return spec_; }
  [[nodiscard]] Testbed& testbed() { return bed_; }
  /// The first group's client (null before launch_client()).
  [[nodiscard]] ExperimentClient* client() {
    return clients_.empty() ? nullptr : clients_.front().get();
  }
  [[nodiscard]] const std::vector<std::unique_ptr<ExperimentClient>>& clients()
      const {
    return clients_;
  }
  [[nodiscard]] sim::Simulator& sim() { return bed_.sim(); }
  [[nodiscard]] obs::Recorder& obs() { return bed_.sim().obs(); }

 private:
  ExperimentSpec spec_;
  Testbed bed_;
  std::vector<std::unique_ptr<ExperimentClient>> clients_;
  /// clients_[i]'s group index in bed_.groups(); npos for striped clients.
  std::vector<std::size_t> client_group_;
  /// clients_[i]'s measured service (the stripe name for striped clients).
  std::vector<std::string> client_service_;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  // Baselines captured by start().
  obs::CounterSnapshot counters0_;
  std::vector<std::size_t> group_deaths0_;  // per bed_.groups() entry
  std::uint64_t gc_bytes0_ = 0;
  TimePoint t0_;
};

/// One-shot convenience wrapper.
ExperimentResult run_experiment(const ExperimentSpec& spec);

/// Runs every spec and returns the results in spec order. Each Experiment
/// owns a fully independent Simulator (own clock, RNG, metrics registry,
/// trace ring), so the sweep fans out across `n_threads` worker threads
/// with no shared mutable state; per-run outputs (results, counters, trace
/// JSONL files) are bit-identical to the sequential path. `n_threads <= 1`
/// runs sequentially on the calling thread.
std::vector<ExperimentResult> run_experiments(
    std::span<const ExperimentSpec> specs, unsigned n_threads);

}  // namespace mead::app

// The measurement client from §5: invokes get_time at 1 ms intervals,
// records per-invocation round-trip times, exceptions, and fail-over
// durations, and applies the per-scheme client-side recovery policy:
//
//  * reactive, no cache  — on an exception, fetch fresh bindings from the
//    Naming Service and move to the next replica after the failed one;
//  * reactive, cached    — resolve all replicas up front; on an exception
//    advance through the cache, refreshing from Naming only when every
//    entry has failed since the last refresh (stale entries then raise
//    TRANSIENT, §5.2.1);
//  * proactive schemes   — no application-level policy: LOCATION_FORWARD is
//    followed natively by the ORB, NEEDS_ADDRESSING and MEAD messages are
//    handled beneath it by the client interceptor. The reactive no-cache
//    policy remains as a fallback for unmasked failures.
//
// A client measures one service by default but can *stripe* over several
// (options.services): invocation i goes to service i % N, each service
// keeping its own stub, reference cache, and recovery scheme. Against
// read-set-publishing groups (kActiveReadFanout, kQuorum) a routing policy
// other than kPrimaryOnly attaches an orb::Router fed by the Recovery
// Manager's read-set updates, spreading reads over the group's live
// replicas. kQuorum targets additionally confirm each read against a
// second replica (R = 2) and count divergent replies as read repairs;
// dedup-enabled groups get a (client_id, seq) token on every request so
// the server suppresses re-applies across failover retries.
#pragma once

#include <map>
#include <memory>
#include <optional>

#include "app/testbed.h"
#include "app/timeofday.h"
#include "common/stats.h"
#include "core/client_mead.h"
#include "core/read_set.h"
#include "naming/naming.h"
#include "orb/routing.h"
#include "orb/stub.h"

namespace mead::app {

struct ClientOptions {
  ClientOptions() = default;

  int invocations = 10'000;           // the paper's run length
  Duration spacing = milliseconds(1); // request rate (start-to-start)
  Duration query_timeout = milliseconds(10);  // §4.2 group-query timeout
  /// Which service group to measure. The client's recovery scheme is the
  /// group's scheme.
  std::string service = kServiceName;
  /// Striping: when non-empty, the client fans invocations round-robin
  /// over these services (`service` is ignored). Each target keeps its own
  /// stub/cache and uses its own group's recovery scheme. Striped clients
  /// cannot use kNeedsAddressing (its group query is single-service).
  std::vector<std::string> services;
  /// Read-routing policy. Only effective against read-set-publishing
  /// groups (kActiveReadFanout, kQuorum — warm-passive groups have no read
  /// set); kPrimaryOnly is the paper's behaviour.
  orb::RoutingPolicy routing = orb::RoutingPolicy::kPrimaryOnly;
  /// GC member name; empty derives "client/1" for the paper's group and
  /// "<service>/client/1" otherwise (member names are cluster-global).
  std::string member;
  /// Process + obs actor label; empty derives "client" for the paper's
  /// group and "<service>/client" otherwise.
  std::string label;
  /// Metrics key prefix; empty derives "client" for the paper's group and
  /// "client.<service>" otherwise. Multi-client experiments pass
  /// "client.<service>.<k>" here so fleets never share counters.
  std::string prefix;
  /// Reply deadline per invocation (reported as a CommFailure). Unset:
  /// wait indefinitely — the pre-chaos behaviour, where a dead server
  /// always surfaces as EOF. Chaos partitions need the deadline.
  std::optional<Duration> invoke_timeout;
};

struct ClientResults {
  ClientResults() { rtt_ms.reserve(10'000); }

  /// Per-invocation RTT in ms. Sample 0 is the initial Naming resolve
  /// (the "initial transient spike" on the paper's graphs, §5.2.3).
  Series rtt_ms{"rtt_ms"};
  /// RTTs of invocations during which a fail-over occurred (exception
  /// recovery, LOCATION_FORWARD follow, NEEDS_ADDRESSING retransmit, or
  /// MEAD redirect).
  Series failover_ms{"failover_ms"};
  // Exception taxonomy + refresh counts. The client emits these into the
  // metrics registry ("client.comm_failures", ...); results() fills this
  // snapshot from registry deltas since the client was constructed.
  std::uint64_t comm_failures = 0;
  std::uint64_t transients = 0;
  std::uint64_t other_exceptions = 0;
  std::uint64_t invocations_completed = 0;
  std::uint64_t naming_refreshes = 0;
  /// Router-driven stub re-targets ("<prefix>.route_switches").
  std::uint64_t route_switches = 0;
  /// kQuorum confirm reads completed ("<prefix>.quorum.reads") and the
  /// subset that found the second replica behind the first (read repairs,
  /// "<prefix>.quorum.repairs").
  std::uint64_t quorum_reads = 0;
  std::uint64_t quorum_repairs = 0;

  [[nodiscard]] std::uint64_t total_exceptions() const {
    return comm_failures + transients + other_exceptions;
  }
  /// Mean RTT over invocations with no recovery event (the steady-state
  /// number behind Table 1's "Increase in RTT" column). Excludes sample 0.
  [[nodiscard]] double steady_state_rtt_ms() const;
};

class ExperimentClient {
 public:
  ExperimentClient(Testbed& bed, ClientOptions opts);
  ~ExperimentClient();

  /// The full measurement run; spawn on the testbed's simulator.
  [[nodiscard]] sim::Task<void> run();

  [[nodiscard]] bool done() const { return done_; }
  /// Cheap progress probe (results() copies the full sample series).
  [[nodiscard]] std::uint64_t invocations_completed() const {
    return results_.invocations_completed;
  }
  /// Snapshot of the run so far: locally-held series plus the exception
  /// taxonomy read back from the metrics registry.
  [[nodiscard]] ClientResults results() const;
  [[nodiscard]] const core::ClientMead* interceptor() const { return mead_.get(); }
  /// The first target's stub (the only one for non-striped clients); null
  /// before setup() ran.
  [[nodiscard]] const orb::Stub* stub() const {
    return targets_.empty() ? nullptr : targets_.front().stub.get();
  }
  /// The first target's router; null unless a routing policy is attached.
  [[nodiscard]] const orb::Router* router() const {
    return targets_.empty() ? nullptr : targets_.front().router.get();
  }
  /// The first target's read-set subscriber; null unless its group
  /// publishes a read set and a routing policy is attached.
  [[nodiscard]] const core::ReadSetSubscriber* read_set() const {
    return targets_.empty() ? nullptr : targets_.front().read_set.get();
  }
  /// Process name / obs actor ("client", "<svc>/client", "stripe/client").
  [[nodiscard]] const std::string& actor_label() const { return label_; }
  /// Metrics namespace ("client", "client.<svc>", "client.<svc>.<k>").
  [[nodiscard]] const std::string& metrics_prefix() const { return prefix_; }
  [[nodiscard]] const ClientOptions& options() const { return opts_; }

 private:
  /// Everything one measured service needs: its stub, reference cache,
  /// recovery scheme, and (under read-fanout routing) router + read-set
  /// subscription.
  struct Target {
    std::string service;
    core::RecoveryScheme scheme = core::RecoveryScheme::kReactiveNoCache;
    std::unique_ptr<orb::Stub> stub;
    std::unique_ptr<orb::Router> router;
    std::unique_ptr<core::ReadSetSubscriber> read_set;
    std::vector<giop::IOR> cache;
    std::size_t cache_idx = 0;
    /// kQuorum only: second stub for the R = 2 confirm read, the member it
    /// is currently bound to, and a per-member version vector of the
    /// highest served_count each replica has returned (a confirm reply
    /// below its member's recorded high-water mark is a read repair).
    bool quorum = false;
    std::unique_ptr<orb::Stub> confirm_stub;
    std::string confirm_member;
    std::map<std::string, std::uint64_t> seen_counts;
    /// Reply-dedup tokens: enabled when the group checkpoints state with a
    /// dedup cache (state.dedup_cap > 0). The token is reused across
    /// retries of one invocation, so a failover retry of an already
    /// applied request is suppressed server-side.
    bool dedup = false;
  };

  [[nodiscard]] sim::Task<StartResult> setup();
  [[nodiscard]] sim::Task<StartResult> setup_target(Target& target);
  [[nodiscard]] sim::Task<void> recover(Target& target, giop::SysExKind kind);
  [[nodiscard]] sim::Task<void> recover_no_cache(Target& target);
  [[nodiscard]] sim::Task<void> recover_cached(Target& target,
                                               giop::SysExKind kind);
  /// kQuorum R = 2: re-read from a second live replica and flag divergence
  /// ("<prefix>.quorum.reads" / ".quorum.repairs"). Best-effort — a failed
  /// confirm only drops that replica from the rotation.
  [[nodiscard]] sim::Task<void> confirm_read(Target& target);
  void note_exception(giop::SysExKind kind);

  Testbed& bed_;
  ClientOptions opts_;
  std::string label_;    // process name + obs actor
  std::string prefix_;   // registry key prefix ("client" / "client.<svc>")
  core::RecoveryScheme scheme_;  // first target's scheme (logging)
  net::ProcessPtr proc_;
  std::unique_ptr<core::ClientMead> mead_;  // NEEDS_ADDRESSING / MEAD only
  std::unique_ptr<orb::Orb> orb_;
  std::unique_ptr<naming::NamingClient> naming_;
  std::vector<Target> targets_;
  std::string config_error_;  // non-empty: run() fails fast with this

  /// Registry counters for the exception taxonomy (single source of truth)
  /// plus their values at construction, so results() reports this client's
  /// contribution even when a simulation hosts several clients in sequence.
  struct TaxonomyCounter {
    obs::Counter* counter = nullptr;
    std::uint64_t base = 0;
    [[nodiscard]] std::uint64_t delta() const {
      return counter == nullptr ? 0 : counter->value() - base;
    }
    void bump() { counter->add(); }
  };
  TaxonomyCounter comm_failures_;
  TaxonomyCounter transients_;
  TaxonomyCounter other_exceptions_;
  TaxonomyCounter naming_refreshes_;
  TaxonomyCounter route_switches_;
  /// Resolved lazily on the first quorum confirm read (feature-gated so
  /// non-quorum runs keep the seed's registry key set).
  obs::Counter* quorum_reads_ = nullptr;
  obs::Counter* quorum_repairs_ = nullptr;
  std::uint64_t quorum_reads_base_ = 0;
  std::uint64_t quorum_repairs_base_ = 0;

  ClientResults results_;
  bool done_ = false;
};

}  // namespace mead::app

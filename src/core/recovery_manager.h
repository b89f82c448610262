// The MEAD Recovery Manager (§3.3): keeps every supervised service group's
// degree of replication at its target by launching replicas.
//
// The manager is split in two:
//
//  * RmCore (rm_core.h) — a pure, deterministic state machine holding all
//    per-group state, fed exclusively by the totally-ordered GC stream.
//  * RecoveryManager (this file) — the thin I/O shell: it joins the groups,
//    pumps ordered events into its core, and executes the returned actions
//    (sleep launch_delay, run the replica factory, multicast read sets).
//
// With cfg.self_supervise the manager runs as one replica of a replicated
// RM group: every replica joins rm_group() plus all supervised groups, so
// every core sees the same event sequence and converges on the same state.
// Only the first-in-view replica ("acting") executes actions; backups apply
// events silently. When the acting replica dies, the next first-in-view
// re-drives the launch slots its core still records as pending — under the
// `live - doomed + pending >= target` accounting that means exactly one
// launch per deficit across the failover, not zero or two (the replica
// factory must be idempotent per incarnation: re-driving is at-least-once).
// Observations that do not arrive ordered by themselves — local node-crash
// callbacks, replica-factory failures — are multicast on rm_group() so the
// backups converge too.
//
// The default (self_supervise == false) is the paper's solo manager, which
// is a single point of failure exactly as §3.3 concedes; that path keeps
// the historical event schedule byte-for-byte.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/mead_wire.h"
#include "core/registry.h"
#include "core/rm_core.h"
#include "gc/client.h"
#include "net/network.h"

namespace mead::core {

struct RecoveryManagerConfig {
  RecoveryManagerConfig() = default;

  std::string member = "recovery-manager";
  net::Endpoint daemon;
  /// The supervised set. Default: the paper's single TimeOfDay group.
  std::vector<GroupTarget> groups{GroupTarget{}};
  /// Models replica spin-up scheduling latency (fork/exec on the factory
  /// node). The replica's own startup path adds its own time on top.
  Duration launch_delay = milliseconds(2);
  /// True when this manager runs as one replica of a replicated RM group:
  /// it joins rm_group(), replicates crash observations and factory
  /// failures as ordered control frames, and executes actions only while
  /// first-in-view. False (default) preserves the solo manager's exact
  /// event schedule.
  bool self_supervise = false;
  /// Let a partition-retired replica rejoin as a converged backup via a
  /// state-transfer handshake (snapshot from the acting replica at the
  /// request's position in the total order + buffered-suffix replay)
  /// instead of retiring permanently. Default off: permanent fail-stop
  /// retirement is the historical behavior.
  bool readmit_retired = false;
};

class RecoveryManager {
 public:
  /// Called (after launch_delay) for every replica to be launched;
  /// `incarnation` is unique and increasing *within its group*. The factory
  /// builds the whole replica process. `host` is empty under kCycle (the
  /// application applies its own per-group placement) and names the chosen
  /// host under kAlgorithmic. Returns false if the replica could not be
  /// spawned, releasing the launch slot. Under self-supervision a failover
  /// may re-drive a slot the dead manager already filled, so the factory
  /// MUST be idempotent per incarnation (return true without spawning).
  using Factory = std::function<bool(const std::string& service,
                                     int incarnation, const std::string& host)>;

  RecoveryManager(net::ProcessPtr proc, RecoveryManagerConfig cfg,
                  Factory factory);
  RecoveryManager(const RecoveryManager&) = delete;
  RecoveryManager& operator=(const RecoveryManager&) = delete;
  ~RecoveryManager();

  /// Joins rm_group() (when self-supervised) and every supervised group,
  /// then starts pumping. With initially empty groups the acting replica
  /// bootstraps the first `target_degree` replicas of each.
  [[nodiscard]] sim::Task<bool> start();

  /// Snapshot of one supervised group — registry, doomed set, pending
  /// slots, incarnation counter, stats, read set — or nullopt if `service`
  /// is not supervised. Replaces the old per-field accessor sprawl.
  [[nodiscard]] std::optional<GroupView> view(const std::string& service) const {
    return core_.view(service);
  }
  /// Aggregate launch stats over all supervised groups.
  [[nodiscard]] const RmStats& stats() const { return core_.stats(); }
  [[nodiscard]] const std::vector<GroupTarget>& targets() const {
    return core_.targets();
  }
  /// Live replicas across all groups.
  [[nodiscard]] std::size_t live_replicas() const { return core_.live_total(); }

  [[nodiscard]] const std::string& member() const { return cfg_.member; }
  [[nodiscard]] bool alive() const { return proc_->alive(); }
  /// True while this replica executes actions: a live solo manager, or the
  /// live first-in-view replica of the RM group.
  [[nodiscard]] bool acting() const { return proc_->alive() && core_.acting(); }
  /// Times this replica was promoted from backup to acting.
  [[nodiscard]] std::uint64_t failovers() const { return failovers_; }
  /// True while this replica is retired (expelled-and-rejoined with
  /// possibly-diverged state and, without readmit_retired, out for good).
  [[nodiscard]] bool retired() const { return core_.retired(); }
  /// Times this replica's retired core restored acting state and rejoined
  /// as a converged backup (readmit_retired only).
  [[nodiscard]] std::uint64_t readmissions() const {
    return core_.readmissions();
  }
  /// A node joined the placement universe (kAlgorithmic rebalance
  /// workload). Solo: applied directly; replicated: multicast as an
  /// ordered kNodeJoin frame so every core rebalances at the same
  /// position.
  void on_join_observed(const std::string& host);
  /// kAlgorithmic introspection, for cross-replica equality checks.
  [[nodiscard]] std::uint64_t alive_epoch() const {
    return core_.alive_epoch();
  }
  [[nodiscard]] std::optional<std::string> placement_choice(
      const std::string& service) const {
    return core_.placement_choice(service);
  }

 private:
  /// Per-group obs counters ("rm.launches.<service>", ...), resolved once.
  struct GroupCounters {
    obs::Counter* launches = nullptr;
    obs::Counter* proactive_launches = nullptr;
    obs::Counter* reactive_launches = nullptr;
    obs::Counter* readset_updates = nullptr;
    /// Resolved only for groups with a MigrationSpec (null otherwise).
    obs::Counter* migrations = nullptr;
  };

  sim::Task<void> pump();
  /// Executes one action list. `count` false on failover re-drives: the
  /// obs counters were already bumped by whichever shell first executed
  /// the decision (core-side RmStats stay authoritative either way).
  void execute(const std::vector<RmAction>& actions, bool count);
  sim::Task<void> launch_task(std::string service, int incarnation,
                              std::string host, bool proactive, bool count);
  void on_crash_observed(const std::string& host);

  net::ProcessPtr proc_;
  RecoveryManagerConfig cfg_;
  Factory factory_;
  RmCore core_;
  // Aggregate hot-path counters, resolved once at construction (registry
  // refs stay valid for the simulation's lifetime).
  obs::Counter& launches_;
  obs::Counter& proactive_launches_;
  obs::Counter& reactive_launches_;
  obs::Counter& readset_updates_;
  obs::Counter& rm_failovers_;
  // kAlgorithmic counters, resolved only when a supervised target uses
  // the policy (null otherwise) so non-algorithmic runs leave the metrics
  // registry untouched.
  obs::Counter* placement_frames_ = nullptr;    // rm.placement.frames
  obs::Counter* algorithmic_placements_ = nullptr;  // rm.algorithmic.placements
  obs::Counter* placement_skipped_ = nullptr;   // rm.placement.skipped
  obs::Counter* rebalance_moves_ = nullptr;     // rm.rebalance.moves
  // Resolved only when a supervised target enables migration.
  obs::Counter* migrations_ = nullptr;          // rm.migrations
  std::map<std::string, GroupCounters> counters_;  // by service
  std::uint64_t crash_observer_ = 0;  // Network observer handle
  std::unique_ptr<gc::GcClient> gc_;
  std::uint64_t failovers_ = 0;
  /// Readmissions already surfaced to counters/logs by the pump.
  std::uint64_t readmissions_seen_ = 0;
};

}  // namespace mead::core

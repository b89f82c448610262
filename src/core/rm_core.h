// The Recovery Manager's decision core: a pure, deterministic state
// machine. Everything the manager tracks per supervised group — replica
// registry, doomed set, pending launch slots, incarnation numbering,
// reserved hosts, read sets, stats — lives here, and every input arrives
// either from the totally-ordered group-communication stream (on_event) or
// as an observation the shell replicates deterministically (on_node_crash,
// on_launch_failed). Outputs are RmAction lists; the core never touches the
// network, the clock, or the simulator.
//
// Because the GC mesh delivers one global total order, N RmCore instances
// whose shells join the same groups receive identical input sequences and
// therefore hold identical state. That is what makes the replicated
// Recovery Manager work: backups apply events silently, only the
// first-in-view shell executes the actions, and on failover the new
// first-in-view re-drives the still-pending launch slots its core already
// knows about — exactly one launch per deficit, not zero or two.
//
// Launch accounting keeps the per-group invariant
//     live - doomed + pending >= target
// so a proactive launch at T1 followed by the doomed replica's death causes
// exactly one launch.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/mead_wire.h"
#include "core/registry.h"
#include "gc/view.h"

namespace mead::core {

/// One supervised service group's target.
struct GroupTarget {
  GroupTarget() = default;
  GroupTarget(std::string s, std::size_t degree)
      : service(std::move(s)), target_degree(degree) {}

  std::string service = "TimeOfDay";
  std::size_t target_degree = 3;  // the paper runs three warm replicas

  /// kWarmPassive: only the primary serves (the paper's model, default).
  /// kActiveReadFanout: the Recovery Manager additionally maintains the
  /// group's read set (live announced replicas minus doomed ones) and
  /// multicasts kReadSet updates on read_set_group(service) whenever it
  /// changes, so routing clients can fan reads over the replicas.
  ReplicationStyle style = ReplicationStyle::kWarmPassive;

  /// kCycle leaves host choice to the application's own per-group cycle
  /// (factory receives an empty host — the paper's static placement, and
  /// the default). kAlgorithmic derives the host purely from (service,
  /// incarnation, sorted alive set) via core/placement.h, so replacements
  /// route around crashed workers and every RmCore replica computes the
  /// same answer locally: the RM publishes only the alive-set epoch.
  PlacementPolicy placement = PlacementPolicy::kCycle;
  /// kAlgorithmic only: hosts+spares seed the shared alive universe.
  std::vector<std::string> hosts;
  std::vector<std::string> spares;

  /// True for groups whose replicas checkpoint application state
  /// (core::StateOptions enabled): the RM additionally joins the group's
  /// ckpt channel and tracks which members are mid-restore, so a
  /// replacement that announced but is still replaying is visible.
  bool stateful = false;

  /// Prediction-driven rotation (disabled by default): when the primary's
  /// kUsageReport trend predicts exhaustion within `migration.horizon`, the
  /// core dooms the primary, pre-warms a standby through the ordinary
  /// launch/restore path, and orders an atomic handoff once it announces.
  MigrationSpec migration;
};

/// Per-group (and aggregate) launch decision counts. Derived purely from
/// the ordered stream, so every RM replica's copy is identical — unlike
/// the obs counters, which only the acting shell bumps.
struct RmStats {
  std::uint64_t launches = 0;
  std::uint64_t proactive_launches = 0;  // triggered by LaunchRequest
  std::uint64_t reactive_launches = 0;   // triggered by membership loss
  std::uint64_t migrations = 0;          // planner-scheduled rotations

  friend bool operator==(const RmStats&, const RmStats&) = default;
};

/// Snapshot of one supervised group — the RM's whole introspection surface
/// (replaces the old per-field accessor sprawl). Pointer fields borrow from
/// the core and stay valid until its next input.
struct GroupView {
  std::string service;
  std::size_t target_degree = 0;
  ReplicationStyle style = ReplicationStyle::kWarmPassive;
  PlacementPolicy placement = PlacementPolicy::kCycle;
  /// Replica-group view members that are not RM replicas.
  std::size_t live = 0;
  /// Launch slots issued but not yet consumed by a join.
  std::size_t pending = 0;
  int next_incarnation = 1;
  RmStats stats;
  /// Members that announced impending death and are still in view.
  std::vector<std::string> doomed;
  /// Stateful groups only: members whose checkpoint-restore handshake is
  /// still open (requested a chain, have not announced yet). Under kQuorum
  /// an announced member stays here until its kCatchupDone — the published
  /// quorum set carries it with the catching_up flag.
  std::vector<std::string> restoring;
  /// Planned-rotation victim while a migration is in flight; empty
  /// otherwise.
  std::string migrating;
  /// View + announced endpoints (never null for a supervised group).
  const ReplicaRegistry* registry = nullptr;
  /// Last published read set; null unless the style publishes one
  /// (kActiveReadFanout or kQuorum).
  const ReadSet* read_set = nullptr;
};

/// One instruction from the core to the acting shell.
struct RmAction {
  enum class Kind : std::uint8_t {
    /// Sleep launch_delay, then run the replica factory for `service` /
    /// `incarnation` on `host` (empty host: the application's own cycle).
    kLaunch,
    /// kAlgorithmic found no live, unoccupied host: the slot was abandoned
    /// and the incarnation burned (counters only; retried on the next
    /// membership change).
    kLaunchSkipped,
    /// Multicast the frozen `read_set` on GC group `group`. `republish`
    /// distinguishes a version-bumping update from a repeat for late
    /// subscribers (no counters or trace for the latter).
    kPublishReadSet,
    /// This (retired) replica asks the acting one for an RmCore snapshot:
    /// multicast CkptRequest{self, nonce, 0} on rm_group(). The one action
    /// a non-acting shell must execute — it is always self-directed.
    kRequestReadmit,
    /// Acting only: answer a readmission request by multicasting the
    /// frozen `snapshot` as kState{version = nonce} on rm_group().
    kSendRmSnapshot,
    /// Acting only: multicast the frozen `alive` epoch on rm_group() —
    /// the O(1) per-failure frame under kAlgorithmic placement. Late or
    /// readmitted backups adopt it; converged ones no-op (they already
    /// applied the same crash/join at the same ordered position).
    kPublishAliveEpoch,
    /// Acting only: ask `member` to retire gracefully (multicast kRetire
    /// on the group's control channel) — the rebalance pass migrating a
    /// group onto a freshly joined host.
    kRetireReplica,
    /// The migration planner scheduled a rotation for `service`: `member`
    /// is the doomed primary. Counters + kMigrationPlanned trace only; the
    /// standby launch rides the accompanying kLaunch action.
    kPlanMigration,
    /// Acting only: multicast kHandoff{service, member=victim, successor}
    /// on the group's control channel — the pre-warmed standby announced,
    /// so the victim drains, redirects its clients, and rejuvenates.
    kHandoff,
  };

  Kind kind = Kind::kLaunch;
  std::string service;
  // kLaunch / kLaunchSkipped
  int incarnation = 0;
  /// Computed algorithmically (core/placement.h); empty under kCycle.
  std::string host;
  bool proactive = false;
  // kPublishReadSet
  std::string group;
  ReadSet read_set;
  bool republish = false;
  // kRequestReadmit / kSendRmSnapshot
  std::uint64_t nonce = 0;
  Bytes snapshot;
  // kPublishAliveEpoch
  AliveEpoch alive;
  // kRetireReplica / kPlanMigration (victim) / kHandoff (victim)
  std::string member;
  // kHandoff
  std::string successor;
};

class RmCore {
 public:
  using Actions = std::vector<RmAction>;

  /// `self` is this replica's GC member name; `replicated` true means the
  /// shell joined rm_group() and acting status follows its first-in-view
  /// member (false: a solo manager, always acting). `readmit` lets a
  /// partition-retired core rejoin as a backup by restoring its state from
  /// the acting replica instead of retiring permanently.
  RmCore(std::vector<GroupTarget> targets, std::string self, bool replicated,
         bool readmit = false);

  // ---- deterministic inputs ----
  // Every replica must feed the identical sequence; each call returns the
  // actions the acting shell executes (backups discard them — their value
  // is the state transition).

  /// An ordered GC event from any joined group (replica / control /
  /// read-set groups of every target, plus rm_group() when replicated).
  [[nodiscard]] Actions on_event(gc::Event event);
  /// A node died. Solo shells apply their crash observation directly;
  /// replicated shells multicast kNodeCrash on rm_group() instead, which
  /// loops back through on_event. Idempotent.
  [[nodiscard]] Actions on_node_crash(const std::string& host);
  /// A node joined the placement universe. Solo shells apply the join
  /// observation directly; replicated shells multicast kNodeJoin on
  /// rm_group(). Bumps the alive epoch and runs the rebalance pass:
  /// every kAlgorithmic group whose anchor moves onto the new host gets
  /// a replacement launched there and its victim replica retired.
  /// Idempotent.
  [[nodiscard]] Actions on_node_join(const std::string& host);
  /// The acting shell's factory returned false for this slot. Solo shells
  /// call it directly; replicated shells multicast kLaunchFailed.
  /// Idempotent.
  [[nodiscard]] Actions on_launch_failed(const std::string& service,
                                         int incarnation);
  /// Failover resume for a newly-acting shell: re-issues kLaunch for every
  /// still-pending slot and republishes every fanout group's current read
  /// set. At-least-once by design — the replica factory must be idempotent
  /// per incarnation.
  [[nodiscard]] Actions resume_actions() const;

  // ---- leadership ----

  /// True when this replica should execute actions: always for a solo
  /// manager; first-in-view of rm_group() (and not retired) otherwise.
  [[nodiscard]] bool acting() const;
  /// A replica that was expelled from rm_group() (partition) and rejoined
  /// has missed ordered messages, so its state may have diverged; it
  /// retires rather than risk acting on stale state. With `readmit` it
  /// requests a snapshot from the acting replica and, once installed,
  /// un-retires as a converged backup; otherwise retirement is permanent.
  [[nodiscard]] bool retired() const { return retired_; }
  /// Times a retired core successfully restored acting state and rejoined.
  [[nodiscard]] std::uint64_t readmissions() const { return readmissions_; }
  [[nodiscard]] const gc::View& rm_view() const { return rm_view_; }

  // ---- introspection ----

  [[nodiscard]] std::optional<GroupView> view(const std::string& service) const;
  /// Aggregate over all supervised groups.
  [[nodiscard]] const RmStats& stats() const { return totals_; }
  [[nodiscard]] const std::vector<GroupTarget>& targets() const {
    return targets_;
  }
  /// Live replicas across all groups (RM members excluded).
  [[nodiscard]] std::size_t live_total() const;
  /// True while `incarnation`'s launch slot is still outstanding — the
  /// shell's launch task checks this after its delay so a slot released
  /// mid-sleep (node crash) is not double-filled.
  [[nodiscard]] bool slot_pending(const std::string& service,
                                  int incarnation) const;
  [[nodiscard]] bool is_control_group(const std::string& group) const {
    return by_control_group_.contains(group);
  }
  /// Alive-set epoch for kAlgorithmic placement (0 until the first
  /// crash/join mutates the universe).
  [[nodiscard]] std::uint64_t alive_epoch() const { return alive_epoch_; }
  /// The sorted alive host universe shared by every kAlgorithmic group.
  [[nodiscard]] const std::vector<std::string>& alive_hosts() const {
    return alive_hosts_;
  }
  /// The host this core would pick for `service`'s next incarnation under
  /// kAlgorithmic — side-effect-free, for cross-replica equality checks.
  /// nullopt for non-algorithmic groups or when no admissible host exists.
  [[nodiscard]] std::optional<std::string> placement_choice(
      const std::string& service) const;

 private:
  /// One issued-but-unconsumed launch. Joins consume slots oldest-first;
  /// a node crash releases the slot reserved on the dead host; a factory
  /// failure releases its exact incarnation.
  struct Slot {
    int incarnation = 0;
    std::string host;  // empty under kCycle
    bool proactive = false;
  };

  /// Everything the core tracks for one supervised group.
  struct Group {
    GroupTarget target;
    ReplicaRegistry registry;      // per-group view + announcements
    std::set<std::string> doomed;  // announced impending death
    std::vector<Slot> pending;     // launched but not yet joined
    int next_incarnation = 1;
    RmStats stats;
    /// Hosts with a placed launch in flight (reserved at decision time,
    /// released when the replica announces or the launch dies), so burst
    /// relaunches of one group never stack onto a single worker.
    std::set<std::string> reserved;
    /// kActiveReadFanout only: the last published serving set. version 0
    /// means nothing has been published yet (clients stay on the primary).
    ReadSet read_set;
    /// Stateful groups: members with an open restore handshake (saw their
    /// directed kCkptRequest; cleared by announce or view departure —
    /// except under kQuorum, where only kCatchupDone or departure clears).
    std::set<std::string> restoring;
    // ---- migration planner (MigrationSpec enabled only) ----
    /// Member whose kUsageReport samples the window holds (reset on
    /// primary change) and the bounded (at_ms, usage) window itself.
    std::string usage_member;
    std::vector<std::pair<std::uint64_t, double>> usage;
    /// Sender stamp of the last planned rotation (cool-down anchor);
    /// 0 = never migrated.
    std::uint64_t last_migration_ms = 0;
    /// Victim of the in-flight rotation; empty = none planned.
    std::string migrate_victim;
    /// The standby the ordered kHandoff named; only meaningful while
    /// handoff_sent.
    std::string migrate_successor;
    /// The kHandoff action has been emitted; resume re-emits it until the
    /// victim leaves the view (the acting shell may have died before the
    /// frame travelled).
    bool handoff_sent = false;
  };

  /// The ordinary event application path (on_event minus the readmission
  /// buffering intercept); drain_readmit_buffer replays through it.
  void apply_event(const gc::Event& event, Actions& out);
  void handle_view(Group& group, const gc::Event& event, Actions& out);
  void handle_rm_view(const gc::View& view, Actions& out);
  void reconcile(Group& group, bool proactive_trigger, Actions& out);
  /// Recomputes a published-read-set group's serving set; on change bumps
  /// the version and emits a kPublishReadSet action. No-op for
  /// warm-passive. kActiveReadFanout excludes mid-restore members like
  /// doomed ones; kQuorum keeps them, flagged catching_up.
  void refresh_read_set(Group& group, Actions& out);
  /// Feeds one kUsageReport into the group's planner window and, when the
  /// fitted time-to-exhaustion drops below the configured horizon, dooms
  /// the primary and pre-warms its standby (kPlanMigration + kLaunch).
  void plan_migration(Group& group, const UsageReport& report, Actions& out);
  void apply_node_crash(const std::string& host, Actions& out);
  void apply_node_join(const std::string& host, Actions& out);
  void apply_launch_failed(const std::string& service, int incarnation,
                           Actions& out);
  /// kAlgorithmic host choice: placement::choose over the shared alive
  /// universe, excluding hosts the group already occupies or reserves.
  [[nodiscard]] std::optional<std::string> algorithmic_choice(
      const Group& group, int incarnation) const;
  /// Bump alive_epoch_ and emit the O(1) kPublishAliveEpoch action.
  void publish_alive_epoch(Actions& out);
  [[nodiscard]] std::size_t live_in(const Group& group) const;
  [[nodiscard]] Group* find_group(const std::string& service);
  [[nodiscard]] const Group* find_group(const std::string& service) const;

  // ---- readmission state transfer ----
  // The snapshot point is the position of our own CkptRequest in the total
  // order: the acting core encodes its whole state there, and we buffer
  // every later event instead of applying it to our diverged copy. When
  // the kState answer lands we install the snapshot and replay the buffer,
  // which makes the readmitted core exactly convergent.
  [[nodiscard]] Bytes encode_snapshot() const;
  [[nodiscard]] bool install_snapshot(const Bytes& snapshot);
  /// Stops buffering and replays the buffered suffix through apply_event.
  void drain_readmit_buffer(Actions& out);
  [[nodiscard]] std::uint64_t next_readmit_nonce();

  std::vector<GroupTarget> targets_;
  std::string self_;
  bool replicated_ = false;
  bool retired_ = false;
  bool readmit_ = false;
  std::uint64_t readmit_nonce_ = 0;     // nonzero while a request is open
  bool readmit_anchor_seen_ = false;    // our request passed in the order
  std::vector<gc::Event> readmit_buffer_;
  std::uint64_t readmit_seq_ = 0;       // nonce generator
  std::uint64_t readmissions_ = 0;
  gc::View rm_view_;
  /// kAlgorithmic placement universe: the sorted union of hosts+spares
  /// over algorithmic targets, minus observed crashes, plus observed
  /// joins. Mutated only at ordered kNodeCrash/kNodeJoin positions (or
  /// their solo-direct equivalents), so every replica agrees. The core
  /// deliberately never asks the network about liveness.
  std::vector<std::string> alive_hosts_;
  std::uint64_t alive_epoch_ = 0;
  bool any_algorithmic_ = false;
  std::vector<std::unique_ptr<Group>> groups_;
  std::map<std::string, Group*> by_replica_group_;  // "mead/<svc>/replicas"
  std::map<std::string, Group*> by_control_group_;  // "mead/<svc>/control"
  std::map<std::string, Group*> by_readset_group_;  // "mead/<svc>/readset"
  std::map<std::string, Group*> by_ckpt_group_;     // "mead/<svc>/ckpt"
  RmStats totals_;
};

}  // namespace mead::core

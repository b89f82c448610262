// Configuration types for MEAD's proactive recovery framework.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/types.h"
#include "net/types.h"

namespace mead::core {

/// The five recovery strategies evaluated in §5 (Table 1).
enum class RecoveryScheme {
  kReactiveNoCache,    // client re-resolves via Naming Service on failure
  kReactiveCache,      // client caches all replica IORs up front
  kNeedsAddressing,    // client interceptor masks abrupt failure (§4.2)
  kLocationForward,    // server interceptor sends GIOP LOCATION_FORWARD (§4.1)
  kMeadMessage,        // MEAD proactive fail-over message, piggybacked (§4.3)
};

[[nodiscard]] constexpr std::string_view to_string(RecoveryScheme s) {
  switch (s) {
    case RecoveryScheme::kReactiveNoCache: return "reactive-no-cache";
    case RecoveryScheme::kReactiveCache: return "reactive-cache";
    case RecoveryScheme::kNeedsAddressing: return "needs-addressing";
    case RecoveryScheme::kLocationForward: return "location-forward";
    case RecoveryScheme::kMeadMessage: return "mead-message";
  }
  return "?";
}

/// How a group's live replicas share client traffic.
enum class ReplicationStyle : std::uint8_t {
  kWarmPassive,      // the paper's model: one serving primary, warm backups
  kActiveReadFanout, // all live replicas serve reads; primary serves writes
  kQuorum,           // leaderless R/W quorums over the published read set;
                     // a rejoining replica serves traffic while catching up
                     // (counted for writes immediately, excluded from reads
                     // until its catch-up completes — HEAL-style)
};

[[nodiscard]] constexpr std::string_view to_string(ReplicationStyle s) {
  switch (s) {
    case ReplicationStyle::kWarmPassive: return "warm-passive";
    case ReplicationStyle::kActiveReadFanout: return "active-read-fanout";
    case ReplicationStyle::kQuorum: return "quorum";
  }
  return "?";
}

/// True for styles whose read set the Recovery Manager publishes on the
/// group's read-set channel (kQuorum additionally carries catching_up).
[[nodiscard]] constexpr bool publishes_read_set(ReplicationStyle s) {
  return s == ReplicationStyle::kActiveReadFanout ||
         s == ReplicationStyle::kQuorum;
}

/// How the Recovery Manager chooses a host for a new replica incarnation.
enum class PlacementPolicy : std::uint8_t {
  kCycle,        // hosts[(incarnation-1) % size] — the paper's static cycle
  kAlgorithmic,  // pure function of (group, incarnation, sorted alive set):
                 // jump-consistent hash, computed by every RmCore replica
                 // independently — O(1) RM traffic per failure (core/placement.h)
};

[[nodiscard]] constexpr std::string_view to_string(PlacementPolicy p) {
  switch (p) {
    case PlacementPolicy::kCycle: return "cycle";
    case PlacementPolicy::kAlgorithmic: return "algorithmic";
  }
  return "?";
}

/// Virtual CPU charged by the interceptors — the per-scheme overhead knobs
/// behind Table 1's "Increase in RTT" column (see app/calibration.h).
struct InterceptorCosts {
  InterceptorCosts() = default;

  /// Server, LOCATION_FORWARD scheme: parse an incoming GIOP request to
  /// extract request_id + object key (the §4.1 expensive step).
  Duration lf_request_parse{0};
  /// Server, LOCATION_FORWARD: IOR lookup + fabricate the forward reply.
  Duration lf_reply_process{0};
  /// MEAD scheme: piggyback handling (server attach / client strip), per
  /// reply.
  Duration mead_piggyback{0};
  /// Client, NEEDS_ADDRESSING: filter & interpret read() data (§4.2).
  Duration na_read_filter{0};
  /// Client: re-point a live connection at a new replica (connect + dup2) —
  /// much cheaper than the ORB's own connection machinery.
  Duration redirect_cost{0};
};

/// How proactive-recovery trigger points are chosen.
enum class ThresholdPolicy {
  kFixed,     // the paper's preset usage fractions (§3.2)
  kAdaptive,  // future-work extension (§6): trigger when the predicted
              // time-to-exhaustion drops below the recovery lead time
};

/// Two-threshold soft-hand-off parameters (§3.2), plus the adaptive-policy
/// extension the paper lists as future work (§6).
struct Thresholds {
  Thresholds() = default;
  Thresholds(double launch, double migrate)
      : launch_fraction(launch), migrate_fraction(migrate) {}

  ThresholdPolicy policy = ThresholdPolicy::kFixed;

  // -- kFixed --
  /// T1: ask the Recovery Manager for a fresh replica.
  double launch_fraction = 0.8;
  /// T2: migrate connected clients to the next replica, then rejuvenate.
  double migrate_fraction = 0.9;

  // -- kAdaptive --
  /// Act when predicted time-to-exhaustion < lead. The launch lead covers
  /// spare spin-up; the migrate lead covers client hand-off + drain.
  Duration adaptive_launch_lead = milliseconds(150);
  Duration adaptive_migrate_lead = milliseconds(60);

  [[nodiscard]] static Thresholds adaptive(Duration launch_lead,
                                           Duration migrate_lead) {
    Thresholds t;
    t.policy = ThresholdPolicy::kAdaptive;
    t.adaptive_launch_lead = launch_lead;
    t.adaptive_migrate_lead = migrate_lead;
    return t;
  }
};

/// Stateful-service knobs (ISSUE 8): when enabled, the replica owns a
/// state::AppState mutated by every served request, checkpoints it
/// incrementally to the group's `mead/<svc>/ckpt` channel, and gates
/// its Naming registration on restoring state from a live peer first.
struct StateOptions {
  StateOptions() = default;

  bool enabled = false;
  /// Keyed-accumulator slot count — the state-size axis (8 bytes/key
  /// plus `value_pad` wire padding per shipped entry).
  std::uint32_t keys = 256;
  /// Extra bytes serialized per checkpoint entry, modeling values
  /// larger than a bare u64 (inflates transfer cost, not the store).
  std::uint32_t value_pad = 0;
  /// Primary's periodic checkpoint cadence.
  Duration checkpoint_interval = milliseconds(25);
  /// Message-log bound: hitting it forces an early checkpoint.
  std::uint32_t log_cap = 512;
  /// Restore: how long a starter waits for a peer's base snapshot
  /// before concluding it is the first replica up (fresh state).
  Duration restore_grace = milliseconds(3);
  /// Restore: hard deadline after the base arrived; announce with
  /// whatever consistent prefix has been installed.
  Duration restore_deadline = milliseconds(40);
  /// Virtual CPU charged per replayed log entry.
  Duration replay_op_cost = microseconds(50);
  /// Reply-deduplication cache capacity (ISSUE 10): > 0 keeps the last N
  /// applied request tokens per replica so a request retried across a
  /// failover or handoff is applied exactly once. Replicated alongside
  /// checkpoints and truncated with them. 0 = off (seed behavior).
  std::uint32_t dedup_cap = 0;
};

/// Prediction-driven proactive migration (ISSUE 10). When enabled, the
/// primary reports its resource usage on the control channel and the
/// Recovery Manager's deterministic planner schedules a rotation — spawn a
/// standby, atomic primary handoff, old primary rejuvenates — whenever the
/// fitted time-to-exhaustion drops below `horizon`.
struct MigrationSpec {
  MigrationSpec() = default;

  /// Act when predicted time-to-exhaustion < horizon. 0 = migration off.
  Duration horizon{0};
  /// Cool-down between planned migrations of the same group.
  Duration min_interval = milliseconds(200);
  /// Primary usage-report cadence on the control channel.
  Duration report_interval = milliseconds(10);

  [[nodiscard]] bool enabled() const { return horizon > Duration{0}; }
};

/// Identity + wiring for one MEAD-protected process.
struct MeadConfig {
  MeadConfig() = default;

  RecoveryScheme scheme = RecoveryScheme::kMeadMessage;
  Thresholds thresholds;
  InterceptorCosts costs;
  std::string service = "TimeOfDay";
  /// Unique group-communication member name ("replica/3", "client/1").
  std::string member;
  /// Local GC daemon endpoint (usually <own-host>:4803).
  net::Endpoint daemon;
  /// How long a migrating replica keeps serving before its graceful
  /// rejuvenation exit (gives redirects time to drain).
  Duration drain_timeout = milliseconds(30);
  /// Warm-passive state-transfer period (0 = disabled).
  Duration state_sync_interval{0};
  /// Stateful-service checkpointing (default off — the seed's
  /// stateless-counter behavior, byte-identical traces).
  StateOptions state;
  /// Replication style of the owning group. kQuorum replicas announce
  /// before their restore completes (online catch-up) and multicast
  /// kCatchupDone when the restore finishes.
  ReplicationStyle style = ReplicationStyle::kWarmPassive;
  /// Prediction-driven migration (default off). When enabled, the primary
  /// multicasts kUsageReport frames on the control channel for the RM's
  /// migration planner.
  MigrationSpec migration;
  /// Ports treated as infrastructure (never intercepted as app traffic).
  std::uint16_t daemon_port = 4803;
  std::uint16_t naming_port = 2809;
};

/// Group naming convention.
[[nodiscard]] inline std::string replica_group(const std::string& service) {
  return "mead/" + service + "/replicas";
}
[[nodiscard]] inline std::string control_group(const std::string& service) {
  return "mead/" + service + "/control";
}
/// Read-fanout groups only: the Recovery Manager multicasts kReadSet
/// updates here; routing clients join it to keep their read set fresh.
[[nodiscard]] inline std::string read_set_group(const std::string& service) {
  return "mead/" + service + "/readset";
}
/// Stateful groups only: checkpoint deltas, restore requests, and log
/// replay travel here, off the replica group's announce/query path.
[[nodiscard]] inline std::string ckpt_group(const std::string& service) {
  return "mead/" + service + "/ckpt";
}
/// The Recovery Manager replicas' own membership group. A replicated RM
/// joins it before any supervised group; leadership is first-in-view, and
/// node-crash observations / factory failures are multicast here so every
/// replica's RmCore applies them in the same total order.
[[nodiscard]] inline std::string rm_group() { return "mead/rm/members"; }
/// GC member name of Recovery Manager replica `index`. Index 0 keeps the
/// historical solo name so single-manager runs stay byte-identical.
[[nodiscard]] inline std::string rm_member_name(std::size_t index) {
  if (index == 0) return "recovery-manager";
  return "recovery-manager/" + std::to_string(index + 1);
}
/// True for any RM replica's member name. RM members join every supervised
/// group to receive its ordered event stream, so degree accounting and
/// primary selection must skip them.
[[nodiscard]] inline bool is_rm_member(std::string_view member) {
  constexpr std::string_view prefix = "recovery-manager";
  if (!member.starts_with(prefix)) return false;
  return member.size() == prefix.size() || member[prefix.size()] == '/';
}

}  // namespace mead::core

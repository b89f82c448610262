// First-class cluster/group model: an experiment hosts N nodes and M
// independent replicated service groups instead of the paper's hardwired
// five-node / one-group testbed.
//
//  * ClusterTopology — the node list plus named roles (naming/RM node,
//    client node, worker pool). The default is the paper's §5 Emulab
//    layout: node1..node5 with naming+RM on node5, the client on node4,
//    and replicas placed over node1..node3.
//  * ServiceGroupSpec — everything that distinguishes one replicated
//    service: name, replica count, recovery scheme, thresholds, ports,
//    and placement policy.
//  * ServiceGroup — the runtime object owning one group's replica
//    incarnations; the Recovery Manager's per-group launch factory.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "app/calibration.h"
#include "app/replica.h"
#include "app/timeofday.h"
#include "core/config.h"
#include "net/network.h"

namespace mead::app {

struct ClusterTopology {
  ClusterTopology() = default;

  /// Every node in the cluster, in bring-up order (a GC daemon runs on
  /// each). Role nodes below must appear in this list.
  std::vector<std::string> nodes;
  /// Hosts the Naming Service and the Recovery Manager (the paper's node5).
  std::string naming_node;
  /// Hosts the measurement client(s) (the paper's node4).
  std::string client_node;
  /// Default replica placement pool (the paper's node1..node3). Groups
  /// without an explicit host set draw from this pool.
  std::vector<std::string> worker_nodes;

  /// The paper's §5 testbed: five nodes, three workers.
  [[nodiscard]] static ClusterTopology paper();
  /// nodeN naming, node(N-1) client, node1..node(N-2) workers. Requires
  /// node_count >= 3.
  [[nodiscard]] static ClusterTopology uniform(std::size_t node_count);

  /// Deterministic placement for group `group_index`: `replica_count`
  /// distinct workers starting at offset group_index * replica_count
  /// (wrapping), so groups stripe over the pool and group 0 lands on the
  /// first workers — the paper's layout. Empty if the pool is smaller
  /// than replica_count.
  [[nodiscard]] std::vector<std::string> stripe_hosts(
      std::size_t group_index, std::size_t replica_count) const;

  /// Empty string if well-formed, else the reason it is not.
  [[nodiscard]] std::string validate() const;
};

/// Recovery Manager deployment for one testbed. The default — one replica,
/// no explicit hosts — reproduces the paper's solo manager on the naming
/// node byte-for-byte. replicas > 1 runs the RM as its own replicated GC
/// group ("mead/rm/members"): first-in-view acts, backups converge silently
/// and take over with the pending-launch slots intact.
struct RmSpec {
  RmSpec() = default;

  std::size_t replicas = 1;
  /// Host of each RM replica, in index order (size must equal `replicas`
  /// when non-empty). Empty: replica 0 on the topology's naming node (the
  /// paper's layout) and backups striped over the worker pool.
  std::vector<std::string> hosts;
  /// Replica spin-up scheduling latency modelled by every RM replica.
  Duration launch_delay = milliseconds(2);
  /// Let a partition-retired RM replica rejoin as a cold backup by
  /// restoring RmCore state from the acting replica (default off: the
  /// PR-6 permanent fail-stop retirement).
  bool readmit = false;
};

struct ServiceGroupSpec {
  ServiceGroupSpec() = default;

  /// Group name: the naming binding, the GC group key
  /// ("mead/<service>/replicas"), and the member-name qualifier.
  std::string service = kServiceName;
  std::size_t replica_count = 3;
  core::RecoveryScheme scheme = core::RecoveryScheme::kMeadMessage;
  core::Thresholds thresholds;
  bool inject_leak = true;
  Duration state_sync = milliseconds(100);
  /// Replica incarnation ports are base_port + incarnation; 0 means
  /// auto-assign a group-scoped range (20000 + 1000 * group index), so
  /// incarnation ports never collide across groups.
  std::uint16_t base_port = 0;
  /// Explicit placement set (must hold replica_count distinct hosts).
  /// Empty: striped from the topology's worker pool.
  std::vector<std::string> hosts;
  /// kCycle (default): incarnations round-robin over `hosts` — the paper's
  /// static placement. kAlgorithmic: the Recovery Manager derives each
  /// relaunch's host from the alive worker pool (core/placement.h), so
  /// relaunches route around crashed nodes.
  core::PlacementPolicy placement = core::PlacementPolicy::kCycle;
  /// kWarmPassive (default): only the primary serves — the paper's model.
  /// kActiveReadFanout: every live replica serves reads; the Recovery
  /// Manager publishes the group's read set so routing clients can spread
  /// read traffic over it. kQuorum: leaderless R/W quorums over that set —
  /// a rejoining replica counts for writes immediately and serves reads
  /// again once caught up, so the group never blocks on a restore.
  core::ReplicationStyle style = core::ReplicationStyle::kWarmPassive;
  /// Stateful-service checkpointing + restore-gated announce (ISSUE 8).
  /// Default off: replicas stay the seed's stateless counters.
  core::StateOptions state;
  /// Prediction-driven proactive rotation: when horizon > 0 the Recovery
  /// Manager trends the primary's usage reports and rotates the group
  /// before predicted exhaustion. Default off (seed behavior).
  core::MigrationSpec migration;

  /// GC member name of one incarnation. The paper's default group keeps
  /// the historical bare "replica/N" names (seed-trace compatibility);
  /// every other group is service-qualified, keeping member names unique
  /// across groups even when their incarnation numbers coincide.
  [[nodiscard]] std::string member_name(int incarnation) const;
  /// Matching client-side naming, e.g. "client/1" / "<service>/client/1".
  [[nodiscard]] std::string client_member_name(int client_index) const;
};

/// One replicated service at runtime: owns every replica incarnation ever
/// launched for the group (dead ones included) and implements the Recovery
/// Manager's launch factory for it.
class ServiceGroup {
 public:
  ServiceGroup(net::Network& net, ServiceGroupSpec spec,
               std::string naming_host, const Calibration& calib);
  ServiceGroup(const ServiceGroup&) = delete;
  ServiceGroup& operator=(const ServiceGroup&) = delete;

  /// Recovery Manager factory hook: builds incarnation `incarnation` on
  /// `host_hint` when given (algorithmic placement), otherwise on the host the
  /// group's own round-robin cycle derives. Returns false — releasing the
  /// launch slot — when the target host does not exist (e.g. crashed away).
  bool spawn_replica(int incarnation, const std::string& host_hint = {});

  [[nodiscard]] const ServiceGroupSpec& spec() const { return spec_; }
  [[nodiscard]] const std::string& service() const { return spec_.service; }
  /// The effective placement set (explicit hosts or the striped pool).
  [[nodiscard]] const std::vector<std::string>& hosts() const { return spec_.hosts; }
  [[nodiscard]] const std::vector<std::unique_ptr<TimeOfDayReplica>>& replicas()
      const {
    return replicas_;
  }
  [[nodiscard]] std::size_t live_replica_count() const;
  [[nodiscard]] std::size_t replica_deaths() const;
  /// True once every live replica has bound itself in the Naming Service.
  [[nodiscard]] bool all_registered() const;

 private:
  net::Network& net_;
  ServiceGroupSpec spec_;
  std::string naming_host_;
  Calibration calib_;
  std::vector<std::unique_ptr<TimeOfDayReplica>> replicas_;
};

}  // namespace mead::app

#include "app/cluster.h"

#include <algorithm>
#include <set>

namespace mead::app {

ClusterTopology ClusterTopology::paper() {
  ClusterTopology t;
  for (int i = 1; i <= 5; ++i) t.nodes.push_back("node" + std::to_string(i));
  t.naming_node = t.nodes[4];
  t.client_node = t.nodes[3];
  t.worker_nodes = {t.nodes[0], t.nodes[1], t.nodes[2]};
  return t;
}

ClusterTopology ClusterTopology::uniform(std::size_t node_count) {
  ClusterTopology t;
  if (node_count < 3) return t;  // validate() reports the problem
  for (std::size_t i = 1; i <= node_count; ++i) {
    t.nodes.push_back("node" + std::to_string(i));
  }
  t.naming_node = t.nodes[node_count - 1];
  t.client_node = t.nodes[node_count - 2];
  t.worker_nodes.assign(t.nodes.begin(), t.nodes.end() - 2);
  return t;
}

std::vector<std::string> ClusterTopology::stripe_hosts(
    std::size_t group_index, std::size_t replica_count) const {
  if (replica_count == 0 || worker_nodes.size() < replica_count) return {};
  std::vector<std::string> out;
  out.reserve(replica_count);
  const std::size_t start = (group_index * replica_count) % worker_nodes.size();
  for (std::size_t j = 0; j < replica_count; ++j) {
    out.push_back(worker_nodes[(start + j) % worker_nodes.size()]);
  }
  return out;
}

std::string ClusterTopology::validate() const {
  if (nodes.empty()) return "topology has no nodes";
  std::set<std::string> known(nodes.begin(), nodes.end());
  if (known.size() != nodes.size()) return "duplicate node names";
  if (!known.contains(naming_node)) {
    return "naming node '" + naming_node + "' is not in the node list";
  }
  if (!known.contains(client_node)) {
    return "client node '" + client_node + "' is not in the node list";
  }
  if (worker_nodes.empty()) return "topology has no worker nodes";
  for (const auto& w : worker_nodes) {
    if (!known.contains(w)) {
      return "worker node '" + w + "' is not in the node list";
    }
  }
  return {};
}

std::string ServiceGroupSpec::member_name(int incarnation) const {
  const std::string suffix = "replica/" + std::to_string(incarnation);
  if (service == kServiceName) return suffix;
  return service + "/" + suffix;
}

ServiceGroup::ServiceGroup(net::Network& net, ServiceGroupSpec spec,
                           std::string naming_host, const Calibration& calib)
    : net_(net), spec_(std::move(spec)), naming_host_(std::move(naming_host)),
      calib_(calib) {}

bool ServiceGroup::spawn_replica(int incarnation, const std::string& host_hint) {
  // Idempotent per incarnation: a Recovery Manager failover re-drives
  // still-pending launches at-least-once, and the retry must not spawn a
  // second copy of an incarnation the dead manager already built.
  const std::string member = spec_.member_name(incarnation);
  for (const auto& r : replicas_) {
    if (r->member() == member) return true;
  }
  // Incarnations round-robin over the group's own host set (one live
  // replica per host, which the Naming rebind-by-host convention needs),
  // unless the Recovery Manager placed the launch on a specific host.
  const std::string& host =
      host_hint.empty()
          ? spec_.hosts[static_cast<std::size_t>(incarnation - 1) %
                        spec_.hosts.size()]
          : host_hint;
  if (!net_.node_alive(host)) return false;
  ReplicaOptions ro;
  ro.service = spec_.service;
  ro.scheme = spec_.scheme;
  ro.thresholds = spec_.thresholds;
  ro.calib = calib_;
  ro.inject_leak = spec_.inject_leak;
  ro.member = member;
  // Unique port per incarnation within the group's own range: a relaunched
  // replica listens elsewhere, so cached references to the dead incarnation
  // are genuinely stale (§5.2.1), and two groups never share a port.
  ro.port = static_cast<std::uint16_t>(spec_.base_port + incarnation);
  ro.naming_host = naming_host_;
  ro.state_sync = spec_.state_sync;
  ro.state = spec_.state;
  ro.style = spec_.style;
  ro.migration = spec_.migration;
  replicas_.push_back(TimeOfDayReplica::launch(net_, host, std::move(ro)));
  return true;
}

std::size_t ServiceGroup::live_replica_count() const {
  std::size_t n = 0;
  for (const auto& r : replicas_) {
    if (r->alive()) ++n;
  }
  return n;
}

std::size_t ServiceGroup::replica_deaths() const {
  return replicas_.size() - live_replica_count();
}

}  // namespace mead::app

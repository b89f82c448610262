#include "app/testbed.h"

#include <algorithm>
#include <set>

#include "common/log.h"

namespace mead::app {

namespace {

/// Auto base-port spacing: each group gets a 1000-port incarnation range
/// starting at 20000, so relaunched incarnations never collide across
/// groups (group 0 keeps the paper's historical 20000+N ports).
constexpr std::uint16_t kAutoPortBase = 20000;
constexpr std::uint16_t kAutoPortSpacing = 1000;

}  // namespace

Testbed::Testbed(TestbedOptions opts)
    : opts_(std::move(opts)), sim_(opts_.seed), net_(sim_) {
  opts_.calib.apply_network(net_);
  if (opts_.calib.os_noise_probability > 0) {
    // OS noise (journaling etc., §5.2.5): rare extra delivery delay.
    net_.latency().jitter = [this](const net::Endpoint&, std::size_t) {
      auto& rng = sim_.rng();
      if (!rng.chance(opts_.calib.os_noise_probability)) return Duration{0};
      return Duration{rng.uniform_int(opts_.calib.os_noise_min.ns(),
                                      opts_.calib.os_noise_max.ns())};
    };
  }
  config_error_ = opts_.topology.validate();
  if (config_error_.empty()) config_error_ = materialize_groups();
  if (!config_error_.empty()) return;

  for (const auto& host : opts_.topology.nodes) {
    net_.add_node(host);
  }
  for (std::size_t i = 0; i < opts_.topology.nodes.size(); ++i) {
    gc::DaemonConfig cfg;
    cfg.daemon_hosts = opts_.topology.nodes;
    cfg.self_index = i;
    cfg.plane = opts_.gc_plane;
    opts_.calib.apply_daemon(cfg);
    auto proc = net_.spawn_process(opts_.topology.nodes[i], "gc-daemon");
    daemons_.push_back(std::make_unique<gc::GcDaemon>(proc, cfg));
    daemons_.back()->start();
  }
}

std::string Testbed::materialize_groups() {
  std::vector<ServiceGroupSpec> specs = opts_.groups;
  if (specs.empty()) {
    // Single-group shorthand: the paper's TimeOfDay service.
    ServiceGroupSpec spec;
    spec.scheme = opts_.scheme;
    spec.thresholds = opts_.thresholds;
    spec.inject_leak = opts_.inject_leak;
    spec.replica_count = opts_.replica_count;
    spec.state_sync = opts_.state_sync;
    specs.push_back(std::move(spec));
  }

  std::set<std::string> services;
  std::set<std::uint16_t> base_ports;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ServiceGroupSpec& spec = specs[i];
    if (spec.service.empty()) return "group " + std::to_string(i) + " has no name";
    if (!services.insert(spec.service).second) {
      return "duplicate service group '" + spec.service + "'";
    }
    if (spec.replica_count == 0) {
      return "group '" + spec.service + "' has replica_count 0";
    }
    if (spec.base_port == 0) {
      spec.base_port =
          static_cast<std::uint16_t>(kAutoPortBase + kAutoPortSpacing * i);
    }
    if (!base_ports.insert(spec.base_port).second) {
      return "group '" + spec.service + "' shares base_port " +
             std::to_string(spec.base_port) + " with another group";
    }
    if (spec.hosts.empty()) {
      spec.hosts = opts_.topology.stripe_hosts(i, spec.replica_count);
      if (spec.hosts.empty()) {
        return "group '" + spec.service + "' needs " +
               std::to_string(spec.replica_count) + " hosts but the worker " +
               "pool has only " + std::to_string(opts_.topology.worker_nodes.size());
      }
    } else {
      std::set<std::string> distinct(spec.hosts.begin(), spec.hosts.end());
      if (distinct.size() != spec.hosts.size()) {
        return "group '" + spec.service + "' lists a placement host twice";
      }
      if (spec.hosts.size() < spec.replica_count) {
        // One live replica per host per group (the Naming rebind-by-host
        // convention): fewer hosts than replicas would stack incarnations.
        return "group '" + spec.service + "' places " +
               std::to_string(spec.replica_count) + " replicas on only " +
               std::to_string(spec.hosts.size()) + " hosts";
      }
      for (const auto& h : spec.hosts) {
        if (std::find(opts_.topology.nodes.begin(), opts_.topology.nodes.end(),
                      h) == opts_.topology.nodes.end()) {
          return "group '" + spec.service + "' placement host '" + h +
                 "' is not in the topology";
        }
      }
    }
  }

  for (auto& spec : specs) {
    groups_.push_back(std::make_unique<ServiceGroup>(
        net_, std::move(spec), opts_.topology.naming_node, opts_.calib));
  }
  return {};
}

ServiceGroup* Testbed::group(const std::string& service) {
  for (auto& g : groups_) {
    if (g->service() == service) return g.get();
  }
  return nullptr;
}

const ServiceGroup* Testbed::group(const std::string& service) const {
  for (const auto& g : groups_) {
    if (g->service() == service) return g.get();
  }
  return nullptr;
}

giop::IOR Testbed::naming_ref() const {
  return naming::naming_ior(opts_.topology.naming_node);
}

StartResult Testbed::start() {
  if (!config_error_.empty()) return start_error(config_error_);

  naming_proc_ = net_.spawn_process(naming_host(), "naming-service");
  {
    // Rebuild the bundle with calibrated costs.
    naming_ = naming::NamingServerBundle{};
    naming_.orb = std::make_unique<orb::Orb>(*naming_proc_, naming_proc_->api(),
                                             opts_.calib.naming_costs());
    naming_.server =
        std::make_unique<orb::OrbServer>(*naming_.orb, naming::kNamingPort);
    auto servant = std::make_shared<naming::NamingServant>(
        *naming_.orb, opts_.calib.naming_lookup);
    naming_.ior = naming_.server->adapter().register_servant(
        naming::kNamingObjectPath, servant);
    naming_.server->start();
  }

  // Validate and resolve the Recovery Manager deployment (RmSpec).
  if (opts_.rm.replicas == 0) {
    return start_error("rm: replicas must be >= 1");
  }
  std::vector<std::string> rm_hosts = opts_.rm.hosts;
  if (rm_hosts.empty()) {
    rm_hosts.push_back(naming_host());
    for (std::size_t i = 1; i < opts_.rm.replicas; ++i) {
      rm_hosts.push_back(opts_.topology.worker_nodes[
          (i - 1) % opts_.topology.worker_nodes.size()]);
    }
  } else {
    if (rm_hosts.size() != opts_.rm.replicas) {
      return start_error("rm: " + std::to_string(rm_hosts.size()) +
                         " hosts listed for " +
                         std::to_string(opts_.rm.replicas) + " replicas");
    }
    for (const auto& h : rm_hosts) {
      if (std::find(opts_.topology.nodes.begin(), opts_.topology.nodes.end(),
                    h) == opts_.topology.nodes.end()) {
        return start_error("rm: host '" + h + "' is not in the topology");
      }
    }
  }

  for (const auto& w : opts_.late_workers) {
    if (std::find(opts_.topology.worker_nodes.begin(),
                  opts_.topology.worker_nodes.end(),
                  w) == opts_.topology.worker_nodes.end()) {
      return start_error("late worker '" + w + "' is not a worker node");
    }
  }

  core::RecoveryManagerConfig rm_cfg;
  rm_cfg.groups.clear();
  rm_cfg.launch_delay = opts_.rm.launch_delay;
  rm_cfg.self_supervise = opts_.rm.replicas > 1;
  rm_cfg.readmit_retired = opts_.rm.readmit;
  std::size_t target_total = 0;
  for (const auto& g : groups_) {
    core::GroupTarget target{g->service(), g->spec().replica_count};
    target.placement = g->spec().placement;
    target.style = g->spec().style;
    target.stateful = g->spec().state.enabled;
    target.migration = g->spec().migration;
    if (target.placement == core::PlacementPolicy::kAlgorithmic) {
      target.hosts = g->hosts();
      // Placement universe: every worker except the late joiners — those
      // enter via a chaos join_node event and trigger a rebalance.
      for (const auto& w : opts_.topology.worker_nodes) {
        if (std::find(opts_.late_workers.begin(), opts_.late_workers.end(),
                      w) == opts_.late_workers.end()) {
          target.spares.push_back(w);
        }
      }
    }
    rm_cfg.groups.push_back(std::move(target));
    target_total += g->spec().replica_count;
  }
  auto factory = [this](const std::string& service, int incarnation,
                        const std::string& host) {
    ServiceGroup* g = group(service);
    return g != nullptr && g->spawn_replica(incarnation, host);
  };
  for (std::size_t i = 0; i < opts_.rm.replicas; ++i) {
    core::RecoveryManagerConfig cfg = rm_cfg;
    cfg.member = core::rm_member_name(i);
    cfg.daemon = net::Endpoint{rm_hosts[i], gc::kDefaultDaemonPort};
    rm_procs_.push_back(net_.spawn_process(rm_hosts[i], cfg.member));
    rms_.push_back(std::make_unique<core::RecoveryManager>(
        rm_procs_.back(), std::move(cfg), factory));
  }

  std::vector<std::uint8_t> rm_up(rms_.size(), 0);
  auto boot = [](core::RecoveryManager& rm, std::uint8_t& flag) -> sim::Task<void> {
    flag = co_await rm.start() ? 1 : 0;
  };
  for (std::size_t i = 0; i < rms_.size(); ++i) {
    sim_.spawn(boot(*rms_[i], rm_up[i]));
  }

  // Let the mesh form, the acting RM bootstrap every group's replicas, and
  // the replicas join + announce + register with naming.
  sim_.run_for(milliseconds(500));
  for (std::size_t i = 0; i < rms_.size(); ++i) {
    if (rm_up[i] == 0) {
      return start_error("recovery manager " + std::to_string(i) +
                         " failed to join the group mesh");
    }
  }
  for (const auto& g : groups_) {
    if (g->live_replica_count() != g->spec().replica_count) {
      LogLine(sim_.log(), LogLevel::kError, "testbed")
          << "only " << g->live_replica_count() << " replicas of "
          << g->service() << " came up";
      return start_error("only " + std::to_string(g->live_replica_count()) +
                         " of " + std::to_string(g->spec().replica_count) +
                         " replicas came up");
    }
    for (const auto& r : g->replicas()) {
      if (!r->registered()) {
        return start_error(r->member() +
                           " did not register with the Naming Service");
      }
    }
  }
  sim_.obs().emit(obs::EventKind::kWorldUp, "testbed", "",
                  static_cast<double>(target_total));
  if (!opts_.chaos.empty()) {
    if (std::string err = arm_chaos(); !err.empty()) return start_error(err);
  }
  return {};
}

std::string Testbed::arm_chaos() {
  for (const auto& ev : opts_.chaos.events) {
    if ((ev.kind == fault::FaultKind::kCrashProcess ||
         ev.kind == fault::FaultKind::kLeakBurst) &&
        group(ev.target) == nullptr) {
      return "chaos: no service group named '" + ev.target + "'";
    }
  }
  chaos_ = std::make_unique<fault::ChaosController>(net_, opts_.chaos);
  if (std::string err = chaos_->validate(); !err.empty()) return err;
  // Process-level faults hit the group's oldest live incarnation — the
  // replica currently serving clients under the warm-passive scheme.
  chaos_->set_crash_process_hook([this](const std::string& service) {
    ServiceGroup* g = group(service);
    if (g == nullptr) return false;
    for (const auto& r : g->replicas()) {
      if (r->alive()) {
        r->process().kill();
        return true;
      }
    }
    return false;
  });
  chaos_->set_leak_burst_hook(
      [this](const std::string& service, std::size_t bytes) {
        ServiceGroup* g = group(service);
        if (g == nullptr) return false;
        for (const auto& r : g->replicas()) {
          if (r->alive() && r->leak() != nullptr) {
            r->leak()->burst(bytes);
            return true;
          }
        }
        return false;
      });
  // One live manager relays the join; replicated deployments turn it into
  // an ordered kNodeJoin frame so every core rebalances at the same
  // position in the total order.
  chaos_->set_join_node_hook([this](const std::string& node) {
    for (auto& rm : rms_) {
      if (rm->acting()) {
        rm->on_join_observed(node);
        return true;
      }
    }
    for (auto& rm : rms_) {
      if (rm->alive()) {
        rm->on_join_observed(node);
        return true;
      }
    }
    return false;
  });
  chaos_->arm();
  return {};
}

core::RecoveryManager& Testbed::acting_rm() {
  for (auto& rm : rms_) {
    if (rm->acting()) return *rm;
  }
  return *rms_.front();
}

std::size_t Testbed::live_replica_count() const {
  std::size_t n = 0;
  for (const auto& g : groups_) n += g->live_replica_count();
  return n;
}

std::size_t Testbed::replica_deaths() const {
  std::size_t n = 0;
  for (const auto& g : groups_) n += g->replica_deaths();
  return n;
}

}  // namespace mead::app

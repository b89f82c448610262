// Chaos engine: a declarative, simulation-time fault schedule executed
// against the virtual network.
//
// The paper's evaluation (§5.1) only injects per-process resource
// exhaustion; production clusters die in coarser units — whole nodes crash
// taking co-located replicas of *different* groups down together, links
// partition and later heal. A ChaosSchedule expresses those workloads as
// data on an ExperimentSpec: a list of FaultEvent{at, kind, target} entries
// that the controller replays at fixed sim-time offsets, so every chaos run
// stays bit-reproducible from its seed.
//
// Node/link faults are applied directly to net::Network; process-scoped
// faults (crash_process, leak_burst) need application knowledge of which
// process currently serves a group, so the owning layer (app::Testbed)
// installs hooks for them. Every executed fault bumps `chaos.*` counters
// and emits a kFaultInjected trace event.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "net/network.h"

namespace mead::fault {

enum class FaultKind : std::uint8_t {
  kCrashNode,     // kill every process on a node, permanently
  kPartition,     // cut a link (target+peer) or isolate a node (target only)
  kHeal,          // undo partitions: a pair, a node's links, or all links
  kCrashProcess,  // kill the serving replica of a service group
  kLeakBurst,     // consume `bytes` of a replica's leak buffer at once
  kJoinNode,      // admit a node into the algorithmic placement universe
};

[[nodiscard]] std::string_view to_string(FaultKind k);

/// One scheduled fault. `at` is the offset from ChaosController::arm()
/// (i.e. from the end of testbed bring-up, so schedules are independent of
/// bring-up duration). `target` names a node for node/link faults and a
/// service for process faults; `peer` is the second node of a link pair.
struct FaultEvent {
  FaultEvent() = default;

  Duration at{0};
  FaultKind kind = FaultKind::kCrashNode;
  std::string target;
  std::string peer;
  std::size_t bytes = 0;  // kLeakBurst only
};

/// An ordered fault schedule, with fluent builders so specs read like the
/// scenario they describe.
struct ChaosSchedule {
  std::vector<FaultEvent> events;

  [[nodiscard]] bool empty() const { return events.empty(); }

  ChaosSchedule& crash_node(Duration at, std::string node);
  /// Empty `b`: isolate `a` from every other node.
  ChaosSchedule& partition(Duration at, std::string a, std::string b = {});
  /// Empty `a`: heal everything. Empty `b`: heal all of `a`'s links.
  ChaosSchedule& heal(Duration at, std::string a = {}, std::string b = {});
  ChaosSchedule& crash_process(Duration at, std::string service);
  ChaosSchedule& leak_burst(Duration at, std::string service,
                            std::size_t bytes);
  /// Admits `node` into the kAlgorithmic placement universe — the node
  /// must already exist in the topology (late_workers keep it out of the
  /// initial placement).
  ChaosSchedule& join_node(Duration at, std::string node);
};

/// Replays a ChaosSchedule against a Network. Constructed and armed by the
/// testbed only when the schedule is non-empty, so fault-free runs schedule
/// no timers and stay byte-identical to pre-chaos builds.
class ChaosController {
 public:
  /// Returns true if the fault was applied (e.g. a live replica existed).
  using ServiceHook = std::function<bool(const std::string& service)>;
  using BurstHook =
      std::function<bool(const std::string& service, std::size_t bytes)>;
  using NodeHook = std::function<bool(const std::string& node)>;

  ChaosController(net::Network& net, ChaosSchedule schedule);
  ChaosController(const ChaosController&) = delete;
  ChaosController& operator=(const ChaosController&) = delete;

  void set_crash_process_hook(ServiceHook fn) { crash_process_ = std::move(fn); }
  void set_leak_burst_hook(BurstHook fn) { leak_burst_ = std::move(fn); }
  void set_join_node_hook(NodeHook fn) { join_node_ = std::move(fn); }

  /// Checks every node-scoped event against the network's node set;
  /// returns an empty string when valid, else a reason. (Service-scoped
  /// targets are validated by whoever installs the hooks.)
  [[nodiscard]] std::string validate() const;

  /// Schedules every event at now + event.at. Call at most once.
  void arm();

  [[nodiscard]] const ChaosSchedule& schedule() const { return sched_; }
  /// Faults executed so far (also counter "chaos.faults"). Faults whose
  /// hook declined — e.g. no live replica left to crash — count under
  /// "chaos.skipped" instead.

 private:
  void fire(const FaultEvent& ev);

  net::Network& net_;
  ChaosSchedule sched_;
  ServiceHook crash_process_;
  BurstHook leak_burst_;
  NodeHook join_node_;
  bool armed_ = false;
};

}  // namespace mead::fault

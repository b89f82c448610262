#include "fault/chaos.h"

#include <utility>

namespace mead::fault {

std::string_view to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kCrashNode: return "crash_node";
    case FaultKind::kPartition: return "partition";
    case FaultKind::kHeal: return "heal";
    case FaultKind::kCrashProcess: return "crash_process";
    case FaultKind::kLeakBurst: return "leak_burst";
    case FaultKind::kJoinNode: return "join_node";
  }
  return "?";
}

namespace {

FaultEvent make_event(Duration at, FaultKind kind, std::string target,
                      std::string peer = {}, std::size_t bytes = 0) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = kind;
  ev.target = std::move(target);
  ev.peer = std::move(peer);
  ev.bytes = bytes;
  return ev;
}

}  // namespace

ChaosSchedule& ChaosSchedule::crash_node(Duration at, std::string node) {
  events.push_back(make_event(at, FaultKind::kCrashNode, std::move(node)));
  return *this;
}

ChaosSchedule& ChaosSchedule::partition(Duration at, std::string a,
                                        std::string b) {
  events.push_back(
      make_event(at, FaultKind::kPartition, std::move(a), std::move(b)));
  return *this;
}

ChaosSchedule& ChaosSchedule::heal(Duration at, std::string a, std::string b) {
  events.push_back(make_event(at, FaultKind::kHeal, std::move(a), std::move(b)));
  return *this;
}

ChaosSchedule& ChaosSchedule::crash_process(Duration at, std::string service) {
  events.push_back(
      make_event(at, FaultKind::kCrashProcess, std::move(service)));
  return *this;
}

ChaosSchedule& ChaosSchedule::leak_burst(Duration at, std::string service,
                                         std::size_t bytes) {
  events.push_back(
      make_event(at, FaultKind::kLeakBurst, std::move(service), {}, bytes));
  return *this;
}

ChaosSchedule& ChaosSchedule::join_node(Duration at, std::string node) {
  events.push_back(make_event(at, FaultKind::kJoinNode, std::move(node)));
  return *this;
}

ChaosController::ChaosController(net::Network& net, ChaosSchedule schedule)
    : net_(net), sched_(std::move(schedule)) {}

std::string ChaosController::validate() const {
  for (const FaultEvent& ev : sched_.events) {
    switch (ev.kind) {
      case FaultKind::kCrashNode:
        if (!net_.has_node(ev.target)) {
          return "chaos: crash_node targets unknown node '" + ev.target + "'";
        }
        break;
      case FaultKind::kPartition:
        if (!net_.has_node(ev.target)) {
          return "chaos: partition targets unknown node '" + ev.target + "'";
        }
        if (!ev.peer.empty() && !net_.has_node(ev.peer)) {
          return "chaos: partition targets unknown node '" + ev.peer + "'";
        }
        break;
      case FaultKind::kHeal:
        if (!ev.target.empty() && !net_.has_node(ev.target)) {
          return "chaos: heal targets unknown node '" + ev.target + "'";
        }
        if (!ev.peer.empty() && !net_.has_node(ev.peer)) {
          return "chaos: heal targets unknown node '" + ev.peer + "'";
        }
        break;
      case FaultKind::kCrashProcess:
      case FaultKind::kLeakBurst:
        if (ev.target.empty()) return "chaos: fault without a service target";
        break;
      case FaultKind::kJoinNode:
        if (!net_.has_node(ev.target)) {
          return "chaos: join_node targets unknown node '" + ev.target + "'";
        }
        break;
    }
  }
  return {};
}

void ChaosController::arm() {
  if (armed_) return;
  armed_ = true;
  // Events live in sched_.events, which never mutates after arming, so the
  // scheduled closures can hold plain references.
  for (const FaultEvent& ev : sched_.events) {
    net_.sim().schedule(ev.at, [this, &ev] { fire(ev); });
  }
}

void ChaosController::fire(const FaultEvent& ev) {
  bool applied = true;
  switch (ev.kind) {
    case FaultKind::kCrashNode:
      net_.crash_node(ev.target);
      break;
    case FaultKind::kPartition:
      if (ev.peer.empty()) {
        net_.set_node_isolated(ev.target, true);
      } else {
        net_.set_link_partitioned(ev.target, ev.peer, true);
      }
      break;
    case FaultKind::kHeal:
      if (ev.target.empty()) {
        net_.heal_all_partitions();
      } else if (ev.peer.empty()) {
        net_.heal_partitions(ev.target);
      } else {
        net_.set_link_partitioned(ev.target, ev.peer, false);
      }
      break;
    case FaultKind::kCrashProcess:
      applied = crash_process_ && crash_process_(ev.target);
      break;
    case FaultKind::kLeakBurst:
      applied = leak_burst_ && leak_burst_(ev.target, ev.bytes);
      break;
    case FaultKind::kJoinNode:
      applied = join_node_ && join_node_(ev.target);
      break;
  }
  auto& obs = net_.sim().obs();
  if (!applied) {
    obs.metrics().counter("chaos.skipped").add();
    return;
  }
  obs.metrics().counter("chaos.faults").add();
  obs.metrics().counter("chaos." + std::string(to_string(ev.kind))).add();
  std::string detail = std::string(to_string(ev.kind)) + ":" + ev.target;
  if (!ev.peer.empty()) detail += "|" + ev.peer;
  obs.emit(obs::EventKind::kFaultInjected, "chaos", std::move(detail),
           static_cast<double>(ev.bytes));
}

}  // namespace mead::fault

#include "core/recovery_manager.h"

#include <algorithm>
#include <utility>

#include "common/log.h"

namespace mead::core {

RecoveryManager::RecoveryManager(net::ProcessPtr proc,
                                 RecoveryManagerConfig cfg, Factory factory)
    : proc_(std::move(proc)), cfg_(std::move(cfg)), factory_(std::move(factory)),
      core_(cfg_.groups, cfg_.member, cfg_.self_supervise,
            cfg_.readmit_retired),
      launches_(proc_->sim().obs().metrics().counter("rm.launches")),
      proactive_launches_(
          proc_->sim().obs().metrics().counter("rm.proactive_launches")),
      reactive_launches_(
          proc_->sim().obs().metrics().counter("rm.reactive_launches")),
      readset_updates_(
          proc_->sim().obs().metrics().counter("rm.readset.updates")),
      rm_failovers_(proc_->sim().obs().metrics().counter("rm.failovers")) {
  gc_ = std::make_unique<gc::GcClient>(*proc_, cfg_.member, cfg_.daemon);
  auto& metrics = proc_->sim().obs().metrics();
  for (const auto& target : cfg_.groups) {
    GroupCounters c;
    c.launches = &metrics.counter("rm.launches." + target.service);
    c.proactive_launches =
        &metrics.counter("rm.proactive_launches." + target.service);
    c.reactive_launches =
        &metrics.counter("rm.reactive_launches." + target.service);
    c.readset_updates =
        &metrics.counter("rm.readset.updates." + target.service);
    if (target.migration.enabled()) {
      c.migrations = &metrics.counter("rm.migrations." + target.service);
    }
    counters_[target.service] = c;
  }
  if (std::any_of(cfg_.groups.begin(), cfg_.groups.end(),
                  [](const GroupTarget& t) {
                    return t.migration.enabled();
                  })) {
    migrations_ = &metrics.counter("rm.migrations");
  }
  if (std::any_of(cfg_.groups.begin(), cfg_.groups.end(),
                  [](const GroupTarget& t) {
                    return t.placement == PlacementPolicy::kAlgorithmic;
                  })) {
    placement_frames_ = &metrics.counter("rm.placement.frames");
    algorithmic_placements_ = &metrics.counter("rm.algorithmic.placements");
    placement_skipped_ = &metrics.counter("rm.placement.skipped");
    rebalance_moves_ = &metrics.counter("rm.rebalance.moves");
  }
  // Whole-node crashes free any launch slots reserved on the dead host; a
  // view change alone cannot, since the reserved replica never joined. A
  // solo manager applies the observation directly (the historical path);
  // a replicated one multicasts it so every core applies it in order.
  crash_observer_ = proc_->network().add_crash_observer(
      [this](const std::string& host) { on_crash_observed(host); });
}

RecoveryManager::~RecoveryManager() {
  proc_->network().remove_crash_observer(crash_observer_);
}

sim::Task<bool> RecoveryManager::start() {
  const bool connected = co_await gc_->connect();
  if (!connected) co_return false;
  // The RM membership group first: acting status must be settled before
  // the first supervised-group view arrives.
  if (cfg_.self_supervise) {
    (void)co_await gc_->join(rm_group());
  }
  for (const auto& target : core_.targets()) {
    (void)co_await gc_->join(replica_group(target.service));
    (void)co_await gc_->join(control_group(target.service));
    // Read-fanout and quorum groups: membership of the read-set group
    // tells the RM when a routing client subscribes, so it can republish.
    if (publishes_read_set(target.style)) {
      (void)co_await gc_->join(read_set_group(target.service));
    }
    // Stateful groups: the ckpt channel shows which members are
    // mid-restore (GroupView::restoring).
    if (target.stateful) {
      (void)co_await gc_->join(ckpt_group(target.service));
    }
  }
  proc_->sim().spawn(pump());
  co_return true;
}

sim::Task<void> RecoveryManager::pump() {
  for (;;) {
    auto ev = co_await gc_->next_event();
    if (!ev || !ev.value()) co_return;
    gc::Event& event = *ev.value();
    const bool was_acting = core_.acting();
    if (was_acting && event.kind == gc::Event::Kind::kMessage &&
        core_.is_control_group(event.group) &&
        peek_ctrl_kind(event.payload) == CtrlKind::kLaunchRequest) {
      auto ctrl = decode_ctrl(event.payload);
      if (ctrl && ctrl->launch) {
        LogLine(proc_->sim().log(), LogLevel::kInfo, "rm")
            << "launch request from " << ctrl->launch->member << " at usage "
            << ctrl->launch->usage;
      }
    }
    // Only an rm_group() view can promote this replica; snapshot the slots
    // that were pending before the event so the re-drive below does not
    // double-spawn launches this same event decided.
    const bool may_promote =
        cfg_.self_supervise && !was_acting &&
        event.kind == gc::Event::Kind::kView && event.group == rm_group();
    const bool first_rm_view = core_.rm_view().members.empty();
    std::vector<RmAction> carried;
    if (may_promote) carried = core_.resume_actions();
    auto actions = core_.on_event(std::move(event));
    // Readmission requests are the one action class a non-acting shell
    // must still execute: a retired core emits them for itself, and a
    // retired replica is by definition not acting.
    for (const auto& a : actions) {
      if (a.kind != RmAction::Kind::kRequestReadmit) continue;
      LogLine(proc_->sim().log(), LogLevel::kInfo, "rm")
          << "retired; requesting readmission snapshot";
      gc_->post_soon(rm_group(),
                     encode_ckpt_request(CkptRequest{cfg_.member, a.nonce, 0}));
    }
    if (core_.readmissions() > readmissions_seen_) {
      readmissions_seen_ = core_.readmissions();
      proc_->sim().obs().metrics().counter("rm.readmissions").add();
      LogLine(proc_->sim().log(), LogLevel::kInfo, "rm")
          << "readmitted as converged backup (total "
          << readmissions_seen_ << ")";
    }
    if (core_.acting()) execute(actions, /*count=*/true);
    if (may_promote && core_.acting() && !first_rm_view) {
      // Promotion: the previous first-in-view died mid-recovery. Re-drive
      // every launch slot it left pending (at-least-once; the factory
      // dedupes by incarnation) and repeat the current read sets in case
      // its last publish never left the node.
      ++failovers_;
      rm_failovers_.add();
      proc_->sim().obs().emit(obs::EventKind::kRmFailover, cfg_.member,
                              core_.rm_view().first(),
                              static_cast<double>(carried.size()));
      LogLine(proc_->sim().log(), LogLevel::kInfo, "rm")
          << "promoted to acting; re-driving " << carried.size()
          << " carried actions";
      execute(carried, /*count=*/false);
    }
  }
}

void RecoveryManager::execute(const std::vector<RmAction>& actions,
                              bool count) {
  if (!proc_->alive()) return;
  for (const auto& a : actions) {
    switch (a.kind) {
      case RmAction::Kind::kLaunch:
        proc_->sim().spawn(launch_task(a.service, a.incarnation, a.host,
                                       a.proactive, count));
        break;
      case RmAction::Kind::kLaunchSkipped:
        // Only kAlgorithmic placement skips, so the counter is resolved.
        if (count) placement_skipped_->add();
        break;
      case RmAction::Kind::kRequestReadmit:
        // Already sent by the pump (it must go out even when not acting).
        break;
      case RmAction::Kind::kSendRmSnapshot:
        // The snapshot was frozen by the core at the request's position in
        // the total order; it travels as a kState frame whose version
        // echoes the requester's nonce.
        gc_->post_soon(rm_group(), encode_state(StateTransfer{
                                       cfg_.member, a.nonce, a.snapshot}));
        break;
      case RmAction::Kind::kPublishReadSet: {
        if (!a.republish) {
          readset_updates_.add();
          counters_[a.service].readset_updates->add();
          proc_->sim().obs().emit(
              obs::EventKind::kReadSetUpdate, cfg_.member, a.service,
              static_cast<double>(a.read_set.entries.size()));
        }
        // Encode now (a later refresh must not mutate what this update
        // carries) and multicast from a zero-delay event: callers sit
        // inside the event pump. Every publication carries the full set,
        // so a subscriber that missed one heals at the next. kQuorum sets
        // travel as kQuorumSet, which adds the catching_up flags.
        const bool quorum = std::any_of(
            cfg_.groups.begin(), cfg_.groups.end(), [&](const GroupTarget& t) {
              return t.service == a.service &&
                     t.style == ReplicationStyle::kQuorum;
            });
        gc_->post_soon(a.group, quorum ? encode_quorum_set(a.read_set)
                                       : encode_read_set(a.read_set));
        break;
      }
      case RmAction::Kind::kPlanMigration:
        // The standby launch rides the accompanying kLaunch action; the
        // plan itself is pure bookkeeping plus the observable record.
        if (count) {
          if (migrations_ != nullptr) migrations_->add();
          if (counters_[a.service].migrations != nullptr) {
            counters_[a.service].migrations->add();
          }
        }
        LogLine(proc_->sim().log(), LogLevel::kInfo, "rm")
            << "migration planned: rotating " << a.member << " of "
            << a.service;
        proc_->sim().obs().emit(obs::EventKind::kMigrationPlanned,
                                cfg_.member, a.service + ":" + a.member);
        break;
      case RmAction::Kind::kHandoff:
        // Ordered once the pre-warmed standby announced: tell the victim
        // to drain onto its successor and rejuvenate. Idempotent at the
        // receiver, so failover re-drives are safe.
        if (!a.republish) {
          proc_->sim().obs().emit(obs::EventKind::kHandoff, cfg_.member,
                                  a.member + ">" + a.successor);
        }
        gc_->post_soon(
            control_group(a.service),
            encode_handoff(Handoff{a.service, a.member, a.successor}));
        break;
      case RmAction::Kind::kPublishAliveEpoch:
        // The whole of the RM's per-failure placement traffic under
        // kAlgorithmic: one epoch frame, independent of how many groups
        // the failure touched. Solo managers have no backups to converge
        // and skip the wire entirely.
        if (count && !a.republish && placement_frames_ != nullptr) {
          placement_frames_->add();
        }
        if (cfg_.self_supervise) {
          gc_->post_soon(rm_group(), encode_alive_epoch(a.alive));
        }
        break;
      case RmAction::Kind::kRetireReplica:
        if (count && rebalance_moves_ != nullptr) rebalance_moves_->add();
        LogLine(proc_->sim().log(), LogLevel::kInfo, "rm")
            << "rebalance: retiring " << a.member << " of " << a.service;
        gc_->post_soon(control_group(a.service),
                       encode_retire(Retire{a.service, a.member}));
        break;
    }
  }
}

sim::Task<void> RecoveryManager::launch_task(std::string service,
                                             int incarnation, std::string host,
                                             bool proactive, bool count) {
  if (count) {
    launches_.add();
    counters_[service].launches->add();
    if (proactive) {
      proactive_launches_.add();
      counters_[service].proactive_launches->add();
    } else {
      reactive_launches_.add();
      counters_[service].reactive_launches->add();
    }
  }
  const bool alive = co_await proc_->sleep(cfg_.launch_delay);
  if (!alive) co_return;
  // The slot may have been released while we slept (node crash freed the
  // reserved host and a replacement is already underway), or this replica
  // may have been demoted — in either case the launch is no longer ours.
  if (!core_.slot_pending(service, incarnation)) co_return;
  if (!core_.acting()) co_return;
  // Only kAlgorithmic placement names a host (kCycle leaves it empty).
  if (!host.empty() && count && algorithmic_placements_ != nullptr) {
    algorithmic_placements_->add();
    proc_->sim().obs().emit(obs::EventKind::kPlacement, cfg_.member,
                            service + ":" + host,
                            static_cast<double>(incarnation));
  }
  LogLine(proc_->sim().log(), LogLevel::kInfo, "rm")
      << "launching replica incarnation " << incarnation;
  proc_->sim().obs().emit(obs::EventKind::kReplicaLaunched, cfg_.member,
                          proactive ? "proactive" : "reactive",
                          static_cast<double>(incarnation));
  if (!factory_(service, incarnation, host)) {
    if (!cfg_.self_supervise) {
      auto actions = core_.on_launch_failed(service, incarnation);
      execute(actions, /*count=*/true);
    } else {
      gc_->post_soon(rm_group(),
                     encode_launch_failed(LaunchFailed{service, incarnation}));
    }
  }
}

void RecoveryManager::on_join_observed(const std::string& host) {
  if (!proc_->alive()) return;
  if (!cfg_.self_supervise) {
    auto actions = core_.on_node_join(host);
    execute(actions, /*count=*/true);
    return;
  }
  gc_->post_soon(rm_group(), encode_node_join(NodeJoin{host}));
}

void RecoveryManager::on_crash_observed(const std::string& host) {
  if (!proc_->alive()) return;
  if (!cfg_.self_supervise) {
    auto actions = core_.on_node_crash(host);
    execute(actions, /*count=*/true);
    return;
  }
  // Replicated: loop the observation through the ordered stream. Every
  // replica reports what it sees — the application is idempotent, and the
  // frame must survive any single manager's death.
  gc_->post_soon(rm_group(), encode_node_crash(NodeCrash{host}));
}

}  // namespace mead::core

#include "core/rm_core.h"

#include <algorithm>
#include <string_view>

#include "core/placement.h"
#include "core/predictor.h"

namespace mead::core {

namespace {

/// Usage samples the migration planner retains per group (matches the
/// TrendPredictor default window).
constexpr std::size_t kUsageWindow = 8;

/// Incarnation encoded in a replica member name ("replica/<n>" or
/// "<service>/replica/<n>"); -1 for anything else (RM members, clients).
int member_incarnation(const std::string& member) {
  static constexpr std::string_view kKey = "replica/";
  const auto pos = member.rfind(kKey);
  if (pos == std::string::npos) return -1;
  if (pos != 0 && member[pos - 1] != '/') return -1;
  const std::string_view digits{member.data() + pos + kKey.size(),
                                member.size() - pos - kKey.size()};
  if (digits.empty() || digits.size() > 7) return -1;
  int n = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return -1;
    n = n * 10 + (c - '0');
  }
  return n;
}

}  // namespace

RmCore::RmCore(std::vector<GroupTarget> targets, std::string self,
               bool replicated, bool readmit)
    : targets_(std::move(targets)), self_(std::move(self)),
      replicated_(replicated), readmit_(readmit) {
  for (const auto& target : targets_) {
    auto group = std::make_unique<Group>();
    group->target = target;
    by_replica_group_[replica_group(target.service)] = group.get();
    by_control_group_[control_group(target.service)] = group.get();
    if (publishes_read_set(target.style)) {
      by_readset_group_[read_set_group(target.service)] = group.get();
    }
    if (target.stateful) {
      by_ckpt_group_[ckpt_group(target.service)] = group.get();
    }
    groups_.push_back(std::move(group));
  }
  // The algorithmic placement universe: every kAlgorithmic target's
  // hosts + spares, sorted and deduplicated — identical on every replica
  // because targets are construction-time configuration.
  for (const auto& target : targets_) {
    if (target.placement != PlacementPolicy::kAlgorithmic) continue;
    any_algorithmic_ = true;
    for (const auto& h : target.hosts) alive_hosts_.push_back(h);
    for (const auto& h : target.spares) alive_hosts_.push_back(h);
  }
  std::sort(alive_hosts_.begin(), alive_hosts_.end());
  alive_hosts_.erase(std::unique(alive_hosts_.begin(), alive_hosts_.end()),
                     alive_hosts_.end());
}

RmCore::Group* RmCore::find_group(const std::string& service) {
  auto it = by_replica_group_.find(replica_group(service));
  return it == by_replica_group_.end() ? nullptr : it->second;
}

const RmCore::Group* RmCore::find_group(const std::string& service) const {
  auto it = by_replica_group_.find(replica_group(service));
  return it == by_replica_group_.end() ? nullptr : it->second;
}

bool RmCore::acting() const {
  if (!replicated_) return true;
  if (retired_) return false;
  return !rm_view_.members.empty() && rm_view_.members.front() == self_;
}

std::size_t RmCore::live_in(const Group& group) const {
  std::size_t n = 0;
  for (const auto& m : group.registry.view().members) {
    if (!is_rm_member(m)) ++n;
  }
  return n;
}

std::size_t RmCore::live_total() const {
  std::size_t n = 0;
  for (const auto& g : groups_) n += live_in(*g);
  return n;
}

bool RmCore::slot_pending(const std::string& service, int incarnation) const {
  const Group* g = find_group(service);
  if (g == nullptr) return false;
  return std::any_of(g->pending.begin(), g->pending.end(),
                     [&](const Slot& s) { return s.incarnation == incarnation; });
}

std::optional<GroupView> RmCore::view(const std::string& service) const {
  const Group* g = find_group(service);
  if (g == nullptr) return std::nullopt;
  GroupView out;
  out.service = g->target.service;
  out.target_degree = g->target.target_degree;
  out.style = g->target.style;
  out.placement = g->target.placement;
  out.live = live_in(*g);
  out.pending = g->pending.size();
  out.next_incarnation = g->next_incarnation;
  out.stats = g->stats;
  out.doomed.assign(g->doomed.begin(), g->doomed.end());
  out.restoring.assign(g->restoring.begin(), g->restoring.end());
  out.migrating = g->migrate_victim;
  out.registry = &g->registry;
  if (publishes_read_set(g->target.style)) {
    out.read_set = &g->read_set;
  }
  return out;
}

RmCore::Actions RmCore::on_event(gc::Event event) {
  Actions out;
  if (readmit_anchor_seen_) {
    // A readmission is in flight and our own request has passed in the
    // total order (the snapshot point). Buffer every later event instead
    // of applying it to this core's diverged state; the snapshot replaces
    // that state as of the request position and the buffer replays on top.
    if (event.kind == gc::Event::Kind::kMessage && event.group == rm_group()) {
      auto ctrl = decode_ctrl(event.payload);
      if (ctrl && ctrl->kind == CtrlKind::kState && ctrl->state &&
          ctrl->state->version == readmit_nonce_) {
        if (install_snapshot(ctrl->state->state)) {
          retired_ = false;
          ++readmissions_;
        }
        drain_readmit_buffer(out);
        return out;
      }
    }
    if (event.kind == gc::Event::Kind::kView && event.group == rm_group()) {
      // The acting replica died before answering: abandon the attempt,
      // apply the buffered suffix to the (still diverged) state, and let
      // handle_rm_view below issue a fresh request to the new acting.
      drain_readmit_buffer(out);
    } else {
      readmit_buffer_.push_back(std::move(event));
      return out;
    }
  }
  apply_event(event, out);
  return out;
}

void RmCore::apply_event(const gc::Event& event, Actions& out) {
  if (event.kind == gc::Event::Kind::kView) {
    if (replicated_ && event.group == rm_group()) {
      handle_rm_view(event.view, out);
      return;
    }
    auto it = by_replica_group_.find(event.group);
    if (it != by_replica_group_.end()) handle_view(*it->second, event, out);
    // A membership change on a read-set group means a routing client
    // (un)subscribed. Republish the current set so late joiners — who
    // missed earlier multicasts — converge; known versions are dropped
    // by the subscriber's monotone-version check.
    auto rs = by_readset_group_.find(event.group);
    if (rs != by_readset_group_.end() && rs->second->read_set.version > 0) {
      RmAction a;
      a.kind = RmAction::Kind::kPublishReadSet;
      a.service = rs->second->target.service;
      a.group = event.group;
      a.read_set = rs->second->read_set;
      a.republish = true;
      out.push_back(std::move(a));
    }
    return;
  }
  if (event.kind != gc::Event::Kind::kMessage) return;
  // The ckpt channel mostly carries checkpoint traffic the RM never acts
  // on; drop it before decoding (kState matters only to on_event's
  // readmission branch, which decodes it there).
  const auto kind = peek_ctrl_kind(event.payload);
  if (!kind || *kind == CtrlKind::kCkptDelta ||
      *kind == CtrlKind::kLogReplay || *kind == CtrlKind::kReplyCache ||
      *kind == CtrlKind::kState) {
    return;
  }
  auto ctrl = decode_ctrl(event.payload);
  if (!ctrl) return;
  if (replicated_ && event.group == rm_group()) {
    // Replicated observations: every RmCore applies them at the same
    // position in the total order, so placement and slot accounting agree.
    if (ctrl->kind == CtrlKind::kNodeCrash && ctrl->node_crash) {
      apply_node_crash(ctrl->node_crash->host, out);
    } else if (ctrl->kind == CtrlKind::kNodeJoin && ctrl->node_join) {
      apply_node_join(ctrl->node_join->host, out);
    } else if (ctrl->kind == CtrlKind::kAliveEpoch && ctrl->alive_epoch) {
      // Converged replicas already hold this epoch (they applied the same
      // crash/join at the same ordered position); only a replica that
      // missed those positions — a late-started or readmitted backup —
      // adopts the published set.
      if (ctrl->alive_epoch->epoch > alive_epoch_) {
        alive_epoch_ = ctrl->alive_epoch->epoch;
        alive_hosts_ = ctrl->alive_epoch->alive;
      }
    } else if (ctrl->kind == CtrlKind::kLaunchFailed && ctrl->launch_failed) {
      apply_launch_failed(ctrl->launch_failed->service,
                          ctrl->launch_failed->incarnation, out);
    } else if (ctrl->kind == CtrlKind::kCkptRequest && ctrl->ckpt_request) {
      const auto& req = *ctrl->ckpt_request;
      if (req.member == self_ && req.nonce != 0 &&
          req.nonce == readmit_nonce_) {
        // Our own readmission request: this position in the total order is
        // the snapshot point. Buffer from here until the answer lands.
        readmit_anchor_seen_ = true;
        readmit_buffer_.clear();
      } else if (req.member != self_ && req.nonce != 0 && acting()) {
        // A retired replica asks for state. Freeze the snapshot at this
        // exact position — every core that stayed has identical state
        // here, so the requester converges once it installs and replays.
        RmAction a;
        a.kind = RmAction::Kind::kSendRmSnapshot;
        a.nonce = req.nonce;
        a.snapshot = encode_snapshot();
        out.push_back(std::move(a));
      }
    }
    return;
  }
  if (ctrl->kind == CtrlKind::kLaunchRequest) {
    // Launch requests arrive on the doomed group's own control group; the
    // event's group key routes them, so identical member names in two
    // groups stay unambiguous.
    auto it = by_control_group_.find(event.group);
    if (it == by_control_group_.end()) return;
    Group& group = *it->second;
    // Reactive recovery racing a planned rotation: the victim crossed its
    // own T1 before the handoff was ordered, so the reactive path wins —
    // the plan is cancelled (the victim stays doomed, the pre-warmed
    // standby becomes its ordinary replacement) and no handoff travels.
    // Exactly one of {migration, reactive recovery} rotates the group.
    if (!group.handoff_sent && group.migrate_victim == ctrl->launch->member) {
      group.migrate_victim.clear();
    }
    group.doomed.insert(ctrl->launch->member);
    reconcile(group, /*proactive_trigger=*/true, out);
    // A doomed replica leaves the read set immediately — clients must
    // stop routing reads at it before it rejuvenates.
    refresh_read_set(group, out);
    return;
  }
  if (ctrl->kind == CtrlKind::kUsageReport && ctrl->usage_report) {
    auto it = by_control_group_.find(event.group);
    if (it != by_control_group_.end()) {
      plan_migration(*it->second, *ctrl->usage_report, out);
    }
    return;
  }
  if (ctrl->kind == CtrlKind::kCkptRequest && ctrl->ckpt_request) {
    // A directed restore opening on a stateful group's ckpt channel: the
    // member is mid-restore until it announces (or leaves the view).
    auto ck = by_ckpt_group_.find(event.group);
    if (ck != by_ckpt_group_.end() && ctrl->ckpt_request->nonce != 0) {
      ck->second->restoring.insert(ctrl->ckpt_request->member);
      // An already-serving member that reopened a restore (gap recovery)
      // must leave the fanout read rotation / gain its catching_up flag.
      refresh_read_set(*ck->second, out);
    }
    return;
  }
  if (ctrl->kind == CtrlKind::kCatchupDone && ctrl->catchup_done) {
    // A kQuorum replica finished replaying while serving: clear its
    // catching_up flag at this total-order position and republish.
    auto ck = by_ckpt_group_.find(event.group);
    if (ck != by_ckpt_group_.end() &&
        ck->second->restoring.erase(ctrl->catchup_done->member) > 0) {
      refresh_read_set(*ck->second, out);
    }
    return;
  }
  // Replica announcements / listing syncs on a replica group feed that
  // group's registry (endpoint bookkeeping only; no launch decisions).
  auto it = by_replica_group_.find(event.group);
  if (it == by_replica_group_.end()) return;
  if (ctrl->kind == CtrlKind::kAnnounce && ctrl->announce) {
    Group& group = *it->second;
    group.reserved.erase(ctrl->announce->endpoint.host);
    if (group.target.style != ReplicationStyle::kQuorum) {
      // kQuorum replicas announce while still catching up; only their
      // ordered kCatchupDone (or view departure) closes the handshake.
      group.restoring.erase(ctrl->announce->member);
    }
    const bool fresh = !group.registry.find(ctrl->announce->member);
    group.registry.on_announce(*ctrl->announce);
    // The pre-warmed standby of a planned rotation just announced: order
    // the atomic handoff. Every replicated core flips handoff_sent at this
    // same position; only the acting shell multicasts the frame.
    if (fresh && !group.migrate_victim.empty() && !group.handoff_sent &&
        ctrl->announce->member != group.migrate_victim) {
      group.migrate_successor = ctrl->announce->member;
      group.handoff_sent = true;
      RmAction a;
      a.kind = RmAction::Kind::kHandoff;
      a.service = group.target.service;
      a.member = group.migrate_victim;
      a.successor = group.migrate_successor;
      out.push_back(std::move(a));
    }
    refresh_read_set(group, out);
  } else if (ctrl->kind == CtrlKind::kListing && ctrl->listing) {
    it->second->registry.on_listing(*ctrl->listing);
    refresh_read_set(*it->second, out);
  }
}

void RmCore::handle_rm_view(const gc::View& view, Actions& out) {
  const auto& old_members = rm_view_.members;
  const auto old_pos =
      std::find(old_members.begin(), old_members.end(), self_);
  const auto new_pos =
      std::find(view.members.begin(), view.members.end(), self_);
  if (old_pos != old_members.end()) {
    // A member's index in the view only shrinks as earlier members die;
    // growth means we were expelled (partition) and rejoined at the tail.
    // We missed ordered messages in between, so our state may have
    // diverged from the replicas that stayed — stop acting.
    if (new_pos == view.members.end() ||
        (new_pos - view.members.begin()) > (old_pos - old_members.begin())) {
      retired_ = true;
    }
  }
  rm_view_ = view;
  if (new_pos == view.members.end()) {
    // Out of the view entirely: any in-flight readmission attempt is void
    // (our request frame, if ordered at all, was ordered while we were
    // absent and the answer cannot reach us).
    readmit_nonce_ = 0;
    readmit_anchor_seen_ = false;
    readmit_buffer_.clear();
  } else if (retired_ && readmit_ && readmit_nonce_ == 0) {
    // Back in the view with possibly-diverged state. Instead of retiring
    // permanently, open a state-transfer handshake with the acting
    // replica: the snapshot + buffered-suffix replay makes us exactly
    // convergent, after which acting eligibility is safe again.
    readmit_nonce_ = next_readmit_nonce();
    RmAction a;
    a.kind = RmAction::Kind::kRequestReadmit;
    a.nonce = readmit_nonce_;
    out.push_back(std::move(a));
  }
}

std::uint64_t RmCore::next_readmit_nonce() {
  // Deterministic per core (FNV-1a over the member name, mixed with a
  // local sequence): only this core ever checks the value, so it need
  // only be unique across its own attempts and never zero.
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : self_) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  h ^= ++readmit_seq_;
  h *= 1099511628211ull;
  return h == 0 ? 1 : h;
}

void RmCore::drain_readmit_buffer(Actions& out) {
  readmit_anchor_seen_ = false;
  readmit_nonce_ = 0;
  std::vector<gc::Event> buffered = std::move(readmit_buffer_);
  readmit_buffer_.clear();
  for (const auto& ev : buffered) apply_event(ev, out);
}

void RmCore::handle_view(Group& group, const gc::Event& event, Actions& out) {
  const auto& old_members = group.registry.view().members;
  // Count replicas that just appeared: each consumes a pending launch
  // slot, oldest first.
  std::size_t joined = 0;
  for (const auto& m : event.view.members) {
    if (is_rm_member(m)) continue;
    if (std::find(old_members.begin(), old_members.end(), m) ==
        old_members.end()) {
      ++joined;
      // Ratchet numbering past any incarnation we did not mint ourselves —
      // a healed split-brain merges in the minority manager's launches, and
      // reusing one of those numbers would wedge a launch slot (the
      // application factory is idempotent per incarnation).
      const int inc = member_incarnation(m);
      if (inc >= group.next_incarnation) group.next_incarnation = inc + 1;
    }
  }
  const std::size_t consumed = std::min(group.pending.size(), joined);
  group.pending.erase(group.pending.begin(),
                      group.pending.begin() + static_cast<std::ptrdiff_t>(consumed));
  // Departed members are no longer doomed (they are dead), and a restore
  // handshake a departed member left open will never close.
  std::erase_if(group.doomed, [&](const std::string& m) {
    return !event.view.contains(m);
  });
  std::erase_if(group.restoring, [&](const std::string& m) {
    return !event.view.contains(m);
  });
  // A planned rotation ends when its victim leaves the view — either the
  // ordered handoff completed (rejuvenation exit) or the victim crashed
  // first, in which case the crash won and the plan dissolves.
  if (!group.migrate_victim.empty() &&
      !event.view.contains(group.migrate_victim)) {
    group.migrate_victim.clear();
    group.migrate_successor.clear();
    group.handoff_sent = false;
  }
  group.registry.on_view(event.view);
  reconcile(group, /*proactive_trigger=*/false, out);
  refresh_read_set(group, out);
}

void RmCore::reconcile(Group& group, bool proactive_trigger, Actions& out) {
  // Per-group invariant: live - doomed + pending >= target.
  std::size_t effective = live_in(group) + group.pending.size();
  effective -= std::min(effective, group.doomed.size());
  while (effective < group.target.target_degree) {
    const int incarnation = group.next_incarnation++;
    ++totals_.launches;
    ++group.stats.launches;
    if (proactive_trigger) {
      ++totals_.proactive_launches;
      ++group.stats.proactive_launches;
    } else {
      ++totals_.reactive_launches;
      ++group.stats.reactive_launches;
    }
    RmAction a;
    a.service = group.target.service;
    a.incarnation = incarnation;
    a.proactive = proactive_trigger;
    if (group.target.placement == PlacementPolicy::kAlgorithmic) {
      // Pure function of (service, incarnation, alive set, occupancy):
      // every replica computes this same host locally — no placement
      // frame travels for it.
      auto choice = algorithmic_choice(group, incarnation);
      if (!choice) {
        // No alive, unoccupied host right now. Abandon the slot — the
        // next membership change (or node-crash frame) reconciles again,
        // by which point a host may have freed up. The incarnation number
        // is burned; gaps are fine, monotonicity is what matters.
        a.kind = RmAction::Kind::kLaunchSkipped;
        out.push_back(std::move(a));
        break;
      }
      a.host = std::move(*choice);
      group.reserved.insert(a.host);
    }
    group.pending.push_back(Slot{incarnation, a.host, proactive_trigger});
    out.push_back(std::move(a));
    ++effective;
  }
}

void RmCore::refresh_read_set(Group& group, Actions& out) {
  if (!publishes_read_set(group.target.style)) return;
  const bool quorum = group.target.style == ReplicationStyle::kQuorum;
  // kActiveReadFanout: a mid-restore member must not serve reads during
  // the window between its restore opening and the next membership delta —
  // exclude it like a doomed one. kQuorum: keep it in the set (it counts
  // for writes immediately) but flag it catching_up so clients skip it
  // for reads until its kCatchupDone.
  std::set<std::string> excluded = group.doomed;
  if (!quorum) {
    excluded.insert(group.restoring.begin(), group.restoring.end());
  }
  auto records = group.registry.read_set(excluded);
  ReadSet next;
  next.version = group.read_set.version;
  if (!records.empty()) next.primary = records.front().member;
  next.entries.reserve(records.size());
  for (auto& r : records) {
    next.entries.emplace_back(std::move(r.member), std::move(r.endpoint),
                              std::move(r.ior));
  }
  if (quorum) {
    for (const auto& e : next.entries) {
      if (group.restoring.contains(e.member)) {
        next.catching_up.push_back(e.member);
      }
    }
  }
  if (next.primary == group.read_set.primary &&
      next.entries == group.read_set.entries &&
      next.catching_up == group.read_set.catching_up) {
    return;
  }
  next.version = group.read_set.version + 1;
  RmAction a;
  a.kind = RmAction::Kind::kPublishReadSet;
  a.service = group.target.service;
  a.group = read_set_group(group.target.service);
  group.read_set = std::move(next);
  a.read_set = group.read_set;
  out.push_back(std::move(a));
}

void RmCore::plan_migration(Group& group, const UsageReport& report,
                            Actions& out) {
  const MigrationSpec& spec = group.target.migration;
  if (!spec.enabled()) return;
  if (report.member != group.usage_member) {
    // Primary changed (rotation or failover): stale samples would blend
    // two replicas' leak curves into one bogus trend.
    group.usage_member = report.member;
    group.usage.clear();
  }
  group.usage.emplace_back(report.at_ms, report.usage);
  if (group.usage.size() > kUsageWindow) {
    group.usage.erase(group.usage.begin());
  }
  if (!group.migrate_victim.empty()) return;  // rotation already in flight
  if (group.doomed.contains(report.member)) return;  // reactive path won
  // Only rotate a healthy, fully-settled group: a pending launch or an
  // existing deficit means recovery machinery is already running.
  if (!group.pending.empty() || !group.doomed.empty()) return;
  if (live_in(group) < group.target.target_degree) return;
  if (group.last_migration_ms != 0 &&
      report.at_ms - group.last_migration_ms <
          static_cast<std::uint64_t>(spec.min_interval.ms())) {
    return;  // cool-down after the previous rotation
  }
  // Fit the sender-stamped sample window with the existing trend predictor
  // — no local clock, so every replicated core predicts identically.
  TrendPredictor predictor;
  for (const auto& [at_ms, usage] : group.usage) {
    predictor.observe(TimePoint{static_cast<std::int64_t>(at_ms) * 1'000'000},
                      usage);
  }
  const auto tte = predictor.time_to_reach(
      1.0, TimePoint{static_cast<std::int64_t>(report.at_ms) * 1'000'000});
  if (!tte || *tte > spec.horizon) return;
  // Exhaustion is inside the horizon: doom the primary, pre-warm its
  // standby through the ordinary launch/restore path, and order the
  // handoff once the standby announces.
  group.migrate_victim = report.member;
  group.migrate_successor.clear();
  group.handoff_sent = false;
  group.last_migration_ms = report.at_ms;
  group.usage.clear();
  ++totals_.migrations;
  ++group.stats.migrations;
  RmAction plan;
  plan.kind = RmAction::Kind::kPlanMigration;
  plan.service = group.target.service;
  plan.member = report.member;
  out.push_back(std::move(plan));
  group.doomed.insert(report.member);
  reconcile(group, /*proactive_trigger=*/true, out);
  refresh_read_set(group, out);
}

namespace {

void write_string_set(giop::CdrWriter& w, const std::set<std::string>& s) {
  w.write_u32(static_cast<std::uint32_t>(s.size()));
  for (const auto& e : s) w.write_string(e);
}

bool read_string_set(giop::CdrReader& r, std::set<std::string>& out) {
  auto n = r.read_u32();
  if (!n) return false;
  out.clear();
  for (std::uint32_t i = 0; i < *n; ++i) {
    auto e = r.read_string();
    if (!e) return false;
    out.insert(std::move(*e));
  }
  return true;
}

}  // namespace

Bytes RmCore::encode_snapshot() const {
  giop::CdrWriter w;
  w.write_u64(alive_epoch_);
  w.write_u32(static_cast<std::uint32_t>(alive_hosts_.size()));
  for (const auto& h : alive_hosts_) w.write_string(h);
  w.write_u64(totals_.launches);
  w.write_u64(totals_.proactive_launches);
  w.write_u64(totals_.reactive_launches);
  w.write_u64(totals_.migrations);
  w.write_u32(static_cast<std::uint32_t>(groups_.size()));
  for (const auto& g : groups_) {
    g->registry.encode(w);
    write_string_set(w, g->doomed);
    w.write_u32(static_cast<std::uint32_t>(g->pending.size()));
    for (const auto& slot : g->pending) {
      w.write_i32(slot.incarnation);
      w.write_string(slot.host);
      w.write_bool(slot.proactive);
    }
    w.write_i32(g->next_incarnation);
    w.write_u64(g->stats.launches);
    w.write_u64(g->stats.proactive_launches);
    w.write_u64(g->stats.reactive_launches);
    w.write_u64(g->stats.migrations);
    write_string_set(w, g->reserved);
    write_string_set(w, g->restoring);
    w.write_u64(g->read_set.version);
    w.write_string(g->read_set.primary);
    w.write_u32(static_cast<std::uint32_t>(g->read_set.entries.size()));
    for (const auto& e : g->read_set.entries) {
      w.write_string(e.member);
      w.write_string(e.endpoint.host);
      w.write_u16(e.endpoint.port);
      giop::encode_ior(w, e.ior);
    }
    w.write_u32(static_cast<std::uint32_t>(g->read_set.catching_up.size()));
    for (const auto& m : g->read_set.catching_up) w.write_string(m);
    // Migration planner: a readmitted backup must agree on any in-flight
    // rotation or it could double-handoff after a failover.
    w.write_string(g->usage_member);
    w.write_u32(static_cast<std::uint32_t>(g->usage.size()));
    for (const auto& [at_ms, usage] : g->usage) {
      w.write_u64(at_ms);
      w.write_double(usage);
    }
    w.write_u64(g->last_migration_ms);
    w.write_string(g->migrate_victim);
    w.write_string(g->migrate_successor);
    w.write_bool(g->handoff_sent);
  }
  return w.take();
}

bool RmCore::install_snapshot(const Bytes& snapshot) {
  giop::CdrReader r(snapshot, giop::ByteOrder::kLittleEndian);
  auto alive_epoch = r.read_u64();
  if (!alive_epoch) return false;
  auto alive_count = r.read_u32();
  if (!alive_count) return false;
  std::vector<std::string> alive_hosts;
  alive_hosts.reserve(*alive_count);
  for (std::uint32_t i = 0; i < *alive_count; ++i) {
    auto h = r.read_string();
    if (!h) return false;
    alive_hosts.push_back(std::move(*h));
  }
  RmStats totals;
  auto l = r.read_u64();
  auto p = r.read_u64();
  auto re = r.read_u64();
  auto mi = r.read_u64();
  if (!l || !p || !re || !mi) return false;
  totals.launches = *l;
  totals.proactive_launches = *p;
  totals.reactive_launches = *re;
  totals.migrations = *mi;
  auto group_count = r.read_u32();
  // Supervised targets are construction-time configuration, identical on
  // every RM replica: a mismatched count means the frame is not for us.
  if (!group_count || *group_count != groups_.size()) return false;
  // Decode into scratch groups first — install must be all-or-nothing.
  std::vector<std::unique_ptr<Group>> scratch;
  for (const auto& g : groups_) {
    auto s = std::make_unique<Group>();
    s->target = g->target;
    if (!s->registry.decode(r)) return false;
    if (!read_string_set(r, s->doomed)) return false;
    auto pending_count = r.read_u32();
    if (!pending_count) return false;
    for (std::uint32_t i = 0; i < *pending_count; ++i) {
      Slot slot;
      auto inc = r.read_i32();
      if (!inc) return false;
      slot.incarnation = *inc;
      auto host = r.read_string();
      if (!host) return false;
      slot.host = std::move(*host);
      auto proactive = r.read_bool();
      if (!proactive) return false;
      slot.proactive = *proactive;
      s->pending.push_back(std::move(slot));
    }
    auto next_inc = r.read_i32();
    if (!next_inc) return false;
    s->next_incarnation = *next_inc;
    auto gl = r.read_u64();
    auto gp = r.read_u64();
    auto gr = r.read_u64();
    auto gm = r.read_u64();
    if (!gl || !gp || !gr || !gm) return false;
    s->stats.launches = *gl;
    s->stats.proactive_launches = *gp;
    s->stats.reactive_launches = *gr;
    s->stats.migrations = *gm;
    if (!read_string_set(r, s->reserved)) return false;
    if (!read_string_set(r, s->restoring)) return false;
    auto version = r.read_u64();
    if (!version) return false;
    s->read_set.version = *version;
    auto primary = r.read_string();
    if (!primary) return false;
    s->read_set.primary = std::move(*primary);
    auto entry_count = r.read_u32();
    if (!entry_count) return false;
    for (std::uint32_t i = 0; i < *entry_count; ++i) {
      Announce e;
      auto member = r.read_string();
      if (!member) return false;
      e.member = std::move(*member);
      auto host = r.read_string();
      if (!host) return false;
      e.endpoint.host = std::move(*host);
      auto port = r.read_u16();
      if (!port) return false;
      e.endpoint.port = *port;
      auto ior = giop::decode_ior(r);
      if (!ior) return false;
      e.ior = std::move(*ior);
      s->read_set.entries.push_back(std::move(e));
    }
    auto catchup_count = r.read_u32();
    if (!catchup_count) return false;
    for (std::uint32_t i = 0; i < *catchup_count; ++i) {
      auto m = r.read_string();
      if (!m) return false;
      s->read_set.catching_up.push_back(std::move(*m));
    }
    auto usage_member = r.read_string();
    if (!usage_member) return false;
    s->usage_member = std::move(*usage_member);
    auto usage_count = r.read_u32();
    if (!usage_count) return false;
    for (std::uint32_t i = 0; i < *usage_count; ++i) {
      auto at_ms = r.read_u64();
      if (!at_ms) return false;
      auto usage = r.read_double();
      if (!usage) return false;
      s->usage.emplace_back(*at_ms, *usage);
    }
    auto last_migration = r.read_u64();
    if (!last_migration) return false;
    s->last_migration_ms = *last_migration;
    auto victim = r.read_string();
    if (!victim) return false;
    s->migrate_victim = std::move(*victim);
    auto successor = r.read_string();
    if (!successor) return false;
    s->migrate_successor = std::move(*successor);
    auto handoff_sent = r.read_bool();
    if (!handoff_sent) return false;
    s->handoff_sent = *handoff_sent;
    scratch.push_back(std::move(s));
  }
  alive_epoch_ = *alive_epoch;
  alive_hosts_ = std::move(alive_hosts);
  totals_ = totals;
  by_replica_group_.clear();
  by_control_group_.clear();
  by_readset_group_.clear();
  by_ckpt_group_.clear();
  groups_ = std::move(scratch);
  for (const auto& g : groups_) {
    by_replica_group_[replica_group(g->target.service)] = g.get();
    by_control_group_[control_group(g->target.service)] = g.get();
    if (publishes_read_set(g->target.style)) {
      by_readset_group_[read_set_group(g->target.service)] = g.get();
    }
    if (g->target.stateful) {
      by_ckpt_group_[ckpt_group(g->target.service)] = g.get();
    }
  }
  return true;
}

RmCore::Actions RmCore::on_node_crash(const std::string& host) {
  Actions out;
  apply_node_crash(host, out);
  return out;
}

void RmCore::apply_node_crash(const std::string& host, Actions& out) {
  // Idempotent: a repeated crash frame finds the host already gone from
  // the alive universe and holding no reservation.
  if (any_algorithmic_) {
    auto it = std::find(alive_hosts_.begin(), alive_hosts_.end(), host);
    if (it != alive_hosts_.end()) {
      alive_hosts_.erase(it);
      publish_alive_epoch(out);
    }
  }
  for (auto& g : groups_) {
    // A launch reserved onto the crashed host died before joining any
    // view; without this release the group under-shoots its degree
    // forever.
    if (g->reserved.erase(host) > 0) {
      auto slot = std::find_if(g->pending.begin(), g->pending.end(),
                               [&](const Slot& s) { return s.host == host; });
      if (slot != g->pending.end()) g->pending.erase(slot);
      reconcile(*g, /*proactive_trigger=*/false, out);
    }
  }
}

RmCore::Actions RmCore::on_node_join(const std::string& host) {
  Actions out;
  apply_node_join(host, out);
  return out;
}

void RmCore::publish_alive_epoch(Actions& out) {
  ++alive_epoch_;
  RmAction a;
  a.kind = RmAction::Kind::kPublishAliveEpoch;
  a.alive.epoch = alive_epoch_;
  a.alive.alive = alive_hosts_;
  out.push_back(std::move(a));
}

void RmCore::apply_node_join(const std::string& host, Actions& out) {
  if (!any_algorithmic_) return;
  if (std::binary_search(alive_hosts_.begin(), alive_hosts_.end(), host)) {
    return;  // duplicate join frame
  }
  // The rebalance set is computed against the pre-join universe: exactly
  // the kAlgorithmic groups whose balanced anchor lands on the new host —
  // at most ceil(G/N) of them by the jump-hash load-cap construction.
  std::vector<std::string> algo_services;
  for (const auto& t : targets_) {
    if (t.placement == PlacementPolicy::kAlgorithmic) {
      algo_services.push_back(t.service);
    }
  }
  const auto moves =
      placement::rebalance_moves(algo_services, alive_hosts_, host);
  alive_hosts_.insert(
      std::upper_bound(alive_hosts_.begin(), alive_hosts_.end(), host), host);
  publish_alive_epoch(out);
  for (const auto& service : moves) {
    Group* g = find_group(service);
    if (g == nullptr) continue;
    // Skip groups already touching the new host (a replica, reservation,
    // or pending slot there) — nothing to migrate.
    if (g->reserved.contains(host)) continue;
    if (std::any_of(g->pending.begin(), g->pending.end(),
                    [&](const Slot& s) { return s.host == host; })) {
      continue;
    }
    bool occupied = false;
    std::string victim;
    for (const auto& m : g->registry.view().members) {
      if (is_rm_member(m)) continue;
      auto rec = g->registry.find(m);
      if (rec && rec->endpoint.host == host) occupied = true;
      // Victim: the last announced, not-yet-doomed member — the group
      // keeps its primary (first in view) serving through the migration.
      if (rec && !g->doomed.contains(m)) victim = m;
    }
    if (occupied || victim.empty()) continue;
    // Migration keeps the launch invariant flat: +1 doomed, +1 pending.
    // The replacement joins on the new host, then the victim retires and
    // leaves the view, settling the group back at target degree.
    const int incarnation = g->next_incarnation++;
    ++totals_.launches;
    ++g->stats.launches;
    ++totals_.proactive_launches;
    ++g->stats.proactive_launches;
    g->doomed.insert(victim);
    g->reserved.insert(host);
    g->pending.push_back(Slot{incarnation, host, /*proactive=*/true});
    RmAction launch;
    launch.service = service;
    launch.incarnation = incarnation;
    launch.host = host;
    launch.proactive = true;
    out.push_back(std::move(launch));
    RmAction retire;
    retire.kind = RmAction::Kind::kRetireReplica;
    retire.service = service;
    retire.member = victim;
    out.push_back(std::move(retire));
    refresh_read_set(*g, out);
  }
}

RmCore::Actions RmCore::on_launch_failed(const std::string& service,
                                         int incarnation) {
  Actions out;
  apply_launch_failed(service, incarnation, out);
  return out;
}

void RmCore::apply_launch_failed(const std::string& service, int incarnation,
                                 Actions& out) {
  (void)out;
  Group* g = find_group(service);
  if (g == nullptr) return;
  auto slot = std::find_if(
      g->pending.begin(), g->pending.end(),
      [&](const Slot& s) { return s.incarnation == incarnation; });
  if (slot == g->pending.end()) return;  // duplicate frame: already released
  if (!slot->host.empty()) g->reserved.erase(slot->host);
  g->pending.erase(slot);
  // Deliberately no reconcile: the slot stays vacant until the next
  // membership event, matching the solo manager's historical behaviour.
}

RmCore::Actions RmCore::resume_actions() const {
  Actions out;
  if (any_algorithmic_ && alive_epoch_ > 0) {
    // The dead acting may have died between applying a crash/join and its
    // epoch multicast; repeating the current epoch closes that gap
    // (receivers drop epochs they already hold).
    RmAction a;
    a.kind = RmAction::Kind::kPublishAliveEpoch;
    a.alive.epoch = alive_epoch_;
    a.alive.alive = alive_hosts_;
    a.republish = true;
    out.push_back(std::move(a));
  }
  for (const auto& g : groups_) {
    for (const auto& slot : g->pending) {
      RmAction a;
      a.service = g->target.service;
      a.incarnation = slot.incarnation;
      a.host = slot.host;
      a.proactive = slot.proactive;
      out.push_back(std::move(a));
    }
    if (!g->migrate_victim.empty() && g->handoff_sent) {
      // The dead acting may have ordered the rotation and died before the
      // handoff multicast landed; the frame is idempotent at the victim.
      RmAction a;
      a.kind = RmAction::Kind::kHandoff;
      a.service = g->target.service;
      a.member = g->migrate_victim;
      a.successor = g->migrate_successor;
      a.republish = true;
      out.push_back(std::move(a));
    }
    if (publishes_read_set(g->target.style) && g->read_set.version > 0) {
      // The dead acting may have bumped every core's version and then died
      // before its multicast landed; repeating the current set closes that
      // gap, and subscribers drop versions they already know.
      RmAction a;
      a.kind = RmAction::Kind::kPublishReadSet;
      a.service = g->target.service;
      a.group = read_set_group(g->target.service);
      a.read_set = g->read_set;
      a.republish = true;
      out.push_back(std::move(a));
    }
  }
  return out;
}

std::optional<std::string> RmCore::algorithmic_choice(const Group& group,
                                                      int incarnation) const {
  // Excluded = hosts the group already touches: announced live members
  // plus in-flight reservations. Dead hosts are already absent from
  // alive_hosts_ (removed at their ordered kNodeCrash position).
  std::vector<std::string> excluded(group.reserved.begin(),
                                    group.reserved.end());
  for (const auto& m : group.registry.view().members) {
    if (is_rm_member(m)) continue;
    if (auto rec = group.registry.find(m)) {
      excluded.push_back(rec->endpoint.host);
    }
  }
  return placement::choose(group.target.service, incarnation, alive_hosts_,
                           excluded);
}

std::optional<std::string> RmCore::placement_choice(
    const std::string& service) const {
  const Group* g = find_group(service);
  if (g == nullptr || g->target.placement != PlacementPolicy::kAlgorithmic) {
    return std::nullopt;
  }
  return algorithmic_choice(*g, g->next_incarnation);
}

}  // namespace mead::core

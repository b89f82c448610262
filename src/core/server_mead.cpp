#include "core/server_mead.h"

#include "common/log.h"

namespace mead::core {

ServerMead::ServerMead(net::ProcessPtr proc, MeadConfig cfg)
    : proc_(std::move(proc)), cfg_(std::move(cfg)), inner_(proc_->api()),
      launch_requests_(
          proc_->sim().obs().metrics().counter("server.launch_requests")),
      migrations_(proc_->sim().obs().metrics().counter("server.migrations")),
      rejuvenations_(
          proc_->sim().obs().metrics().counter("server.rejuvenations")),
      failover_piggybacks_(
          proc_->sim().obs().metrics().counter("server.failover_piggybacks")) {
  gc_ = std::make_unique<gc::GcClient>(*proc_, cfg_.member, cfg_.daemon);
  if (cfg_.state.enabled) {
    app_state_ = std::make_unique<state::AppState>(cfg_.state.keys);
    ckpt_store_ = std::make_unique<state::CheckpointStore>();
    msg_log_ = std::make_unique<state::MessageLog>(cfg_.state.log_cap);
    auto& metrics = proc_->sim().obs().metrics();
    ckpt_bytes_ = &metrics.counter("state.ckpt.bytes");
    ckpt_deltas_ = &metrics.counter("state.ckpt.deltas");
    replay_msgs_ = &metrics.counter("state.replay.msgs");
    restore_ms_ = &metrics.counter("state.restore_ms");
    digest_mismatches_ = &metrics.counter("state.digest_mismatch");
  }
}

ServerMead::~ServerMead() = default;

// ------------------------------------------------------------- lifecycle

sim::Task<bool> ServerMead::start() {
  const bool connected = co_await gc_->connect();
  if (!connected) co_return false;
  (void)co_await gc_->join(replica_group(cfg_.service));
  (void)co_await gc_->join(control_group(cfg_.service));
  if (cfg_.state.enabled) {
    // Stateful path: restore from a live peer BEFORE announcing — clients
    // must never be pointed at a replica whose state is behind the group.
    (void)co_await gc_->join(ckpt_group(cfg_.service));
    restoring_ = true;
    restore_base_seen_ = false;
    restore_begin_ = proc_->sim().now();
    await_nonce_ = make_nonce();
    proc_->sim().obs().emit(obs::EventKind::kRestoreBegin, cfg_.member,
                            cfg_.service, 0);
    proc_->sim().spawn(gc_pump());
    proc_->sim().spawn(restore_watchdog());
    (void)co_await gc_->multicast(
        ckpt_group(cfg_.service),
        encode_ckpt_request(CkptRequest{cfg_.member, await_nonce_, 0}));
    if (cfg_.style != ReplicationStyle::kQuorum) {
      // Warm-passive / fanout: the restore gates the announce — clients
      // must never be pointed at a replica whose state is behind.
      while (restoring_) {
        const bool alive = co_await proc_->sleep(microseconds(250));
        if (!alive) co_return false;
      }
    }
    // kQuorum: announce immediately. The RM counts us for the write quorum
    // right away but keeps us flagged catching_up (reads excluded) until
    // the restore's ordered kCatchupDone — the group serves at full read
    // degree minus one while we replay, instead of blocking on us.
    if (self_ior_.valid()) {
      (void)co_await gc_->multicast(
          replica_group(cfg_.service),
          encode_announce(Announce{cfg_.member, orb_endpoint_, self_ior_}));
    }
    if (cfg_.state_sync_interval > Duration{0}) {
      proc_->sim().spawn(state_sync_loop());
    }
    proc_->sim().spawn(checkpoint_loop());
    if (cfg_.migration.enabled()) proc_->sim().spawn(usage_report_loop());
    co_return true;
  }
  // Announce our reference so every FT manager can forward clients to us.
  if (self_ior_.valid()) {
    (void)co_await gc_->multicast(
        replica_group(cfg_.service),
        encode_announce(Announce{cfg_.member, orb_endpoint_, self_ior_}));
  }
  proc_->sim().spawn(gc_pump());
  if (cfg_.state_sync_interval > Duration{0}) {
    proc_->sim().spawn(state_sync_loop());
  }
  if (cfg_.migration.enabled()) proc_->sim().spawn(usage_report_loop());
  co_return true;
}

sim::Task<void> ServerMead::gc_pump() {
  for (;;) {
    auto ev = co_await gc_->next_event();
    if (!ev || !ev.value()) co_return;  // connection lost or shutting down
    gc::Event& event = *ev.value();
    if (event.kind == gc::Event::Kind::kView &&
        event.group == replica_group(cfg_.service)) {
      registry_.on_view(event.view);
      // "the first replica listed ... sends a message that synchronizes the
      // listing of active servers across the group" (§4.3).
      if (registry_.is_first(cfg_.member)) {
        proc_->sim().schedule(Duration{0}, [this] { send_listing(); });
        // Membership has settled and we are the agreed-upon primary:
        // answer queries that raced the membership change (§5.2.1).
        for (auto& q : pending_queries_) {
          if (proc_->sim().now() < q.expires) {
            answer_primary_query(std::move(q.reply_group), q.nonce);
          }
        }
        pending_queries_.clear();
      } else {
        std::erase_if(pending_queries_, [&](const PendingQuery& q) {
          return proc_->sim().now() >= q.expires;
        });
      }
      continue;
    }
    if (event.kind == gc::Event::Kind::kMessage) handle_ctrl(event);
  }
}

void ServerMead::handle_ctrl(const gc::Event& ev) {
  if (peek_ctrl_kind(ev.payload) == CtrlKind::kCkptDelta && !wants_ckpt(ev.payload)) {
    return;  // dropped before its entries are decoded
  }
  auto ctrl = decode_ctrl(ev.payload);
  if (!ctrl) return;
  switch (ctrl->kind) {
    case CtrlKind::kAnnounce:
      registry_.on_announce(*ctrl->announce);
      break;
    case CtrlKind::kListing:
      registry_.on_listing(*ctrl->listing);
      break;
    case CtrlKind::kPrimaryQuery:
      // Only the first listed replica answers (§4.2). If the failed replica
      // is still listed first (membership not yet settled), park the query:
      // whichever replica the next view promotes will answer it — if that
      // happens within the client's timeout window.
      if (registry_.is_first(cfg_.member)) {
        answer_primary_query(ctrl->query->reply_group, ctrl->query->nonce);
      } else {
        pending_queries_.emplace_back(ctrl->query->reply_group,
                                      ctrl->query->nonce,
                                      proc_->sim().now() + milliseconds(20));
      }
      break;
    case CtrlKind::kState:
      if (ctrl->state->member != cfg_.member && set_state_) {
        if (ctrl->state->version > state_version_) {
          state_version_ = ctrl->state->version;
          set_state_(ctrl->state->state);
          ++stats_.state_applied;
        }
      }
      break;
    case CtrlKind::kLaunchRequest:
      break;  // the Recovery Manager's business
    case CtrlKind::kPrimaryAnswer:
      break;  // only clients consume answers
    case CtrlKind::kReadSet:
      break;  // published by the RM for routing clients, not replicas
    case CtrlKind::kNodeCrash:
    case CtrlKind::kLaunchFailed:
    case CtrlKind::kAliveEpoch:
    case CtrlKind::kNodeJoin:
      break;  // RM-group-internal frames; never sent to replica groups
    case CtrlKind::kRetire:
      // The rebalance pass migrated this group onto a new host and named
      // us the victim: drain in-flight work, then exit gracefully — the
      // replacement is already announcing on the joined node.
      if (ctrl->retire->member == cfg_.member && proc_->alive()) {
        proc_->sim().obs().metrics().counter("server.retires").add();
        proc_->sim().spawn(rejuvenate_after_drain());
      }
      break;
    case CtrlKind::kCkptRequest: {
      if (app_state_ == nullptr || restoring_ ||
          ctrl->ckpt_request->nonce == 0 ||
          ctrl->ckpt_request->member == cfg_.member) {
        break;
      }
      // Only the announced primary answers: a restoring replica is not
      // yet announced, so never first.
      if (registry_.is_first(cfg_.member)) {
        proc_->sim().schedule(Duration{0}, [this, r = *ctrl->ckpt_request] {
          answer_restore(r.member, r.nonce);
        });
      }
      break;
    }
    case CtrlKind::kCkptDelta:
      handle_ckpt_delta(std::move(*ctrl->ckpt_delta));
      break;
    case CtrlKind::kLogReplay:
      if (app_state_ && ctrl->log_replay->nonce != 0 &&
          ctrl->log_replay->nonce == await_nonce_) {
        if (restoring_) {
          const std::int64_t replayed = state::MessageLog::replay(
              ctrl->log_replay->entries, ctrl->log_replay->digest,
              *app_state_);
          proc_->sim().spawn(finish_replay(replayed));
        } else {
          await_nonce_ = 0;  // live-mirror resync stream complete
        }
      }
      break;
    case CtrlKind::kUsageReport:
      break;  // the RM's migration planner consumes these
    case CtrlKind::kQuorumSet:
      break;  // published by the RM for routing clients, not replicas
    case CtrlKind::kCatchupDone:
      break;  // the RM clears the sender's catching_up flag
    case CtrlKind::kHandoff:
      if (ctrl->handoff) handle_handoff(*ctrl->handoff);
      break;
    case CtrlKind::kReplyCache: {
      if (app_state_ == nullptr || cfg_.state.dedup_cap == 0 ||
          ctrl->reply_cache->member == cfg_.member) {
        break;
      }
      const auto& rc = *ctrl->reply_cache;
      // Periodic pushes install on mirrors only (the primary is the
      // source); directed ones only on the requester that asked.
      const bool take = rc.nonce == 0 ? !registry_.is_first(cfg_.member)
                                      : rc.nonce == await_nonce_;
      if (take) dedup_install(rc.entries);
      break;
    }
  }
}

void ServerMead::handle_handoff(const Handoff& h) {
  if (h.victim != cfg_.member || !proc_->alive()) return;
  if (migrating_) return;  // duplicate frame / reactive path already won
  migrate_target_ = registry_.find(h.successor);
  if (!migrate_target_) {
    // The successor's announce has not reached our registry yet (it must
    // exist group-wide: the RM only orders the handoff after it announced).
    migrate_target_ = registry_.next_after(cfg_.member);
  }
  if (!migrate_target_) return;
  migrating_ = true;
  ++stats_.handoffs;
  if (handoff_ms_ == nullptr) {
    handoff_ms_ = &proc_->sim().obs().metrics().counter("mead.handoff_ms");
  }
  // The planned-rotation unavailability window is exactly the drain: the
  // successor is pre-warmed and announced, so no launch or restore sits on
  // the client-visible path (the bench's flat-vs-growing comparison).
  handoff_ms_->add(static_cast<std::uint64_t>(cfg_.drain_timeout.ms() + 0.5));
  proc_->sim().obs().emit(obs::EventKind::kHandoff, cfg_.member,
                          migrate_target_->member, usage());
  if (app_state_ && !restoring_ && registry_.is_first(cfg_.member)) {
    // Transfer the log tail: a final checkpoint (with the reply cache
    // riding along) lands before the successor takes over as primary.
    proc_->sim().schedule(Duration{0}, [this] { push_checkpoint(); });
  }
  proc_->sim().spawn(rejuvenate_after_drain());
}

sim::Task<void> ServerMead::usage_report_loop() {
  for (;;) {
    const bool alive = co_await proc_->sleep(cfg_.migration.report_interval);
    if (!alive) co_return;
    if (migrating_ || account_ == nullptr) continue;
    // Only the serving primary reports: rotation is about moving the
    // member that is actually accumulating per-request leakage.
    if (!registry_.is_first(cfg_.member)) continue;
    const auto at_ms =
        static_cast<std::uint64_t>(proc_->sim().now().ns() / 1'000'000);
    (void)co_await gc_->multicast(
        control_group(cfg_.service),
        encode_usage_report(UsageReport{cfg_.member, usage(), at_ms}));
  }
}

// ------------------------------------------------- reply deduplication

void ServerMead::note_request_token(ClientConn& conn,
                                    const giop::RequestMessage& req) {
  // The dedup token is the trailing (client_id, seq) pair clients append
  // to the args encapsulation; a bare request carries none.
  if (req.args.size() != 16) return;
  giop::CdrReader r(req.args, req.order);
  auto client_id = r.read_u64();
  auto seq = r.read_u64();
  if (!client_id || !seq) return;
  conn.pending_tokens.emplace_back(*client_id, *seq);
}

void ServerMead::dedup_insert(std::pair<std::uint64_t, std::uint64_t> token) {
  if (!dedup_set_.insert(token).second) return;
  dedup_fifo_.push_back(token);
  while (dedup_fifo_.size() > cfg_.state.dedup_cap) {
    dedup_set_.erase(dedup_fifo_.front());
    dedup_fifo_.pop_front();
  }
}

void ServerMead::dedup_install(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& entries) {
  dedup_fifo_.clear();
  dedup_set_.clear();
  for (const auto& t : entries) dedup_insert(t);
}

Bytes ServerMead::reply_cache_wire(std::uint64_t nonce) const {
  ReplyCache rc;
  rc.member = cfg_.member;
  rc.nonce = nonce;
  rc.entries.assign(dedup_fifo_.begin(), dedup_fifo_.end());
  return encode_reply_cache(rc);
}

void ServerMead::answer_primary_query(std::string reply_group,
                                      std::uint64_t nonce) {
  ++stats_.primary_answers;
  gc_->post_soon(
      std::move(reply_group),
      encode_primary_answer(PrimaryAnswer{cfg_.member, orb_endpoint_, nonce}));
}

void ServerMead::send_listing() {
  Listing listing;
  for (auto& rec : registry_.listed()) {
    listing.entries.push_back(Announce{rec.member, rec.endpoint, rec.ior});
  }
  // Always include ourselves (our own announce may still be in flight).
  if (self_ior_.valid() && !registry_.find(cfg_.member)) {
    listing.entries.push_back(Announce{cfg_.member, orb_endpoint_, self_ior_});
  }
  if (listing.entries.empty()) return;
  (void)gc_->post(replica_group(cfg_.service), encode_listing(listing));
}

sim::Task<void> ServerMead::state_sync_loop() {
  for (;;) {
    const bool alive = co_await proc_->sleep(cfg_.state_sync_interval);
    if (!alive) co_return;
    if (!get_state_ || !registry_.is_first(cfg_.member)) continue;
    ++state_version_;
    ++stats_.state_pushes;
    (void)co_await gc_->multicast(
        replica_group(cfg_.service),
        encode_state(StateTransfer{cfg_.member, state_version_, get_state_()}));
  }
}

// ---------------------------------------- stateful recovery pipeline

std::uint64_t ServerMead::make_nonce() {
  // FNV-1a of the member name mixed with a local counter: unique across
  // requesters and across retries, deterministic per run.
  std::uint64_t h = 1469598103934665603ULL;
  for (char ch : cfg_.member) {
    h ^= static_cast<std::uint8_t>(ch);
    h *= 1099511628211ULL;
  }
  const std::uint64_t n = state::mix64(h ^ ++next_nonce_);
  return n == 0 ? 1 : n;
}

sim::Task<void> ServerMead::checkpoint_loop() {
  for (;;) {
    const bool alive = co_await proc_->sleep(cfg_.state.checkpoint_interval);
    if (!alive) co_return;
    if (restoring_ || !registry_.is_first(cfg_.member)) continue;
    if (ckpt_store_->has_base() &&
        app_state_->applied() == ckpt_store_->applied()) {
      continue;  // no new ops since the last checkpoint
    }
    push_checkpoint();
  }
}

void ServerMead::push_checkpoint() {
  if (app_state_ == nullptr || restoring_) return;
  const state::Checkpoint& c = ckpt_store_->take(*app_state_);
  // Truncation contract: the log only ever covers ops newer than the
  // latest checkpoint.
  msg_log_->truncate_through(c.applied);
  ++stats_.ckpt_taken;
  ckpt_deltas_->add();
  gc::McastFrame frame = encode_ckpt_mcast(ckpt_group(cfg_.service), c,
                                           cfg_.member, 0, cfg_.state.value_pad);
  ckpt_bytes_->add(frame.payload_size);
  proc_->sim().obs().emit(obs::EventKind::kCkptTaken, cfg_.member,
                          c.is_base ? "base" : "delta",
                          static_cast<double>(c.epoch));
  (void)gc_->post_frame(std::move(frame.wire));
  if (cfg_.state.dedup_cap > 0 && !dedup_fifo_.empty()) {
    // The reply cache truncates with the checkpoint cycle: whatever the
    // FIFO holds now is exactly what a successor needs to keep suppressing.
    (void)gc_->post(ckpt_group(cfg_.service), reply_cache_wire(0));
  }
}

sim::Task<void> ServerMead::restore_watchdog() {
  bool alive = co_await proc_->sleep(cfg_.state.restore_grace);
  if (!alive || !restoring_) co_return;
  if (!restore_base_seen_) {
    // No live peer sent a base within the grace window: we are the first
    // replica of a cold group — start fresh (not counted as a restore).
    finish_restore(/*restored=*/false, 0);
    co_return;
  }
  alive = co_await proc_->sleep(cfg_.state.restore_deadline);
  if (!alive || !restoring_) co_return;
  // Hard deadline: the installed prefix is still consistent (every applied
  // checkpoint chained), so announce with what we have.
  finish_restore(/*restored=*/true,
                 static_cast<double>(app_state_->applied()));
}

void ServerMead::finish_restore(bool restored, double ops) {
  if (!restoring_) return;
  restoring_ = false;
  await_nonce_ = 0;
  const double ms = (proc_->sim().now() - restore_begin_).ms();
  stats_.last_restore_ms = ms;
  if (restored) {
    ++stats_.restores;
    restore_ms_->add(static_cast<std::uint64_t>(ms + 0.5));
  }
  proc_->sim().obs().emit(obs::EventKind::kRestoreEnd, cfg_.member,
                          restored ? "restored" : "fresh", ops);
  if (cfg_.style == ReplicationStyle::kQuorum) {
    // We announced before restoring (serving writes, excluded from reads);
    // the ordered kCatchupDone readmits us to the read quorum.
    gc_->post_soon(ckpt_group(cfg_.service),
                   encode_catchup_done(CatchupDone{cfg_.service, cfg_.member}));
  }
}

sim::Task<void> ServerMead::finish_replay(std::int64_t replayed) {
  const std::int64_t n = replayed < 0 ? 0 : replayed;
  if (n > 0) {
    // Replay costs virtual CPU per op — the checkpoint-interval axis of
    // the restore-time bench.
    const bool alive =
        co_await proc_->sleep(cfg_.state.replay_op_cost * n);
    if (!alive) co_return;
  }
  if (!restoring_) co_return;  // the watchdog deadline fired first
  if (replayed < 0) digest_mismatches_->add();
  stats_.replayed_msgs += static_cast<std::uint64_t>(n);
  replay_msgs_->add(static_cast<std::uint64_t>(n));
  finish_restore(/*restored=*/true,
                 static_cast<double>(app_state_->applied()));
}

void ServerMead::answer_restore(const std::string& requester,
                                std::uint64_t nonce) {
  if (app_state_ == nullptr) return;
  LogLine(proc_->sim().log(), LogLevel::kDebug, "mead")
      << cfg_.member << " answering restore for " << requester;
  if (!ckpt_store_->has_base()) push_checkpoint();
  const std::string group = ckpt_group(cfg_.service);
  for (const auto& c : ckpt_store_->chain()) {
    gc::McastFrame frame = encode_ckpt_mcast(group, c, cfg_.member, nonce,
                                             cfg_.state.value_pad);
    ckpt_bytes_->add(frame.payload_size);
    (void)gc_->post_frame(std::move(frame.wire));
  }
  if (cfg_.state.dedup_cap > 0 && !dedup_fifo_.empty()) {
    (void)gc_->post(group, reply_cache_wire(nonce));
  }
  LogReplay lr;
  lr.member = cfg_.member;
  lr.nonce = nonce;
  lr.applied = app_state_->applied();
  lr.digest = app_state_->digest();
  lr.entries = msg_log_->entries();
  (void)gc_->post(group, encode_log_replay(lr));
}

void ServerMead::request_resync_soon() {
  // A live mirror fell off the delta chain (dropped frame under a
  // partition, or joined after the base): ask for a directed re-send.
  proc_->sim().schedule(Duration{0}, [this] {
    if (await_nonce_ != 0 || restoring_) return;
    await_nonce_ = make_nonce();
    (void)gc_->post(ckpt_group(cfg_.service),
                    encode_ckpt_request(CkptRequest{
                        cfg_.member, await_nonce_, ckpt_store_->last_epoch()}));
  });
}

bool ServerMead::wants_ckpt(ByteView payload) const {
  // A stateless replica has nothing to fold checkpoints into.
  if (app_state_ == nullptr) return false;
  const auto src = peek_ckpt_source(payload);
  if (!src || src->member == cfg_.member) return false;
  // While restoring, only the directed stream we asked for: periodic
  // pushes would interleave mid-chain and always gap.
  if (restoring_) return src->nonce != 0 && src->nonce == await_nonce_;
  // Otherwise periodic pushes and our own resync stream, except on the
  // primary, which is their source.
  return (src->nonce == 0 || src->nonce == await_nonce_) &&
         !registry_.is_first(cfg_.member);
}

void ServerMead::handle_ckpt_delta(CkptDelta&& d) {
  state::Checkpoint c;
  c.epoch = d.epoch;
  c.base_epoch = d.base_epoch;
  c.is_base = d.is_base;
  c.applied = d.applied;
  c.prev_digest = d.prev_digest;
  c.digest = d.digest;
  c.entries = std::move(d.entries);
  if (restoring_) {
    // A gap here is dropped: the restore watchdog's deadline bounds the
    // wait.
    if (ckpt_store_->apply(std::move(c), *app_state_) ==
        state::CheckpointStore::Apply::kApplied) {
      ++stats_.ckpt_applied;
      if (d.is_base) restore_base_seen_ = true;
    }
    return;
  }
  switch (ckpt_store_->apply(std::move(c), *app_state_)) {
    case state::CheckpointStore::Apply::kApplied:
      ++stats_.ckpt_applied;
      break;
    case state::CheckpointStore::Apply::kStale:
      break;
    case state::CheckpointStore::Apply::kGap:
      if (d.nonce == 0) request_resync_soon();
      break;
    case state::CheckpointStore::Apply::kDigestMismatch:
      // Cross-verification failed: our mirror diverged — resync from the
      // authoritative chain.
      digest_mismatches_->add();
      if (d.nonce == 0) request_resync_soon();
      break;
  }
}

// --------------------------------------------------- proactive triggering

void ServerMead::check_thresholds() {
  const double used = usage();
  // NEEDS_ADDRESSING is "a proactive recovery scheme with insufficient
  // advance warning" (5.2.1): the server takes no proactive action and is
  // left to crash; the client-side interceptor masks the failure.
  if (cfg_.scheme != RecoveryScheme::kLocationForward &&
      cfg_.scheme != RecoveryScheme::kMeadMessage) {
    return;
  }

  bool trigger_launch;
  bool trigger_migrate;
  if (cfg_.thresholds.policy == ThresholdPolicy::kAdaptive) {
    // Future-work extension (6): predict time-to-exhaustion from the usage
    // trend and act only when recovery would no longer fit — the paper's
    // "ideal scenario" of delaying recovery to the last safe moment.
    predictor_.observe(proc_->sim().now(), used);
    auto eta = predictor_.time_to_reach(1.0, proc_->sim().now());
    trigger_launch = eta && *eta < cfg_.thresholds.adaptive_launch_lead;
    trigger_migrate = eta && *eta < cfg_.thresholds.adaptive_migrate_lead;
  } else {
    trigger_launch = used >= cfg_.thresholds.launch_fraction;
    trigger_migrate = used >= cfg_.thresholds.migrate_fraction;
  }

  auto& obs = proc_->sim().obs();
  if (!launch_requested_ && trigger_launch) {
    launch_requested_ = true;
    ++stats_.launch_requests;
    launch_requests_.add();
    obs.emit(obs::EventKind::kThresholdCrossed, cfg_.member, "T1", used);
    obs.emit(obs::EventKind::kLaunchRequested, cfg_.member, "", used);
    gc_->post_soon(control_group(cfg_.service),
                   encode_launch_request(LaunchRequest{cfg_.member, used}));
  }
  if (!migrating_ && trigger_migrate) {
    migrate_target_ = registry_.next_after(cfg_.member);
    if (migrate_target_) {
      migrating_ = true;
      migrations_.add();
      obs.emit(obs::EventKind::kThresholdCrossed, cfg_.member, "T2", used);
      obs.emit(obs::EventKind::kMigrateBegin, cfg_.member,
               migrate_target_->member, used);
      proc_->sim().spawn(rejuvenate_after_drain());
    }
    // No fail-over target (sole replica): keep serving; retry on the next
    // reply — rejuvenating now would cause an outage instead of avoiding
    // one.
  }
}

sim::Task<void> ServerMead::rejuvenate_after_drain() {
  // Quiescence: give in-flight redirects time to reach clients, then exit
  // gracefully. The §3.2 lesson: restarting without handing clients off
  // first causes the client-side latency spikes the paper set out to kill.
  const bool alive = co_await proc_->sleep(cfg_.drain_timeout);
  if (!alive) co_return;
  LogLine(proc_->sim().log(), LogLevel::kInfo, "mead")
      << cfg_.member << " rejuvenating (usage " << usage() << ")";
  auto& obs = proc_->sim().obs();
  rejuvenations_.add();
  obs.emit(obs::EventKind::kRejuvenate, cfg_.member, "", usage());
  proc_->exit();
}

// ------------------------------------------------------------ SocketApi

net::Result<int> ServerMead::listen(std::uint16_t port) {
  auto fd = inner_.listen(port);
  if (fd && orb_listen_fd_ < 0) {
    // First listen() is the ORB endpoint — the §4.3 trick ("intercepts the
    // listen() call at the server to determine the port").
    orb_listen_fd_ = fd.value();
    orb_endpoint_ = inner_.local_endpoint(fd.value()).value();
  }
  return fd;
}

sim::Task<net::Result<int>> ServerMead::accept(int listen_fd) {
  auto fd = co_await inner_.accept(listen_fd);
  if (fd && listen_fd == orb_listen_fd_) {
    client_conns_.try_emplace(fd.value());
  }
  co_return fd;
}

sim::Task<net::Result<int>> ServerMead::connect(const net::Endpoint& remote) {
  co_return co_await inner_.connect(remote);
}

sim::Task<net::Result<Bytes>> ServerMead::read(int fd, std::size_t max_bytes,
                                               std::optional<Duration> timeout) {
  auto data = co_await inner_.read(fd, max_bytes, timeout);
  auto* conn = client_conns_.find(fd);
  if (conn == nullptr || !data || data->empty()) co_return data;

  if (!first_request_seen_) {
    first_request_seen_ = true;
    if (on_first_request_) on_first_request_();
  }
  if (cfg_.scheme == RecoveryScheme::kLocationForward) {
    // §4.1: "parse incoming GIOP Request messages to extract the request_id
    // field" — the dominant source of this scheme's 90% RTT overhead.
    conn->request_parser.feed(data.value());
    for (;;) {
      auto frame = conn->request_parser.next();
      if (!frame) break;
      if (frame->header.magic != giop::Magic::kGiop ||
          frame->header.type != giop::MsgType::kRequest) {
        continue;
      }
      const bool alive = co_await proc_->sleep(cfg_.costs.lf_request_parse);
      if (!alive) co_return make_unexpected(net::NetErr::kProcessDead);
      auto req = giop::decode_request(frame->data);
      if (!req) continue;
      ++stats_.requests_seen;
      conn = client_conns_.find(fd);
      if (conn == nullptr) co_return data;
      conn->last_request_id = req->request_id;
      conn->last_key_hash = req->object_key.hash16();
      if (app_state_ && cfg_.state.dedup_cap > 0) {
        note_request_token(*conn, *req);
      }
    }
  } else {
    ++stats_.requests_seen;
    if (app_state_ && cfg_.state.dedup_cap > 0) {
      // Reply dedup needs the request token even when the scheme does not
      // otherwise parse GIOP; token extraction is a tail memcpy in the real
      // interceptor, so no parse cost is charged here.
      conn->request_parser.feed(data.value());
      for (;;) {
        auto frame = conn->request_parser.next();
        if (!frame) break;
        if (frame->header.magic != giop::Magic::kGiop ||
            frame->header.type != giop::MsgType::kRequest) {
          continue;
        }
        auto req = giop::decode_request(frame->data);
        if (req) note_request_token(*conn, *req);
      }
    }
  }
  co_return data;
}

sim::Task<net::Result<std::size_t>> ServerMead::writev(int fd, Bytes data) {
  auto* conn = client_conns_.find(fd);
  if (conn == nullptr) {
    co_return co_await inner_.writev(fd, std::move(data));
  }

  // The event-driven trigger point (§3.1): proactive recovery work happens
  // on the reply path, only while clients are actually connected.
  check_thresholds();

  const std::size_t orig_size = data.size();
  if (migrating_ && migrate_target_) {
    switch (cfg_.scheme) {
      case RecoveryScheme::kLocationForward: {
        const bool alive = co_await proc_->sleep(cfg_.costs.lf_reply_process);
        if (!alive) co_return make_unexpected(net::NetErr::kProcessDead);
        conn = client_conns_.find(fd);
        if (conn == nullptr) {
          co_return make_unexpected(net::NetErr::kBadFd);
        }
        // Validate the stored request against the target via the 16-bit
        // key hash (§4.1 optimization), then substitute the reply.
        auto reply = giop::decode_reply(data);
        const std::uint32_t request_id =
            reply ? reply->request_id : conn->last_request_id;
        auto target = registry_.lookup_by_key_hash(conn->last_key_hash,
                                                   migrate_target_->member);
        const giop::IOR& fwd = target ? target->ior : migrate_target_->ior;
        Bytes substituted = giop::encode_reply(
            giop::make_location_forward_reply(request_id, fwd));
        ++stats_.replies_suppressed;
        auto wrote = co_await inner_.writev(fd, std::move(substituted));
        if (!wrote) co_return wrote;
        co_return orig_size;  // the ORB believes its reply left intact
      }
      case RecoveryScheme::kMeadMessage: {
        if (!conn->redirected) {
          conn->redirected = true;
          ++stats_.failover_piggybacks;
          failover_piggybacks_.add();
          Bytes combined = encode_failover_frame(
              FailoverMsg{migrate_target_->endpoint, migrate_target_->member});
          append_bytes(combined, data);
          data = std::move(combined);
        }
        break;  // fall through to the piggyback-cost charge + write
      }
      default:
        break;
    }
  }

  if (cfg_.scheme == RecoveryScheme::kMeadMessage) {
    // Piggyback bookkeeping runs on every reply (the steady-state ~3%
    // overhead), not just during migration.
    const bool alive = co_await proc_->sleep(cfg_.costs.mead_piggyback);
    if (!alive) co_return make_unexpected(net::NetErr::kProcessDead);
  }
  if (app_state_ && !restoring_ && registry_.is_first(cfg_.member)) {
    bool duplicate = false;
    conn = client_conns_.find(fd);  // the sleeps above may have closed it
    if (cfg_.state.dedup_cap > 0 && conn != nullptr &&
        !conn->pending_tokens.empty()) {
      const auto token = conn->pending_tokens.front();
      conn->pending_tokens.pop_front();
      if (dedup_set_.contains(token)) {
        // A retried request the old primary already applied (its cache
        // reached us with its checkpoints): serve the reply, skip the
        // state mutation — client-visible exactly-once across failover.
        duplicate = true;
        ++stats_.dedup_hits;
        if (dedup_hits_ == nullptr) {
          dedup_hits_ =
              &proc_->sim().obs().metrics().counter("state.dedup.hits");
        }
        dedup_hits_->add();
      } else {
        dedup_insert(token);
      }
    }
    if (!duplicate) {
      // Every served reply mutates the keyed accumulator; the log covers
      // the suffix since the last checkpoint and bounds it via log_cap.
      msg_log_->append(app_state_->apply_next());
      if (msg_log_->full()) proc_->sim().schedule(Duration{0}, [this] { push_checkpoint(); });
    }
  }
  ++stats_.replies_passed;
  auto wrote = co_await inner_.writev(fd, std::move(data));
  if (!wrote) co_return wrote;
  co_return orig_size;
}

sim::Task<net::Result<std::vector<int>>> ServerMead::select(
    std::vector<int> fds, std::optional<Duration> timeout) {
  // The paper adds the GC socket into the server's select() set; our GC
  // intake is a coroutine (same event-driven property), so this is a pure
  // pass-through.
  co_return co_await inner_.select(std::move(fds), timeout);
}

net::Result<void> ServerMead::close(int fd) {
  client_conns_.erase(fd);
  return inner_.close(fd);
}

net::Result<void> ServerMead::dup2(int from_fd, int to_fd) {
  return inner_.dup2(from_fd, to_fd);
}

net::Result<net::Endpoint> ServerMead::local_endpoint(int fd) const {
  return inner_.local_endpoint(fd);
}

net::Result<net::Endpoint> ServerMead::peer_endpoint(int fd) const {
  return inner_.peer_endpoint(fd);
}

}  // namespace mead::core

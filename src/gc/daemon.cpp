#include "gc/daemon.h"

#include <algorithm>
#include <iterator>
#include <vector>

#include "common/log.h"

namespace mead::gc {

namespace {
// Room for a whole frame, so each delivered chunk comes back uncopied.
constexpr std::size_t kReadChunk = 4 + kMaxFrameLen;
constexpr Duration kConnectRetry = milliseconds(10);
// Scaled plane: a destination's pending batch flushes at whichever cap it
// reaches first, or kBatchFlush (δt) after its first frame.
constexpr std::size_t kBatchMaxFrames = 16;
constexpr std::size_t kBatchMaxBytes = 8 * 1024;
constexpr Duration kBatchFlush = microseconds(200);
// Rejoin-probe backoff cap, as a multiple of the base (one heartbeat).
constexpr std::int64_t kRejoinProbeMaxFactor = 8;
// The group index's first size; it doubles whenever it would pass half full.
constexpr std::size_t kMinIndexSize = 16;
constexpr std::uint64_t kSlotIdMask = 0xffffffffu;

// A group index entry: the name hash's high half over slot id + 1.
std::uint64_t index_entry(std::size_t hash, std::uint64_t id) {
  return (hash & ~kSlotIdMask) | (id + 1);
}

// Inserts `x` into the ascending vector `v` unless present; returns whether
// it was inserted.
bool insert_sorted(std::vector<std::uint64_t>& v, std::uint64_t x) {
  auto it = std::lower_bound(v.begin(), v.end(), x);
  if (it != v.end() && *it == x) return false;
  v.insert(it, x);
  return true;
}
}

GcDaemon::GcDaemon(net::ProcessPtr proc, DaemonConfig cfg)
    : proc_(std::move(proc)), cfg_(std::move(cfg)),
      broadcasts_(proc_->sim().obs().metrics().counter("gc.broadcasts")),
      broadcast_bytes_(
          proc_->sim().obs().metrics().counter("gc.broadcast_bytes")),
      frames_(proc_->sim().obs().metrics().counter("gc.frames")),
      batch_frames_(proc_->sim().obs().metrics().counter("gc.batch.frames")),
      batch_coalesced_(
          proc_->sim().obs().metrics().counter("gc.batch.coalesced")),
      shard_stamped_(proc_->sim().obs().metrics().counter(
          "gc.shard." + std::to_string(cfg_.self_index) + ".stamped")) {
  // Every configured daemon is presumed alive until its connection drops;
  // this keeps the sequencer identity stable during startup.
  for (std::size_t i = 0; i < cfg_.daemon_hosts.size(); ++i) {
    alive_daemons_.push_back(i);
  }
  peer_last_seen_.assign(cfg_.daemon_hosts.size(), TimePoint{0});
  index_.assign(kMinIndexSize, 0);
}

bool GcDaemon::mesh_ready() const {
  // Counts the other daemons that are linked, dead, or missing-link peers
  // (reachable bridged, relayed through a linked peer). Every id in these
  // sets is a valid daemon id (handle_frame drops out-of-mesh ids), so only
  // the small sets are scanned.
  const std::size_t n = cfg_.daemon_hosts.size();
  auto unlinked_peer = [&](std::uint64_t i) {
    return i != cfg_.self_index && !peer_fds_.contains(i);
  };
  std::size_t reachable = peer_fds_.size();
  for (std::uint64_t i : dead_daemons_) {
    if (unlinked_peer(i)) ++reachable;
  }
  for (std::uint64_t i : missing_links_) {
    if (unlinked_peer(i) && !dead_daemons_.contains(i)) ++reachable;
  }
  return reachable + 1 >= n;
}

std::size_t GcDaemon::index_pos(std::string_view name,
                                std::size_t hash) const {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const std::uint64_t e = index_[i];
    if (e == 0) return i;
    if (((e ^ hash) & ~kSlotIdMask) == 0 &&
        slots_[(e & kSlotIdMask) - 1].name == name) {
      return i;
    }
  }
}

const GcDaemon::GroupSlot* GcDaemon::find_slot(std::string_view name) const {
  const std::uint64_t e =
      index_[index_pos(name, std::hash<std::string_view>{}(name))];
  return e == 0 ? nullptr : &slots_[(e & kSlotIdMask) - 1];
}

GcDaemon::GroupSlot& GcDaemon::slot(std::string_view name) {
  const std::size_t hash = std::hash<std::string_view>{}(name);
  const std::size_t pos = index_pos(name, hash);
  if (index_[pos] != 0) return slots_[(index_[pos] & kSlotIdMask) - 1];
  GroupSlot& s = slots_.emplace_back();
  s.name = name;
  // FNV-1a over the group key: stamper_for reduces it over the alive set.
  s.stamper_hash = 1469598103934665603ull;
  for (unsigned char c : name) {
    s.stamper_hash ^= c;
    s.stamper_hash *= 1099511628211ull;
  }
  if (slots_.size() * 2 <= index_.size()) {
    index_[pos] = index_entry(hash, slots_.size() - 1);
    return s;
  }
  // Past half full: double the index and enter every slot again.
  index_.assign(index_.size() * 2, 0);
  for (std::uint64_t id = 0; id < slots_.size(); ++id) {
    const std::size_t h = std::hash<std::string_view>{}(slots_[id].name);
    index_[index_pos(slots_[id].name, h)] = index_entry(h, id);
  }
  return s;
}

template <typename Keep>
std::vector<const GcDaemon::GroupSlot*> GcDaemon::groups_by_name(
    Keep keep) const {
  std::vector<const GroupSlot*> out;
  for (const GroupSlot& s : slots_) {
    if (s.present && keep(s)) out.push_back(&s);
  }
  std::sort(out.begin(), out.end(),
            [](const auto* a, const auto* b) { return a->name < b->name; });
  return out;
}

void GcDaemon::on_peer_link_up() {
  if (!missing_links_.empty()) {
    std::erase_if(missing_links_,
                  [this](std::uint64_t p) { return peer_fds_.contains(p); });
    if (missing_links_.empty() && bridge_requested_) {
      // Every link healed for real: stop the relays.
      bridge_requested_ = false;
      direct_broadcast(encode_bridge(BridgeMsg{cfg_.self_index, false}));
    }
  }
  if (mesh_ready()) flush_pending();
}

void GcDaemon::flush_pending() {
  // Foreign submits parked while the mesh formed (stamp_wait_ only ever
  // accumulates at a daemon that owned the stamping role for them).
  auto foreign = std::move(stamp_wait_);
  stamp_wait_.clear();
  for (auto& f : foreign) route_submit(std::move(f), /*from_fd=*/-1);
  // Our own pending submissions. stamp_and_dispatch -> handle_ordered
  // erases the entry from pending_, so iterate over a snapshot of ids.
  for (std::uint64_t id : pending_ids()) route_pending(id);
}

std::vector<std::uint64_t> GcDaemon::pending_ids() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(pending_.size());
  for (const auto& entry : pending_) ids.push_back(entry.first);
  return ids;
}

std::string GcDaemon::reply_group_of(const std::string& member) {
  return "#reply/" + member;
}

bool GcDaemon::is_sequencer() const {
  return sequencer_id() == cfg_.self_index;
}

std::uint64_t GcDaemon::sequencer_id() const {
  return alive_daemons_.front();  // lowest live daemon id
}

std::uint64_t GcDaemon::stamper_for(const GroupSlot& s) const {
  if (!cfg_.plane.sharded || alive_daemons_.empty()) {
    return sequencer_id();
  }
  // The group key's FNV-1a hash reduced over the alive set: a pure function
  // of (group, alive set), so every daemon agrees on each group's stamper
  // without coordination, and ownership reshuffles deterministically when
  // the alive set changes.
  return alive_daemons_[s.stamper_hash % alive_daemons_.size()];
}

std::vector<std::string> GcDaemon::group_members(const std::string& group) const {
  const GroupSlot* s = find_slot(group);
  return s == nullptr ? std::vector<std::string>{} : s->members;
}

std::uint64_t GcDaemon::view_id(const std::string& group) const {
  const GroupSlot* s = find_slot(group);
  return s == nullptr ? 0 : s->view_id;
}

void GcDaemon::start() {
  auto listen = proc_->api().listen(cfg_.port);
  if (!listen) {
    LogLine(proc_->sim().log(), LogLevel::kError, "gc")
        << "daemon " << id() << " cannot listen: " << net::to_string(listen.error());
    return;
  }
  proc_->sim().spawn(accept_loop(listen.value()));
  proc_->sim().spawn(mesh_connect_loop());
  proc_->sim().spawn(heartbeat_loop());
  proc_->sim().spawn(peer_monitor_loop());
}

sim::Task<void> GcDaemon::peer_monitor_loop() {
  for (;;) {
    const bool alive = co_await proc_->sleep(cfg_.heartbeat_interval);
    if (!alive) co_return;
    const TimePoint now = proc_->sim().now();
    std::vector<std::uint64_t> timed_out;
    for (const auto& [peer, fd] : peer_fds_) {
      (void)fd;
      if (now - peer_last_seen_[peer] > cfg_.heartbeat_interval * 3) {
        timed_out.push_back(peer);
      }
    }
    for (auto peer : timed_out) {
      // Silence, not EOF: a partition or message-loss fault. Tear the link
      // down and treat the peer as failed; its members are expelled by the
      // sequencer exactly as for a crash.
      const int fd = peer_fds_[peer];
      conns_.erase(fd);
      (void)proc_->api().close(fd);
      handle_peer_gone(peer, fd);
    }
  }
}

sim::Task<void> GcDaemon::accept_loop(int listen_fd) {
  for (;;) {
    auto fd = co_await proc_->api().accept(listen_fd);
    if (!fd) co_return;  // daemon dying
    conns_.try_emplace(fd.value());
    proc_->sim().spawn(connection_loop(fd.value()));
  }
}

sim::Task<void> GcDaemon::mesh_connect_loop() {
  // Each daemon dials peers with a *higher* index; lower-indexed peers dial
  // us. Retries cover daemons that start later.
  for (std::size_t peer = cfg_.self_index + 1; peer < cfg_.daemon_hosts.size();
       ++peer) {
    int fd = -1;
    for (int attempt = 0; attempt < 200; ++attempt) {
      auto r = co_await proc_->api().connect(
          net::Endpoint{cfg_.daemon_hosts[peer], cfg_.port});
      if (r) {
        fd = r.value();
        break;
      }
      if (r.error() == net::NetErr::kProcessDead) co_return;
      {
        const bool alive_after_wait = co_await proc_->sleep(kConnectRetry);
        if (!alive_after_wait) co_return;
      }
    }
    if (fd < 0) continue;
    ConnState st;
    st.role = ConnState::Role::kPeer;
    st.peer_id = peer;
    conns_.try_emplace(fd, std::move(st));
    peer_fds_[peer] = fd;
    peer_last_seen_[peer] = proc_->sim().now();
    direct_send(fd, encode_peer_hello(PeerHelloMsg{cfg_.self_index}));
    proc_->sim().spawn(connection_loop(fd));
    on_peer_link_up();
  }
}

sim::Task<void> GcDaemon::heartbeat_loop() {
  // On the scaled plane the beacon is a kSeqWatermark instead of a plain
  // heartbeat: same liveness role (any peer frame refreshes
  // peer_last_seen_), plus it carries the stamping frontier that
  // disinterested daemons and takeover heirs ratchet against.
  for (;;) {
    {
      const bool alive_after_wait =
          co_await proc_->sleep(cfg_.heartbeat_interval);
      if (!alive_after_wait) co_return;
    }
    direct_broadcast(
        cfg_.plane.sharded
            ? encode_seq_watermark(SeqWatermarkMsg{cfg_.self_index, next_seq_})
            : encode_heartbeat(HeartbeatMsg{cfg_.self_index}));
  }
}

void GcDaemon::post_write(int fd, Bytes data) {
  frames_.add();
  proc_->sim().schedule(Duration{0}, [api = &proc_->api(), fd,
                                      d = std::move(data)]() mutable {
    (void)api->send(fd, std::move(d));
  });
}

void GcDaemon::mesh_send(int fd, Frame& f) {
  if (cfg_.plane.sharded) return batch_append(fd, f.wire());
  post_write(fd, f.share_wire());
}

void GcDaemon::batch_append(int fd, ByteView frame) {
  Batch& b = batches_.try_emplace(fd);
  append_bytes(b.buf, frame);
  ++b.frames;
  if (b.frames >= kBatchMaxFrames || b.buf.size() >= kBatchMaxBytes) {
    flush_batch(fd);
    return;
  }
  if (!b.flush_armed) {
    b.flush_armed = true;
    arm_batch_flush(fd, b.epoch);
  }
}

void GcDaemon::direct_send(int fd, Bytes data) {
  // Flush the fd's pending batch first so control frames never overtake
  // the ordered traffic batched ahead of them (per-link FIFO).
  if (cfg_.plane.sharded) flush_batch(fd);
  post_write(fd, std::move(data));
}

void GcDaemon::direct_broadcast(Bytes wire, int skip_fd) {
  int last_fd = -1;
  for (const auto& [peer, fd] : peer_fds_) {
    (void)peer;
    if (fd == skip_fd) continue;
    if (last_fd >= 0) direct_send(last_fd, wire.share());
    last_fd = fd;
  }
  if (last_fd >= 0) direct_send(last_fd, std::move(wire));
}

void GcDaemon::flush_batch(int fd) {
  Batch* found = batches_.find(fd);
  if (found == nullptr || found->frames == 0) return;
  Batch& b = *found;
  const std::size_t n = b.frames;
  batch_frames_.add(n);
  if (n > 1) batch_coalesced_.add(n - 1);
  proc_->sim().obs().emit(obs::EventKind::kGcBatchFlush,
                          "daemon/" + std::to_string(id()), {},
                          static_cast<double>(n));
  // A single frame goes out raw — the wrapper would only add bytes.
  Bytes out = n == 1 ? std::move(b.buf) : wrap_frame_batch(b.buf);
  b.buf.clear();
  b.frames = 0;
  ++b.epoch;
  b.flush_armed = false;
  post_write(fd, std::move(out));
}

void GcDaemon::arm_batch_flush(int fd, std::uint64_t epoch) {
  // A zero-delay hop, then the δt timer: the event pair a spawned
  // sleep-then-flush coroutine would queue, at the same sequence numbers.
  proc_->sim().schedule(Duration{0}, [this, fd, epoch] {
    proc_->sim().schedule(kBatchFlush, [this, fd, epoch] {
      if (!proc_->alive()) return;
      const Batch* b = batches_.find(fd);
      if (b == nullptr || b->epoch != epoch) return;
      flush_batch(fd);
    });
  });
}

sim::Task<void> GcDaemon::connection_loop(int fd) {
  for (;;) {
    auto data = co_await proc_->api().read(fd, kReadChunk);
    if (!data || data->empty()) break;  // EOF or error
    ConnState* st = conns_.find(fd);
    if (st == nullptr) co_return;
    st->framer.feed(std::move(data.value()));
    for (;;) {
      // Re-find each iteration: handling a frame can erase this fd's entry.
      st = conns_.find(fd);
      if (st == nullptr) co_return;
      auto frame = st->framer.next();
      if (!frame) break;
      handle_frame(fd, *frame);
    }
  }
  // Connection ended: client death or peer daemon death.
  const auto st = conns_.take(fd);
  if (!st) co_return;
  (void)proc_->api().close(fd);
  if (st->role == ConnState::Role::kClient) handle_client_gone(fd);
  if (st->role == ConnState::Role::kPeer) handle_peer_gone(st->peer_id, fd);
}

void GcDaemon::handle_frame(int fd, Frame& frame) {
  ConnState* found = conns_.find(fd);
  if (found == nullptr) return;
  ConnState& st = *found;
  // A kPeer link's id is a valid daemon id: kPeerHello checked it.
  if (st.role == ConnState::Role::kPeer) {
    peer_last_seen_[st.peer_id] = proc_->sim().now();
  } else if (frame.op > Op::kPeerHello) {
    // Mesh ops travel only on peer links, and every peer link opens with
    // kPeerHello: from a client or unintroduced link they are ignored.
    return;
  }

  switch (frame.op) {
    case Op::kHello: {
      auto m = decode_hello(frame.payload);
      if (!m) return;
      st.role = ConnState::Role::kClient;
      st.client_name = m->name;
      client_fds_[m->name] = fd;
      // Auto-join the member's reply group so others can address it.
      const std::string reply = reply_group_of(m->name);
      st.joined.insert(reply);
      submit(PayloadKind::kJoin, reply, m->name);
      break;
    }
    case Op::kJoin: {
      auto m = decode_group(frame.payload);
      if (!m || st.role != ConnState::Role::kClient) return;
      st.joined.insert(m->group);
      submit(PayloadKind::kJoin, m->group, st.client_name);
      break;
    }
    case Op::kLeave: {
      auto m = decode_group(frame.payload);
      if (!m || st.role != ConnState::Role::kClient) return;
      st.joined.erase(m->group);
      submit(PayloadKind::kLeave, m->group, st.client_name);
      break;
    }
    case Op::kMcast: {
      auto m = decode_mcast(frame.payload);
      if (!m || st.role != ConnState::Role::kClient) return;
      submit(PayloadKind::kData, m->group, st.client_name, m->payload);
      break;
    }
    case Op::kPeerHello: {
      auto m = decode_peer_hello(frame.payload);
      if (!m || !in_mesh(m->daemon_id) || m->daemon_id == cfg_.self_index) {
        return;
      }
      st.role = ConnState::Role::kPeer;
      st.peer_id = m->daemon_id;
      if (dead_daemons_.contains(m->daemon_id)) {
        // A peer we declared dead dialed back in: the heal side of a
        // partition fault. Bring it back to life on this link.
        resurrect_peer(m->daemon_id, fd);
        break;
      }
      // Asymmetric detection can leave a previous link to this peer open
      // (it expelled us and redialed before we timed it out); the fresh
      // link supersedes it.
      auto old = peer_fds_.find(m->daemon_id);
      if (old != peer_fds_.end() && old->second != fd) {
        conns_.erase(old->second);
        (void)proc_->api().close(old->second);
      }
      peer_fds_[m->daemon_id] = fd;
      peer_last_seen_[m->daemon_id] = proc_->sim().now();
      on_peer_link_up();
      break;
    }
    case Op::kSubmit:
      route_submit(std::move(frame), fd);
      break;
    case Op::kRejoin: {
      auto m = decode_rejoin(frame.payload);
      if (!m) return;
      handle_rejoin(fd, m.value());
      break;
    }
    case Op::kStateSync: {
      auto m = decode_state_sync(frame.payload);
      if (!m) return;
      handle_state_sync(fd, m.value());
      break;
    }
    case Op::kAliveSet: {
      auto m = decode_alive_set(frame.payload);
      if (!m) return;
      adopt_alive_set(m->alive, fd);
      break;
    }
    case Op::kOrdered: {
      auto m = decode_ordered_like(frame.payload);
      if (!m) return;
      // Bridge targets get exactly the ordered traffic we accept, and a
      // forwarded duplicate bouncing back can never re-forward (it is no
      // longer fresh here).
      const std::uint64_t from_peer = st.peer_id;
      const bool fresh = handle_ordered(m.value(), slot(m->group));
      if (fresh && !bridge_targets_.empty()) {
        for (std::uint64_t target : bridge_targets_) {
          if (target == from_peer) continue;
          auto pfd = peer_fds_.find(target);
          if (pfd != peer_fds_.end()) mesh_send(pfd->second, frame);
        }
      }
      break;
    }
    case Op::kSeqWatermark: {
      auto m = decode_seq_watermark(frame.payload);
      if (!m || !in_mesh(m->daemon_id)) return;
      // Ratchet: our counter never falls below any peer's announced
      // frontier, so whichever daemon inherits a group on the next alive-set
      // change already stamps above everything its previous owner issued.
      std::uint64_t& wm = peer_watermarks_[m->daemon_id];
      wm = std::max(wm, m->next_seq);
      next_seq_ = std::max(next_seq_, m->next_seq);
      break;
    }
    case Op::kFrameBatch: {
      auto frames = decode_frame_batch(frame.payload);
      if (!frames) return;
      // Unpack and handle in order; batches never nest, so this recursion
      // is depth one.
      for (Frame& f : frames.value()) handle_frame(fd, f);
      break;
    }
    case Op::kBridge: {
      auto m = decode_bridge(frame.payload);
      if (!m || !in_mesh(m->daemon_id)) return;
      if (m->on) {
        bridge_targets_.insert(m->daemon_id);
      } else {
        bridge_targets_.erase(m->daemon_id);
      }
      break;
    }
    case Op::kHeartbeat:
      break;  // liveness only; EOF is the real detector in this network
    case Op::kDeliver:
    case Op::kView:
      break;  // daemon never receives these
  }
}

void GcDaemon::submit(PayloadKind kind, std::string_view group,
                      std::string_view member, ByteView payload) {
  OrderedView m;
  m.kind = kind;
  m.group = group;
  m.member = member;
  m.payload = payload;
  m.origin = cfg_.self_index;
  m.msg_id = next_msg_id_++;
  pending_.emplace(m.msg_id, Frame(Op::kSubmit, encode_submit(m)));
  if (!mesh_ready()) return;  // flushed by on_peer_link_up()
  // If the stamper link is down, handle_peer_gone will resubmit.
  route_pending(m.msg_id);
}

GcDaemon::Route GcDaemon::route(const GroupSlot& s, Frame& f, int from_fd) {
  // Only the group's stamper stamps (the global sequencer in legacy mode).
  // A submit that reaches the wrong daemon means the sender's notion of the
  // stamper is stale (a rejoin or takeover just reseated it); relay toward
  // the daemon we believe owns it rather than dropping, so the origin need
  // not wait for a resubmit cycle. Before our mesh is complete, stamping
  // would lose the dispatch to not-yet-connected daemons, so park it.
  const std::uint64_t owner = stamper_for(s);
  if (owner != cfg_.self_index) {
    auto it = peer_fds_.find(owner);
    if (it == peer_fds_.end() && !missing_links_.empty()) {
      // Bridged regime: hop the submit toward the unlinked stamper via our
      // lowest-id linked peer — never back where it came from. Ids shrink
      // toward the sequencer hop by hop.
      it = peer_fds_.begin();
      if (it != peer_fds_.end() && it->second == from_fd) {
        it = peer_fds_.end();
      }
    }
    if (it != peer_fds_.end()) mesh_send(it->second, f);
    return Route::kSent;
  }
  return mesh_ready() ? Route::kStamp : Route::kPark;
}

void GcDaemon::route_submit(Frame f, int from_fd) {
  auto m = decode_ordered_like(f.payload);
  if (!m) return;
  GroupSlot& s = slot(m->group);
  switch (route(s, f, from_fd)) {
    case Route::kSent:
      return;
    case Route::kPark:
      stamp_wait_.push_back(std::move(f));
      return;
    case Route::kStamp:
      stamp_and_dispatch(f, s);
      return;
  }
}

void GcDaemon::route_pending(std::uint64_t msg_id) {
  auto it = pending_.find(msg_id);
  if (it == pending_.end()) return;
  Frame& f = it->second;
  GroupSlot& s = slot(decode_ordered_like(f.payload)->group);  // ours: valid
  switch (route(s, f, /*from_fd=*/-1)) {
    case Route::kSent:
      return;
    case Route::kPark:
      stamp_wait_.emplace_back(Op::kSubmit, f.share_wire());
      return;
    case Route::kStamp:
      stamp_pending(msg_id);
      return;
  }
}

void GcDaemon::stamp_pending(std::uint64_t msg_id) {
  auto node = pending_.extract(msg_id);
  if (node.empty()) return;
  Frame& f = node.mapped();
  GroupSlot& s = slot(decode_ordered_like(f.payload)->group);
  if (stamp_and_dispatch(f, s)) return;
  f.restamp(Op::kSubmit, 0);
  pending_.insert(std::move(node));
}

bool GcDaemon::stamp_and_dispatch(Frame& f, GroupSlot& s) {
  f.restamp(Op::kOrdered, next_seq_++);
  const OrderedView m = decode_ordered_like(f.payload).value();
  const ByteView wire = f.wire();
  // One broadcast per ordered message, recorded at the stamper — the
  // event-level view of the Figure 5 bandwidth measurement.
  auto& obs = proc_->sim().obs();
  broadcasts_.add();
  broadcast_bytes_.add(wire.size());
  obs.emit(obs::EventKind::kGcBroadcast, "daemon/" + std::to_string(id()),
           std::string(m.group), static_cast<double>(wire.size()));
  if (cfg_.plane.sharded) shard_stamped_.add();

  bool scoped = cfg_.plane.sharded && m.kind == PayloadKind::kData;
  std::vector<std::uint64_t> interested;
  if (scoped) {
    // The interest set, ascending: every daemon hosting a member of the
    // group, plus the origin (which must see its message ordered to clear
    // pending_ — reply-group sends come from non-members). Membership
    // frames are never scoped, so members/homes are globally replicated
    // and every daemon can compute this set.
    interested = s.homes;
    interested.push_back(m.origin);
    std::sort(interested.begin(), interested.end());
    interested.erase(std::unique(interested.begin(), interested.end()),
                     interested.end());
    std::erase(interested, cfg_.self_index);
    // Partial-partition fallback: if any interested daemon is alive but
    // unlinked from us, degrade to all linked peers so the bridge relays
    // can forward it (first-seen forwarding + dedupe absorb duplicates).
    for (std::uint64_t d : interested) {
      if (!dead_daemons_.contains(d) && !peer_fds_.contains(d)) {
        scoped = false;
        break;
      }
    }
  }
  // The frame stays put for handle_ordered's views; the recipients share
  // its block.
  if (scoped) {
    for (std::uint64_t d : interested) {
      auto fd = peer_fds_.find(d);
      if (fd != peer_fds_.end()) mesh_send(fd->second, f);
    }
  } else {
    for (auto& [peer, fd] : peer_fds_) {
      (void)peer;
      mesh_send(fd, f);
    }
  }
  return handle_ordered(m, s);
}

template <typename Encode>
void GcDaemon::write_to_local(const GroupSlot& g, Encode encode) {
  int last_fd = -1;
  Bytes wire;
  for (std::size_t i = 0; i < g.members.size(); ++i) {
    if (g.homes[i] != cfg_.self_index) continue;  // member is remote
    auto fd = client_fds_.find(g.members[i]);
    if (fd == client_fds_.end()) continue;  // its client is gone
    if (last_fd < 0) {
      wire = encode();
    } else {
      post_write(last_fd, wire.share());
    }
    last_fd = fd->second;
  }
  if (last_fd >= 0) post_write(last_fd, std::move(wire));
}

bool GcDaemon::handle_ordered(const OrderedView& m, GroupSlot& s) {
  // At-least-once dedupe: msg ids are strictly increasing and FIFO along
  // each (group, origin) stamping path, so a high-water mark per path
  // suffices (see GroupSlot::done). On the legacy plane every message
  // crosses the one sequencer, so ids are FIFO per origin and thus per
  // (group, origin) too.
  auto mark = std::find_if(s.done.begin(), s.done.end(),
                           [&](const auto& e) { return e.first == m.origin; });
  if (mark == s.done.end()) {
    s.done.emplace_back(m.origin, 0);
    mark = std::prev(s.done.end());
  }
  if (m.msg_id <= mark->second) return false;
  mark->second = m.msg_id;
  if (m.origin == cfg_.self_index) pending_.erase(m.msg_id);
  ++delivered_count_;

  s.present = true;
  if (m.kind == PayloadKind::kData) {
    write_to_local(s, [&] { return encode_deliver(m); });
    return true;
  }
  // Membership: a join of a member or a leave of a non-member changes no view.
  const bool join = m.kind == PayloadKind::kJoin;
  auto it = std::find(s.members.begin(), s.members.end(), m.member);
  if (join == (it != s.members.end())) return true;
  if (join) {
    s.members.emplace_back(m.member);
    s.homes.push_back(m.origin);
    if (m.origin == cfg_.self_index && s.local_members++ == 0) {
      local_slots_.push_back(&s);
    }
  } else {
    const auto home = s.homes.begin() + (it - s.members.begin());
    if (*home == cfg_.self_index && --s.local_members == 0) {
      std::erase(local_slots_, &s);
    }
    s.homes.erase(home);
    s.members.erase(it);
  }
  s.view_id = m.seq;
  write_to_local(s, [&] {
    return encode_view(ViewMsg{std::string(m.group), s.view_id, s.members});
  });
  return true;
}

void GcDaemon::handle_client_gone(int fd) {
  std::string name;
  for (auto it = client_fds_.begin(); it != client_fds_.end(); ++it) {
    if (it->second == fd) {
      name = it->first;
      client_fds_.erase(it);
      break;
    }
  }
  if (name.empty()) return;
  // The member's groups: every group that lists it with our daemon as home,
  // so only the slots with a member homed here. Leaves go in name order.
  std::vector<std::string> groups;
  for (const GroupSlot* s : local_slots_) {
    for (std::size_t i = 0; i < s->members.size(); ++i) {
      if (s->members[i] != name) continue;
      if (s->homes[i] == cfg_.self_index) groups.push_back(s->name);
      break;
    }
  }
  std::sort(groups.begin(), groups.end());
  proc_->sim().spawn(delayed_member_death(std::move(name), std::move(groups)));
}

sim::Task<void> GcDaemon::delayed_member_death(std::string member,
                                               std::vector<std::string> groups) {
  // Models Spread's variable failure-detection latency (race window,
  // paper 5.2.1): usually fast, occasionally slow (token-loss path).
  const bool slow = cfg_.detect_slow_probability > 0 &&
                    proc_->sim().rng().chance(cfg_.detect_slow_probability);
  const Duration lo = slow ? cfg_.detect_slow_min : cfg_.detect_min;
  const Duration hi = slow ? cfg_.detect_slow_max : cfg_.detect_max;
  if (hi > Duration{0}) {
    const auto ns = proc_->sim().rng().uniform_int(lo.ns(), hi.ns());
    const bool alive_after_wait = co_await proc_->sleep(Duration{ns});
    if (!alive_after_wait) co_return;
  }
  for (const auto& g : groups) submit(PayloadKind::kLeave, g, member);
}

void GcDaemon::handle_peer_gone(std::uint64_t peer_id, int fd) {
  auto cur = peer_fds_.find(peer_id);
  if (cur != peer_fds_.end() && cur->second != fd) return;  // stale link
  if (dead_daemons_.contains(peer_id)) return;  // EOF after a heartbeat
                                                // timeout already handled it
  const bool sequencer_died = (sequencer_id() == peer_id);
  std::erase(alive_daemons_, peer_id);
  dead_daemons_.insert(peer_id);
  pending_merge_.erase(peer_id);
  peer_fds_.erase(peer_id);

  if (cfg_.plane.sharded) {
    // Sharded takeover: every daemon ratchets past the dead peer's last
    // announced stamping frontier (plus the takeover jump), so whichever
    // daemon the hash now assigns each of its groups to already stamps
    // above everything the old owner is known to have issued. Then re-route
    // pending: ownership of any group may have moved — possibly to us
    // (snapshot: dispatch erases entries from pending_).
    auto wm = peer_watermarks_.find(peer_id);
    bump_seq_past(wm == peer_watermarks_.end() ? 0 : wm->second);
    peer_watermarks_.erase(peer_id);
    for (std::uint64_t id : pending_ids()) route_pending(id);
  } else if (sequencer_died && is_sequencer()) {
    // Takeover: jump the sequence domain so stale in-flight stamps can't
    // collide, then stamp our unordered messages (snapshot: dispatch
    // erases entries from pending_).
    next_seq_ += 1024;
    for (std::uint64_t id : pending_ids()) stamp_pending(id);
  } else if (sequencer_died) {
    // Resubmit pending to the new sequencer.
    auto it = peer_fds_.find(sequencer_id());
    if (it != peer_fds_.end()) {
      for (auto& [id, f] : pending_) mesh_send(it->second, f);
    }
  }

  // The (new) stamper of each group expels members hosted on any dead
  // daemon — not just the latest one: a daemon that inherits the role only
  // on the *second* peer death (a multi-way split) still owes the
  // expulsions the earlier death would have triggered. In legacy mode the
  // stamper of every group is the global sequencer.
  // Groups and each group's orphans go in name order.
  auto stamped_here = [this](const GroupSlot& s) {
    return stamper_for(s) == cfg_.self_index;
  };
  for (const GroupSlot* g : groups_by_name(stamped_here)) {
    std::vector<std::string> orphans;
    for (std::size_t i = 0; i < g->members.size(); ++i) {
      if (dead_daemons_.contains(g->homes[i])) orphans.push_back(g->members[i]);
    }
    std::sort(orphans.begin(), orphans.end());
    for (const auto& member : orphans) {
      submit(PayloadKind::kLeave, g->name, member);
    }
  }

  // Start re-probing: a partition heal never produces an event we could
  // react to, so the only way back into the mesh is periodic redial. Lazy
  // spawn keeps fault-free runs free of extra timers.
  if (!probe_running_) {
    probe_running_ = true;
    proc_->sim().spawn(rejoin_probe_loop());
  }
}

sim::Task<void> GcDaemon::rejoin_probe_loop() {
  const Duration base = cfg_.heartbeat_interval;
  const Duration cap = base * kRejoinProbeMaxFactor;
  auto& probes = proc_->sim().obs().metrics().counter("gc.rejoin_probes");
  // The higher-indexed side of each severed pair dials: the expelled
  // daemon probing back toward the (lower-indexed) sequencer. This mirrors
  // a fixed-direction dial convention like mesh formation's, so a healed
  // pair never cross-dials.
  auto probe_worthy = [this] {
    for (std::uint64_t peer : dead_daemons_) {
      if (peer < cfg_.self_index && !unreachable_peers_.contains(peer)) {
        return true;
      }
    }
    // Bridged regime: an alive-but-unlinked daemon is probed the same way
    // until the direct link heals and the relays can stop.
    for (std::uint64_t peer : missing_links_) {
      if (peer < cfg_.self_index && !unreachable_peers_.contains(peer)) {
        return true;
      }
    }
    return false;
  };
  Duration wait = base;
  while (probe_worthy()) {
    {
      const bool alive_after_wait = co_await proc_->sleep(wait);
      if (!alive_after_wait) co_return;
    }
    bool progress = false;
    bool sent_rejoin = false;
    bool round_recorded = false;
    std::vector<std::uint64_t> targets(dead_daemons_.begin(),
                                       dead_daemons_.end());
    targets.insert(targets.end(), missing_links_.begin(), missing_links_.end());
    for (std::uint64_t peer : targets) {
      if (peer >= cfg_.self_index) continue;
      if (unreachable_peers_.contains(peer)) continue;
      const bool was_dead = dead_daemons_.contains(peer);
      if (!was_dead && !missing_links_.contains(peer)) continue;  // came back
      if (peer_fds_.contains(peer)) continue;  // link landed this round
      if (!round_recorded) {
        round_recorded = true;
        rejoin_probe_times_.push_back(proc_->sim().now());
      }
      probes.add();
      auto r = co_await proc_->api().connect(
          net::Endpoint{cfg_.daemon_hosts[peer], cfg_.port});
      if (!r) {
        if (r.error() == net::NetErr::kProcessDead) co_return;
        // Refused = the node is reachable but no daemon listens: it truly
        // crashed and (in this world) never restarts. A timeout means the
        // partition still holds — keep trying.
        if (r.error() == net::NetErr::kConnRefused) {
          unreachable_peers_.insert(peer);
        }
        continue;
      }
      const int fd = r.value();
      ConnState st;
      st.role = ConnState::Role::kPeer;
      st.peer_id = peer;
      conns_.try_emplace(fd, std::move(st));
      direct_send(fd, encode_peer_hello(PeerHelloMsg{cfg_.self_index}));
      proc_->sim().spawn(connection_loop(fd));
      resurrect_peer(peer, fd);
      // Ask the first recovered peer — the lowest dead id, our best
      // candidate for the authoritative side's sequencer — to arbitrate.
      // A healed missing link needs no arbitration: both sides already
      // share the merged domain, the link itself was all that was missing.
      if (was_dead && !sent_rejoin) {
        send_rejoin(fd);
        sent_rejoin = true;
      }
      progress = true;
    }
    wait = progress ? base : std::min(wait * 2, cap);
  }
  probe_running_ = false;
}

void GcDaemon::resurrect_peer(std::uint64_t peer_id, int fd) {
  // A dead peer coming back is the other side of a partition: its group
  // state belongs to a foreign sequencing domain until arbitration picks a
  // winner. Keep it out of the island stats so the pending merge can't
  // inflate our side of that arbitration. (A missing-link peer was already
  // merged — only the link was absent — so it stays counted.)
  if (dead_daemons_.contains(peer_id)) pending_merge_.insert(peer_id);
  dead_daemons_.erase(peer_id);
  insert_sorted(alive_daemons_, peer_id);
  peer_fds_[peer_id] = fd;
  peer_last_seen_[peer_id] = proc_->sim().now();
  on_peer_link_up();
}

std::uint64_t GcDaemon::island_count() const {
  std::uint64_t n = 0;
  for (std::uint64_t id : alive_daemons_) {
    if (!pending_merge_.contains(id)) ++n;
  }
  return n;
}

std::uint64_t GcDaemon::island_sequencer() const {
  for (std::uint64_t id : alive_daemons_) {  // ascending: lowest first
    if (!pending_merge_.contains(id)) return id;
  }
  return cfg_.self_index;
}

void GcDaemon::send_rejoin(int fd) {
  ConnState* st = conns_.find(fd);
  if (st == nullptr || st->rejoin_sent) return;
  st->rejoin_sent = true;
  direct_send(fd, encode_rejoin(RejoinMsg{cfg_.self_index, next_seq_,
                                          island_count(),
                                          island_sequencer()}));
}

void GcDaemon::bump_seq_past(std::uint64_t foreign_next_seq) {
  // Same jump as sequencer takeover: keep our stamps strictly above every
  // stamp the foreign domain may have issued, so client-visible view ids
  // stay monotone across the merge.
  next_seq_ = std::max(next_seq_, foreign_next_seq + 1024);
}

void GcDaemon::handle_rejoin(int fd, const RejoinMsg& m) {
  const ConnState* st = conns_.find(fd);
  if (st == nullptr) return;
  // Only peer links reach here (handle_frame), so a sender other than the
  // rejoiner is a relay.
  if (st->peer_id != m.daemon_id) {
    // A peer forwarded a rejoiner's request because we sequence: only the
    // sequence-domain bump applies here — the link (and the snapshot reply)
    // belong to the relaying daemon.
    if (cfg_.plane.sharded || is_sequencer()) bump_seq_past(m.next_seq);
    return;
  }
  if (dead_daemons_.contains(m.daemon_id)) resurrect_peer(m.daemon_id, fd);
  // Arbitration: the side with the larger island is authoritative; ties go
  // to the side whose sequencer has the lower id. The loser adopts the
  // winner's group state and resubmits its local clients on top. Compare
  // pre-merge island stats, not the raw alive set — the sender is already
  // resurrected on our side (and we on theirs), and counting the unmerged
  // arrivals would let both sides claim the majority.
  const std::uint64_t my_count = island_count();
  const bool authority = my_count != m.alive_count
                             ? my_count > m.alive_count
                             : island_sequencer() <= m.sequencer_id;
  if (authority) {
    // The rejoiner's island merges into our domain.
    pending_merge_.erase(m.daemon_id);
    if (cfg_.plane.sharded) {
      // Every daemon stamps on the scaled plane: bump ourselves and beacon
      // the bumped frontier so the rest of our island ratchets too (the
      // periodic watermark would get there anyway; this closes the gap).
      bump_seq_past(m.next_seq);
      direct_broadcast(
          encode_seq_watermark(SeqWatermarkMsg{cfg_.self_index, next_seq_}));
    } else if (is_sequencer()) {
      bump_seq_past(m.next_seq);
    } else {
      // Route the domain bump to the daemon that actually sequences.
      auto seq_fd = peer_fds_.find(sequencer_id());
      if (seq_fd != peer_fds_.end()) {
        direct_send(seq_fd->second, encode_rejoin(m));
      }
    }
    direct_send(fd, encode_state_sync(snapshot_state()));
    // Gossip the merged alive set to the rest of our island: peers further
    // down a healed chain never exchanged a Rejoin with the new arrival,
    // yet must learn the mesh now extends past their own links.
    direct_broadcast(encode_alive_set(AliveSetMsg{alive_daemons_}),
                     /*skip_fd=*/fd);
  } else {
    // Our island's unordered traffic belongs to an abandoned domain.
    pending_.clear();
    stamp_wait_.clear();
    send_rejoin(fd);
  }
}

StateSyncMsg GcDaemon::snapshot_state() const {
  StateSyncMsg m;
  m.next_seq = next_seq_;
  for (const GroupSlot* g :
       groups_by_name([](const GroupSlot&) { return true; })) {
    GroupSnapshot& snap = m.groups.emplace_back();
    snap.group = g->name;
    snap.view_id = g->view_id;
    snap.members = g->members;
    snap.homes = g->homes;
  }
  m.alive = alive_daemons_;
  return m;
}

void GcDaemon::adopt_alive_set(const std::vector<std::uint64_t>& alive,
                               int source_fd) {
  bool changed = false;
  for (std::uint64_t a : alive) {
    if (a == cfg_.self_index || !in_mesh(a)) continue;
    // The sender vouches these daemons are merged into the domain we now
    // share with it, so they stop being pending arrivals.
    pending_merge_.erase(a);
    dead_daemons_.erase(a);
    if (insert_sorted(alive_daemons_, a)) changed = true;
    if (!peer_fds_.contains(a) && missing_links_.insert(a).second) {
      changed = true;
    }
  }
  if (!changed) return;
  // Re-gossip on growth only, so chains of any length converge and the
  // traffic terminates (the union is monotone and bounded).
  direct_broadcast(encode_alive_set(AliveSetMsg{alive_daemons_}), source_fd);
  if (missing_links_.empty()) return;
  // Bridged regime: ask every linked peer to relay ordered traffic to us
  // and keep probing for the real link (requests are idempotent).
  bridge_requested_ = true;
  direct_broadcast(encode_bridge(BridgeMsg{cfg_.self_index, true}));
  if (!probe_running_) {
    probe_running_ = true;
    proc_->sim().spawn(rejoin_probe_loop());
  }
  if (mesh_ready()) flush_pending();
}

void GcDaemon::handle_state_sync(int fd, const StateSyncMsg& m) {
  // Adopt the authority's group state wholesale, and keep our own stamps
  // above its domain in case we are (or become) the merged sequencer.
  bump_seq_past(m.next_seq);
  if (cfg_.plane.sharded) {
    // Our island-mates only hear about the merge via kAliveSet, which
    // carries no counter; beacon the bumped frontier so they ratchet now
    // rather than one watermark interval from now.
    direct_broadcast(
        encode_seq_watermark(SeqWatermarkMsg{cfg_.self_index, next_seq_}));
  }
  for (GroupSlot& g : slots_) {  // the hash and dedupe marks stay
    g.present = false;
    g.members.clear();
    g.homes.clear();
    g.view_id = 0;
  }
  for (const auto& snap : m.groups) {
    GroupSlot& g = slot(snap.group);
    g.present = true;
    g.members = snap.members;
    g.homes = snap.homes;
    g.homes.resize(g.members.size());  // a short list homes the rest at 0
    g.view_id = snap.view_id;
  }
  // The adopted homes decide which slots a client death walks.
  local_slots_.clear();
  for (GroupSlot& g : slots_) {
    g.local_members = static_cast<std::uint32_t>(
        std::count(g.homes.begin(), g.homes.end(), cfg_.self_index));
    if (g.local_members > 0) local_slots_.push_back(&g);
  }
  ++rejoins_;
  proc_->sim().obs().metrics().counter("gc.rejoins").add();
  proc_->sim().obs().emit(obs::EventKind::kDaemonRejoin,
                          "daemon/" + std::to_string(id()), {},
                          static_cast<double>(m.groups.size()));
  // The authority's alive set describes the merged mesh. Any daemon in it
  // we have no link to is behind a still-standing partition segment (a
  // 3+-way split healed only partially): believe it alive, run bridged,
  // and gossip the merged set onward so the rest of our old island learns.
  adopt_alive_set(m.alive, fd);
  // Iterative healing: a later heal may bring yet another island to this
  // link, so allow a fresh arbitration round on every peer link.
  conns_.for_each([](int, ConnState& st) {
    if (st.role == ConnState::Role::kPeer) st.rejoin_sent = false;
  });
  // Re-enter our local clients: the authority expelled them while we were
  // silent. Joins are idempotent, so a client that was never expelled just
  // sees no new view; an expelled one gets a fresh (higher) view id.
  conns_.for_each([this](int, ConnState& st) {
    if (st.role != ConnState::Role::kClient) return;
    for (const auto& gname : st.joined) {
      submit(PayloadKind::kJoin, gname, st.client_name);
    }
  });
}

}  // namespace mead::gc

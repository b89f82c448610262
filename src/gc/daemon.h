// Group-communication daemon — the per-node component of the Spread
// substitute. One daemon runs on every node (default port 4803, Spread's
// actual port); application processes connect to their local daemon.
//
// Protocol summary:
//  * Total order: the lowest-indexed live daemon acts as sequencer. Every
//    multicast / membership change is forwarded to it (kSubmit), stamped
//    with a global sequence number, and broadcast to all daemons (kOrdered),
//    which deliver to their local members in arrival order (FIFO from the
//    sequencer over reliable in-order connections).
//  * Membership: joins/leaves travel through the same total order, so every
//    daemon applies membership changes at the same point in the message
//    stream (view-synchrony as the paper's schemes need it). Views list
//    members in join order.
//  * Failure detection: a dying process resets its daemon connection (EOF);
//    the daemon then submits a leave for each group. `detect_min/max` model
//    Spread's variable detection latency — the race window behind the
//    paper's 25% client-failure rate in the NEEDS_ADDRESSING_MODE scheme
//    (§5.2.1). Daemon-daemon failures are detected the same way, with the
//    surviving sequencer expelling members hosted on the dead daemon.
//  * At-least-once submission: a daemon retains submissions until it sees
//    them ordered; on sequencer takeover it resubmits, and per-(group,
//    origin) msg ids make delivery idempotent.
//
// Known divergence from Spread: messages in flight during a sequencer crash
// may be ordered differently by the successor (Spread's token protocol is
// stronger). Stable-view ordering, which the experiments rely on, is total.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gc/wire.h"
#include "net/fd_table.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace mead::gc {

inline constexpr std::uint16_t kDefaultDaemonPort = 4803;

/// The GC plane (DESIGN.md §3.8): one choice between two configurations.
/// Default constructed is the legacy single-sequencer broadcast plane — the
/// paper plane, whose seed traces stay byte-identical; `scaled()` is the
/// scale plane.
struct PlaneOptions {
  PlaneOptions() = default;

  /// Scale plane: stamping is partitioned across live daemons by a pure
  /// hash of the group key (total order stays per-group; cross-group order
  /// becomes daemon-local), stamped kData frames go only to daemons hosting
  /// a member of the group (plus the origin; membership frames stay
  /// broadcast), and mesh writes coalesce per destination into bounded
  /// kFrameBatch frames. Off: one global sequencer broadcasts everything.
  bool sharded = false;

  static PlaneOptions scaled() {
    PlaneOptions p;
    p.sharded = true;
    return p;
  }
};

struct DaemonConfig {
  DaemonConfig() = default;

  /// Hosts running daemons; the index in this vector is the daemon id.
  std::vector<std::string> daemon_hosts;
  std::size_t self_index = 0;
  std::uint16_t port = kDefaultDaemonPort;
  Duration heartbeat_interval = milliseconds(500);
  /// Member-death detection latency, bimodal like Spread's: with
  /// probability (1 - detect_slow_probability) a fast uniform
  /// [detect_min, detect_max] draw; otherwise a slow uniform
  /// [detect_slow_min, detect_slow_max] draw (token-loss/timeout path).
  /// All zeros = immediate detection.
  Duration detect_min{0};
  Duration detect_max{0};
  double detect_slow_probability = 0.0;
  Duration detect_slow_min{0};
  Duration detect_slow_max{0};
  /// Legacy (default) or scaled GC plane.
  PlaneOptions plane;
};

class GcDaemon {
 public:
  GcDaemon(net::ProcessPtr proc, DaemonConfig cfg);
  GcDaemon(const GcDaemon&) = delete;
  GcDaemon& operator=(const GcDaemon&) = delete;

  /// Spawns the daemon's accept / mesh / heartbeat coroutines.
  void start();

  // ---- introspection (tests, experiment harness) ----
  [[nodiscard]] std::uint64_t id() const { return cfg_.self_index; }
  [[nodiscard]] bool is_sequencer() const;
  [[nodiscard]] std::uint64_t messages_delivered() const { return delivered_count_; }
  /// Current members of a group in join order (empty if unknown group).
  [[nodiscard]] std::vector<std::string> group_members(const std::string& group) const;
  [[nodiscard]] std::uint64_t view_id(const std::string& group) const;
  [[nodiscard]] bool alive() const { return proc_->alive(); }
  [[nodiscard]] net::Process& process() { return *proc_; }
  /// Completed state resyncs after a heal (counter "gc.rejoins" worldwide).
  [[nodiscard]] std::uint64_t rejoins() const { return rejoins_; }
  /// Start time of each rejoin-probe round (tests assert the backoff).
  [[nodiscard]] const std::vector<TimePoint>& rejoin_probe_times() const {
    return rejoin_probe_times_;
  }
  [[nodiscard]] bool peer_link_up(std::uint64_t peer) const {
    return peer_fds_.contains(peer);
  }
  /// Daemons the merged mesh believes alive but we have no link to (a 3+-way
  /// split healed only partially). Non-empty means we run bridged: ordered
  /// traffic reaches us relayed through a linked peer.
  [[nodiscard]] const std::set<std::uint64_t>& missing_links() const {
    return missing_links_;
  }
  /// True while we relay ordered traffic to `peer` on its request.
  [[nodiscard]] bool bridging_for(std::uint64_t peer) const {
    return bridge_targets_.contains(peer);
  }

  /// Reply-group naming convention: every member auto-joins its own reply
  /// group at HELLO so any other member can address it point-to-point over
  /// pure multicast.
  static std::string reply_group_of(const std::string& member);

 private:
  /// (origin, last applied msg id): a few origins each, scanned linearly.
  using DoneMarks = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
  /// Host-local interned group: its membership and all the per-frame path
  /// needs, found through index_ once per frame. Slots are never erased.
  struct GroupSlot {
    std::string name;
    /// Applied here (an ordered message or a state sync entered it); the
    /// state-sync snapshot lists exactly the present groups.
    bool present = false;
    std::vector<std::string> members;  // join order
    std::vector<std::uint64_t> homes;  // daemon id of members[i]
    /// How many of homes are us; the slot is on local_slots_ while non-zero.
    std::uint32_t local_members = 0;
    std::uint64_t view_id = 0;
    std::uint64_t stamper_hash = 0;  // FNV-1a of the name (stamper_for)
    /// Dedupe marks, per (group, origin) on both planes. With sharded
    /// stampers one origin's messages for different groups take different
    /// paths, so only per-(group, origin) msg ids are FIFO — a single
    /// per-origin high-water mark would drop the earlier of two cross-group
    /// messages whenever their broadcasts raced.
    DoneMarks done;
  };

  /// True once links to every other configured daemon are up (or the peer
  /// is known dead). Client submissions are buffered until then, so no
  /// daemon ever orders messages into a half-formed mesh.
  [[nodiscard]] bool mesh_ready() const;
  /// Whether `id` names a configured daemon. Ids from the wire are checked
  /// before they reach any per-daemon state.
  [[nodiscard]] bool in_mesh(std::uint64_t id) const {
    return id < cfg_.daemon_hosts.size();
  }
  /// The interned slot of `name`, created on first sight.
  GroupSlot& slot(std::string_view name);
  /// The slot of `name`, or null if it was never seen here.
  [[nodiscard]] const GroupSlot* find_slot(std::string_view name) const;
  /// The index_ position holding `name`'s slot id, or the empty position
  /// where it would go; `hash` is the name's std::hash.
  [[nodiscard]] std::size_t index_pos(std::string_view name,
                                      std::size_t hash) const;
  /// The present groups `keep` accepts, in name order: the order of the
  /// leaves on peer death and of the state-sync snapshot.
  template <typename Keep>
  [[nodiscard]] std::vector<const GroupSlot*> groups_by_name(Keep keep) const;

  sim::Task<void> accept_loop(int listen_fd);
  sim::Task<void> connection_loop(int fd);
  sim::Task<void> mesh_connect_loop();
  sim::Task<void> heartbeat_loop();
  /// Declares peers dead after heartbeat silence (3x the interval): the
  /// detector for partitions / message-loss faults, where no EOF arrives.
  sim::Task<void> peer_monitor_loop();
  sim::Task<void> delayed_member_death(std::string member,
                                       std::vector<std::string> groups);
  /// Redials dead lower-indexed peers until every one is either back up or
  /// confirmed crashed (connection refused — in this world a daemon process
  /// never restarts, so refusal is permanent). Rounds back off exponentially
  /// from one heartbeat interval up to 8x that. Spawned only on the first
  /// peer death, so fault-free runs schedule nothing.
  sim::Task<void> rejoin_probe_loop();

  void on_peer_link_up();
  void flush_pending();
  /// pending_'s msg ids in submission order (dispatch erases entries).
  [[nodiscard]] std::vector<std::uint64_t> pending_ids() const;
  /// Stamping restamps kSubmit frames in place, so frames are mutable.
  void handle_frame(int fd, Frame& frame);
  void handle_client_gone(int fd);
  /// `fd` is the link that ended; a stale fd superseded by a rejoin dial is
  /// ignored so tearing down the old link can't kill the new one.
  void handle_peer_gone(std::uint64_t peer_id, int fd);
  void resurrect_peer(std::uint64_t peer_id, int fd);
  void send_rejoin(int fd);
  void handle_rejoin(int fd, const RejoinMsg& m);
  void handle_state_sync(int fd, const StateSyncMsg& m);
  /// Merge a gossiped alive set: believe every listed daemon alive, mark
  /// unlinked ones as missing (bridged), re-gossip on growth so healed
  /// chains converge island by island. `source_fd` is excluded from the
  /// re-gossip (or -1 for none).
  void adopt_alive_set(const std::vector<std::uint64_t>& alive, int source_fd);
  /// Pre-merge island stats for rejoin arbitration: the alive set minus
  /// peers resurrected on a healed link but not yet merged into our
  /// sequencing domain. Arbitrating with the raw alive set is wrong — both
  /// sides of a heal resurrect each other before either wins, so both
  /// would claim the merged count (and the merged sequencer id), and the
  /// minority island could beat the majority on a racing link.
  [[nodiscard]] std::uint64_t island_count() const;
  [[nodiscard]] std::uint64_t island_sequencer() const;
  [[nodiscard]] StateSyncMsg snapshot_state() const;
  /// Keeps our stamps above a foreign sequence domain (the takeover jump).
  void bump_seq_past(std::uint64_t foreign_next_seq);
  /// Originates an ordered message from this daemon: encodes its kSubmit
  /// frame, the one copy of `payload` it makes, into pending_ and routes it.
  void submit(PayloadKind kind, std::string_view group,
              std::string_view member, ByteView payload = {});
  /// What route() decided for a submission.
  enum class Route { kSent, kPark, kStamp };
  /// Sends the kSubmit frame `f` for `s` to its stamper, or relays it via
  /// the lowest-id linked peer while that stamper is alive but unlinked
  /// (the bridged regime); kSent also covers a stamper with no route. If
  /// the stamper is us: kPark before the mesh is complete, else kStamp.
  /// `from_fd` is the link it arrived on (-1 for local), never relayed
  /// back.
  Route route(const GroupSlot& s, Frame& f, int from_fd);
  /// Routes a foreign kSubmit frame, parking or stamping it here if route()
  /// says so.
  void route_submit(Frame f, int from_fd);
  /// Routes our pending submission `msg_id`; parking parks a frame that
  /// shares its bytes.
  void route_pending(std::uint64_t msg_id);
  /// Stamps our pending submission `msg_id` here. Its frame leaves pending_
  /// for the dispatch, and goes back as a kSubmit frame if it was stale.
  void stamp_pending(std::uint64_t msg_id);
  /// Restamps the kSubmit frame `f` as the next kOrdered one in place,
  /// sends it to each recipient daemon, and applies it here; returns
  /// handle_ordered's freshness.
  bool stamp_and_dispatch(Frame& f, GroupSlot& s);
  /// Applies `m` unless already applied; returns whether it was fresh.
  /// Dedupe is a high-water mark per (group, origin): see GroupSlot::done.
  bool handle_ordered(const OrderedView& m, GroupSlot& s);
  /// Writes `encode()` to every member of `g` homed here whose client is
  /// connected, encoding only if one exists; the writes share one buffer.
  template <typename Encode>
  void write_to_local(const GroupSlot& g, Encode encode);
  void spawn_write(int fd, Bytes data);
  /// Mesh write of `f`: on the legacy plane a buffer sharing f's block, on
  /// the scaled plane a copy coalesced into the fd's pending FrameBatch.
  void mesh_send(int fd, Frame& f);
  void batch_append(int fd, ByteView frame);
  /// Unbatched write; flushes the fd's pending batch first so control
  /// frames never overtake batched ordered traffic (FIFO per link).
  void direct_send(int fd, Bytes data);
  /// direct_send to every linked peer except `skip_fd`, in peer-id order,
  /// all on `wire`'s one buffer.
  void direct_broadcast(Bytes wire, int skip_fd = -1);
  void flush_batch(int fd);
  sim::Task<void> batch_flush_task(int fd, std::uint64_t epoch);
  [[nodiscard]] std::uint64_t sequencer_id() const;
  /// The daemon that stamps `group`: the global sequencer on the legacy
  /// plane, or FNV-1a(group) over the alive set on the scaled plane.
  [[nodiscard]] std::uint64_t stamper_for(const GroupSlot& s) const;

  net::ProcessPtr proc_;
  DaemonConfig cfg_;
  // Hot-path counters, resolved once at construction (registry refs stay
  // valid for the simulation's lifetime).
  obs::Counter& broadcasts_;
  obs::Counter& broadcast_bytes_;
  obs::Counter& frames_;          // gc.frames: every daemon wire write
  obs::Counter& batch_frames_;    // gc.batch.frames: frames sent batched
  obs::Counter& batch_coalesced_; // gc.batch.coalesced: writes saved
  obs::Counter& shard_stamped_;   // gc.shard.<id>.stamped

  // connection state
  struct ConnState {
    LenFramer framer;
    enum class Role { kUnknown, kClient, kPeer } role = Role::kUnknown;
    std::string client_name;           // role kClient
    std::uint64_t peer_id = 0;         // role kPeer
    std::set<std::string> joined;      // role kClient
    bool rejoin_sent = false;          // at most one Rejoin per link
  };
  net::FdTable<ConnState> conns_;
  std::map<std::uint64_t, int> peer_fds_;
  /// Indexed by daemon id; only read for linked peers, each of which was
  /// stamped when its link came up.
  std::vector<TimePoint> peer_last_seen_;
  std::map<std::string, int> client_fds_;
  /// Ascending, so stamper_for indexes it; presumed alive until EOF.
  std::vector<std::uint64_t> alive_daemons_;
  std::set<std::uint64_t> dead_daemons_;
  /// Resurrected on a healed link, but the rejoin arbitration with their
  /// island has not settled yet: excluded from island_count() /
  /// island_sequencer(). Cleared when we state-sync them (they joined our
  /// domain) or when an authority's alive set reports them merged.
  std::set<std::uint64_t> pending_merge_;
  std::set<std::uint64_t> unreachable_peers_;  // probe refused: truly crashed
  /// Alive (per the authority's state sync) but unlinked: the partial-heal
  /// regime. Probed like dead peers; pruned as links come up.
  std::set<std::uint64_t> missing_links_;
  /// Peers that asked us to relay first-seen ordered traffic to them.
  std::set<std::uint64_t> bridge_targets_;
  bool bridge_requested_ = false;  // we asked peers to bridge for us
  bool probe_running_ = false;
  std::uint64_t rejoins_ = 0;
  std::vector<TimePoint> rejoin_probe_times_;

  // per-destination write coalescing (scaled plane)
  struct Batch {
    Bytes buf;                // concatenated encoded frames
    std::size_t frames = 0;
    std::uint64_t epoch = 0;  // bumped per flush; stale δt timers no-op
    bool flush_armed = false;
  };
  net::FdTable<Batch> batches_;

  // ordering state
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_msg_id_ = 1;
  /// Last kSeqWatermark per peer (scaled plane): the takeover floor used
  /// when a shard owner dies.
  std::map<std::uint64_t, std::uint64_t> peer_watermarks_;
  /// Ours, not yet seen ordered, by msg id (so in submission order), as
  /// their kSubmit frames; a delivery retires its entry by key (sharded
  /// ids are not FIFO).
  std::map<std::uint64_t, Frame> pending_;
  std::deque<Frame> stamp_wait_;  // kSubmit frames parked until the mesh forms
  std::uint64_t delivered_count_ = 0;

  /// Every group seen here, by slot id (a deque: slots never move).
  std::deque<GroupSlot> slots_;
  /// Open-addressed index over slots_, probed linearly: each entry is the
  /// name hash's high half over slot id + 1 in the low half, 0 when empty.
  /// A power of two in size, kept at most half full.
  std::vector<std::uint64_t> index_;
  /// The slots with a member homed here, in no order: all a client death
  /// walks.
  std::vector<const GroupSlot*> local_slots_;
};

}  // namespace mead::gc

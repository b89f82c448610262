// Server-side MEAD: the Interceptor with the embedded Proactive
// Fault-Tolerance Manager (§3.1, §3.2).
//
// Implements net::SocketApi as a decorator over the process' raw sockets —
// the structural equivalent of the paper's LD_PRELOAD interpositioning: the
// ORB above is completely unmodified and unaware of MEAD.
//
// Responsibilities (per the paper):
//  * identify client-server sockets from the system-call sequence (listen/
//    accept mark server-side connections);
//  * read(): track incoming client requests (activates the fault-injection
//    "on first client request"; LOCATION_FORWARD scheme additionally parses
//    GIOP to capture request ids — the expensive §4.1 step);
//  * writev(): the event-driven proactive-recovery trigger — resource usage
//    is checked when replies are written, NOT by a monitoring thread (§3.1
//    discusses why); above T1 a replica launch is requested, above T2
//    connected clients are migrated per the configured scheme and the
//    replica then rejuvenates;
//  * maintain the replica registry from group-communication events, answer
//    primary queries, synchronize listings when first in the view, and run
//    warm-passive state transfer.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "core/config.h"
#include "core/mead_wire.h"
#include "core/predictor.h"
#include "core/registry.h"
#include "fault/fault.h"
#include "gc/client.h"
#include "giop/messages.h"
#include "net/fd_table.h"
#include "net/network.h"
#include "net/socket_api.h"
#include "obs/metrics.h"
#include "state/app_state.h"
#include "state/checkpoint.h"
#include "state/message_log.h"

namespace mead::core {

class ServerMead final : public net::SocketApi {
 public:
  ServerMead(net::ProcessPtr proc, MeadConfig cfg);
  ~ServerMead() override;

  // ---- wiring (before/after ORB construction) ----

  /// Resource monitor input (usually the leak injector's account). May be
  /// null: usage then reads as 0 and proactive recovery never triggers.
  void attach_account(const fault::ResourceAccount* account) { account_ = account; }

  /// Invoked when the first client request arrives (the paper activates
  /// the memory leak here, §5.1).
  void set_on_first_request(std::function<void()> fn) {
    on_first_request_ = std::move(fn);
  }

  /// Warm-passive state hooks (primary pushes, backups apply).
  void set_state_hooks(std::function<Bytes()> get_state,
                       std::function<void(const Bytes&)> set_state) {
    get_state_ = std::move(get_state);
    set_state_ = std::move(set_state);
  }

  /// The replica's own object reference — announced to the group (§4.1
  /// "broadcast these IORs ... to the MEAD Fault-Tolerance Managers").
  void attach_ior(giop::IOR self_ior) { self_ior_ = std::move(self_ior); }

  /// Connects to the local GC daemon, joins the replica + control groups,
  /// announces this replica, and starts the event pump. Requires listen()
  /// to have happened (the ORB endpoint must be known) and attach_ior().
  [[nodiscard]] sim::Task<bool> start();

  // ---- introspection ----
  [[nodiscard]] const ReplicaRegistry& registry() const { return registry_; }
  [[nodiscard]] bool migrating() const { return migrating_; }
  [[nodiscard]] bool launch_requested() const { return launch_requested_; }
  [[nodiscard]] const MeadConfig& config() const { return cfg_; }
  [[nodiscard]] net::Endpoint orb_endpoint() const { return orb_endpoint_; }
  /// Stateful-service store (null when cfg.state.enabled is false).
  [[nodiscard]] const state::AppState* app_state() const {
    return app_state_.get();
  }
  /// True while the restore handshake gates this replica's announce.
  [[nodiscard]] bool restoring() const { return restoring_; }

  struct Stats {
    std::uint64_t requests_seen = 0;
    std::uint64_t replies_passed = 0;
    std::uint64_t replies_suppressed = 0;   // LOCATION_FORWARD substitutions
    std::uint64_t failover_piggybacks = 0;  // MEAD frames attached
    std::uint64_t launch_requests = 0;
    std::uint64_t primary_answers = 0;
    std::uint64_t state_pushes = 0;
    std::uint64_t state_applied = 0;
    // ---- stateful-service (cfg.state.enabled) ----
    std::uint64_t ckpt_taken = 0;      // checkpoints this primary took
    std::uint64_t ckpt_applied = 0;    // checkpoints mirrored from a peer
    std::uint64_t replayed_msgs = 0;   // log entries replayed on restore
    std::uint64_t restores = 0;        // completed peer restores (not fresh)
    double last_restore_ms = 0;        // duration of the latest restore
    std::uint64_t handoffs = 0;        // ordered rotations served as victim
    std::uint64_t dedup_hits = 0;      // duplicate requests suppressed
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  // ---- net::SocketApi (decorator) ----
  net::Result<int> listen(std::uint16_t port) override;
  sim::Task<net::Result<int>> accept(int listen_fd) override;
  sim::Task<net::Result<int>> connect(const net::Endpoint& remote) override;
  sim::Task<net::Result<Bytes>> read(int fd, std::size_t max_bytes,
                                     std::optional<Duration> timeout) override;
  sim::Task<net::Result<std::size_t>> writev(int fd, Bytes data) override;
  sim::Task<net::Result<std::vector<int>>> select(
      std::vector<int> fds, std::optional<Duration> timeout) override;
  net::Result<void> close(int fd) override;
  net::Result<void> dup2(int from_fd, int to_fd) override;
  net::Result<net::Endpoint> local_endpoint(int fd) const override;
  net::Result<net::Endpoint> peer_endpoint(int fd) const override;

 private:
  struct ClientConn {
    giop::FrameBuffer request_parser;  // LF scheme, or reply-dedup parsing
    std::uint32_t last_request_id = 0;
    std::uint16_t last_key_hash = 0;
    bool redirected = false;  // MEAD failover frame already sent
    /// Dedup tokens parsed from requests, FIFO-paired with replies.
    std::deque<std::pair<std::uint64_t, std::uint64_t>> pending_tokens;
  };

  [[nodiscard]] double usage() const {
    return account_ == nullptr ? 0.0 : account_->fraction_used();
  }

  /// The §3.2 two-threshold check, run on the reply path.
  void check_thresholds();
  /// Spawned helpers (timers and event loops).
  sim::Task<void> rejuvenate_after_drain();
  sim::Task<void> gc_pump();
  sim::Task<void> state_sync_loop();
  /// Primary's usage telemetry for the RM's migration planner (only
  /// spawned when cfg.migration.enabled()).
  sim::Task<void> usage_report_loop();
  /// The ordered kHandoff frame named this replica the rotation victim.
  void handle_handoff(const Handoff& h);
  // ---- reply deduplication (cfg.state.dedup_cap > 0) ----
  void note_request_token(ClientConn& conn, const giop::RequestMessage& req);
  void dedup_insert(std::pair<std::uint64_t, std::uint64_t> token);
  void dedup_install(
      const std::vector<std::pair<std::uint64_t, std::uint64_t>>& entries);
  [[nodiscard]] Bytes reply_cache_wire(std::uint64_t nonce) const;
  // ---- stateful-service recovery pipeline ----
  sim::Task<void> checkpoint_loop();
  void push_checkpoint();
  sim::Task<void> restore_watchdog();
  /// Answers a directed restore (announced primary only): the checkpoint
  /// chain, then the closing LogReplay.
  void answer_restore(const std::string& requester, std::uint64_t nonce);
  void request_resync_soon();
  sim::Task<void> finish_replay(std::int64_t replayed);
  void finish_restore(bool restored, double ops);
  /// Whether a kCkptDelta payload is one this replica applies: handle_ctrl
  /// decodes no other.
  [[nodiscard]] bool wants_ckpt(ByteView payload) const;
  void handle_ckpt_delta(CkptDelta&& d);
  [[nodiscard]] std::uint64_t make_nonce();
  void handle_ctrl(const gc::Event& ev);
  void answer_primary_query(std::string reply_group, std::uint64_t nonce);
  void send_listing();

  net::ProcessPtr proc_;
  MeadConfig cfg_;
  net::SocketApi& inner_;
  // Hot-path counters, resolved once at construction (registry refs stay
  // valid for the simulation's lifetime).
  obs::Counter& launch_requests_;
  obs::Counter& migrations_;
  obs::Counter& rejuvenations_;
  obs::Counter& failover_piggybacks_;
  const fault::ResourceAccount* account_ = nullptr;
  std::function<void()> on_first_request_;
  std::function<Bytes()> get_state_;
  std::function<void(const Bytes&)> set_state_;

  std::unique_ptr<gc::GcClient> gc_;
  ReplicaRegistry registry_;
  giop::IOR self_ior_;
  net::Endpoint orb_endpoint_;
  int orb_listen_fd_ = -1;

  /// Primary queries that arrived while there was "no agreed-upon primary"
  /// (§5.2.1): held until a view change makes us first, or until expiry.
  struct PendingQuery {
    PendingQuery() = default;
    PendingQuery(std::string rg, std::uint64_t n, TimePoint exp)
        : reply_group(std::move(rg)), nonce(n), expires(exp) {}
    std::string reply_group;
    std::uint64_t nonce = 0;
    TimePoint expires;
  };
  std::vector<PendingQuery> pending_queries_;

  net::FdTable<ClientConn> client_conns_;
  TrendPredictor predictor_;  // adaptive-threshold extension (§6)
  bool first_request_seen_ = false;
  bool launch_requested_ = false;
  bool migrating_ = false;
  std::optional<ReplicaRegistry::Record> migrate_target_;
  std::uint64_t state_version_ = 0;

  // ---- stateful-service recovery pipeline (null/inert unless
  // cfg.state.enabled; counters resolved lazily so the default metric
  // set is untouched) ----
  std::unique_ptr<state::AppState> app_state_;
  std::unique_ptr<state::CheckpointStore> ckpt_store_;
  std::unique_ptr<state::MessageLog> msg_log_;
  bool restoring_ = false;
  bool restore_base_seen_ = false;
  std::uint64_t await_nonce_ = 0;  // directed restore/resync in flight
  TimePoint restore_begin_;
  std::uint64_t next_nonce_ = 0;
  obs::Counter* ckpt_bytes_ = nullptr;
  obs::Counter* ckpt_deltas_ = nullptr;
  obs::Counter* replay_msgs_ = nullptr;
  obs::Counter* restore_ms_ = nullptr;
  obs::Counter* digest_mismatches_ = nullptr;

  // ---- reply-dedup cache (inert unless cfg.state.dedup_cap > 0):
  // applied (client_id, seq) tokens, FIFO-bounded at dedup_cap and
  // replicated with each checkpoint push ----
  std::deque<std::pair<std::uint64_t, std::uint64_t>> dedup_fifo_;
  std::set<std::pair<std::uint64_t, std::uint64_t>> dedup_set_;
  obs::Counter* dedup_hits_ = nullptr;   // state.dedup.hits, lazy
  obs::Counter* handoff_ms_ = nullptr;   // mead.handoff_ms, lazy

  Stats stats_;
};

}  // namespace mead::core

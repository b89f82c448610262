// MEAD's own wire formats:
//  * the proactive fail-over frame piggybacked into the client's GIOP byte
//    stream (§4.3) — 12-byte "MEAD" header (same shape as GIOP, so one
//    framer splits both) + CDR body carrying the new replica's address;
//  * control payloads multicast over the group-communication system
//    (replica announcements, listing synchronization, launch requests,
//    primary queries/answers, warm-passive state transfer).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "gc/wire.h"
#include "giop/messages.h"
#include "giop/types.h"
#include "net/types.h"
#include "state/checkpoint.h"

namespace mead::core {

// ---- piggybacked fail-over frame ----

struct FailoverMsg {
  FailoverMsg() = default;
  FailoverMsg(net::Endpoint t, std::string m)
      : target(std::move(t)), member(std::move(m)) {}

  net::Endpoint target;  // next non-faulty replica's ORB endpoint
  std::string member;    // its GC member name (diagnostics)

  friend bool operator==(const FailoverMsg&, const FailoverMsg&) = default;
};

/// Full 12-byte-header "MEAD" frame ready to prepend to a GIOP reply.
Bytes encode_failover_frame(const FailoverMsg& m);
/// Decodes the body of a frame whose header.magic == kMead.
std::optional<FailoverMsg> decode_failover_frame(ByteView frame);

// ---- group-communication control payloads ----

/// Kind numbers are wire values: 10 and 14 (the retired delta read-set
/// and its gap NACK) stay unused so old frames never alias a new kind.
enum class CtrlKind : std::uint8_t {
  kAnnounce = 1,      // replica advertises member/endpoint/IOR
  kListing = 2,       // first replica synchronizes the full listing (§4.3)
  kLaunchRequest = 3, // FT manager asks the Recovery Manager for a replica
  kPrimaryQuery = 4,  // NEEDS_ADDRESSING client asks "who is primary?"
  kPrimaryAnswer = 5, // first replica answers with its address
  kState = 6,         // warm-passive state transfer
  kReadSet = 7,       // RM publishes the read-fanout serving set
  kNodeCrash = 8,     // RM replica replicates a node-crash observation
  kLaunchFailed = 9,  // acting RM reports a replica factory failure
  kCkptDelta = 11,    // stateful checkpoint (base snapshot or dirty delta)
  kCkptRequest = 12,  // restoring replica asks a live peer for the chain
  kLogReplay = 13,    // message-log suffix closing a directed restore
  kAliveEpoch = 15,   // RM publishes the alive-host-set epoch (kAlgorithmic)
  kNodeJoin = 16,     // RM replica replicates a node-join observation
  kRetire = 17,       // RM asks a replica to retire (rebalance migration)
  kUsageReport = 18,  // primary reports usage for the RM migration planner
  kHandoff = 19,      // RM orders an atomic primary rotation (migration)
  kQuorumSet = 20,    // kReadSet + per-member catching_up flags (kQuorum)
  kCatchupDone = 21,  // quorum replica finished its online catch-up
  kReplyCache = 22,   // dedup token cache replicated beside checkpoints
};

struct Announce {
  Announce() = default;
  Announce(std::string m, net::Endpoint ep, giop::IOR i)
      : member(std::move(m)), endpoint(std::move(ep)), ior(std::move(i)) {}

  std::string member;
  net::Endpoint endpoint;
  giop::IOR ior;

  friend bool operator==(const Announce&, const Announce&) = default;
};

struct Listing {
  Listing() = default;
  std::vector<Announce> entries;
  friend bool operator==(const Listing&, const Listing&) = default;
};

struct LaunchRequest {
  LaunchRequest() = default;
  LaunchRequest(std::string m, double usage_)
      : member(std::move(m)), usage(usage_) {}

  std::string member;  // the replica anticipating its own failure
  double usage = 0.0;  // resource fraction at trigger time

  friend bool operator==(const LaunchRequest&, const LaunchRequest&) = default;
};

struct PrimaryQuery {
  PrimaryQuery() = default;
  PrimaryQuery(std::string rg, std::uint64_t n)
      : reply_group(std::move(rg)), nonce(n) {}
  std::string reply_group;  // where to multicast the answer
  std::uint64_t nonce = 0;  // echoed in the answer; guards against a late
                            // answer to an earlier (timed-out) query being
                            // taken for the current one
  friend bool operator==(const PrimaryQuery&, const PrimaryQuery&) = default;
};

struct PrimaryAnswer {
  PrimaryAnswer() = default;
  PrimaryAnswer(std::string m, net::Endpoint ep, std::uint64_t n)
      : member(std::move(m)), endpoint(std::move(ep)), nonce(n) {}
  std::string member;
  net::Endpoint endpoint;
  std::uint64_t nonce = 0;
  friend bool operator==(const PrimaryAnswer&, const PrimaryAnswer&) = default;
};

struct StateTransfer {
  StateTransfer() = default;
  StateTransfer(std::string m, std::uint64_t v, Bytes s)
      : member(std::move(m)), version(v), state(std::move(s)) {}
  std::string member;        // sending primary
  std::uint64_t version = 0; // monotonically increasing snapshot id
  Bytes state;
  friend bool operator==(const StateTransfer&, const StateTransfer&) = default;
};

/// Read-fanout serving set for one group, published by the Recovery
/// Manager on the group's read-set GC group whenever membership changes
/// (doom, recovery, announcement). `version` is monotone per group so
/// clients can discard reordered/stale updates; `primary` names the
/// write target (first live entry).
struct ReadSet {
  ReadSet() = default;
  std::uint64_t version = 0;
  std::string primary;
  std::vector<Announce> entries;
  /// kQuorumSet only (never written by encode_read_set): member names in
  /// `entries` that are still catching up — counted for writes, excluded
  /// from reads until their kCatchupDone arrives.
  std::vector<std::string> catching_up;
  friend bool operator==(const ReadSet&, const ReadSet&) = default;
};

/// A whole-node crash, observed locally by an RM replica's shell and
/// multicast on rm_group() so every replica's RmCore releases launch slots
/// reserved on the dead host at the same point in the total order. Every
/// replica reports what it sees; application is idempotent, so duplicate
/// frames (and frames about already-known crashes) are harmless.
struct NodeCrash {
  NodeCrash() = default;
  explicit NodeCrash(std::string h) : host(std::move(h)) {}
  std::string host;
  friend bool operator==(const NodeCrash&, const NodeCrash&) = default;
};

/// The acting RM's replica factory returned false for this launch slot.
/// Multicast on rm_group() so backups release the slot too (a solo manager
/// applies the failure directly, skipping the wire round trip).
struct LaunchFailed {
  LaunchFailed() = default;
  LaunchFailed(std::string s, int inc) : service(std::move(s)), incarnation(inc) {}
  std::string service;
  int incarnation = 0;
  friend bool operator==(const LaunchFailed&, const LaunchFailed&) = default;
};

/// One incremental checkpoint on the `mead/<svc>/ckpt` channel. With
/// nonce == 0 it is the primary's periodic push (warm-passive backups
/// mirror it; fanout replicas cross-verify digests); with nonce != 0 it
/// answers a specific CkptRequest during a restore handshake. Each
/// entry ships `value_pad` trailing padding bytes, modeling application
/// values wider than the bare u64 the accumulator stores.
struct CkptDelta {
  CkptDelta() = default;
  std::string member;        // sending primary
  std::uint64_t nonce = 0;   // 0 = periodic; else echo of CkptRequest.nonce
  std::uint64_t epoch = 0;
  std::uint64_t base_epoch = 0;
  bool is_base = false;
  std::uint64_t applied = 0;
  std::uint64_t prev_digest = 0;
  std::uint64_t digest = 0;
  std::uint32_t value_pad = 0;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> entries;
  friend bool operator==(const CkptDelta&, const CkptDelta&) = default;
};

/// A recovering (or proactively spawned, or gap-detecting) replica asks
/// the group's primary to send base + deltas + log with this nonce.
struct CkptRequest {
  CkptRequest() = default;
  CkptRequest(std::string m, std::uint64_t n, std::uint64_t have)
      : member(std::move(m)), nonce(n), have_epoch(have) {}
  std::string member;           // requester
  std::uint64_t nonce = 0;      // echoed by every frame answering this
  std::uint64_t have_epoch = 0; // newest epoch already held (0 = nothing)
  friend bool operator==(const CkptRequest&, const CkptRequest&) = default;
};

/// The message-log suffix that closes a directed restore: ops applied
/// by the primary since its newest checkpoint. `applied`/`digest` are
/// the primary's progress after the log — the restore target.
struct LogReplay {
  LogReplay() = default;
  std::string member;         // sending primary
  std::uint64_t nonce = 0;
  std::uint64_t applied = 0;
  std::uint64_t digest = 0;
  std::vector<std::uint64_t> entries;  // request seqs, ascending
  friend bool operator==(const LogReplay&, const LogReplay&) = default;
};

/// The alive-host-set epoch for algorithmic placement: published by the
/// acting RM on rm_group() after every crash/join it applies. Because
/// each RmCore replica already mutated its own alive set at the same
/// ordered kNodeCrash/kNodeJoin position, receivers adopt the frame only
/// when it is *ahead* of their local epoch (a late-joining backup) — one
/// O(1) frame per failure regardless of group count.
struct AliveEpoch {
  AliveEpoch() = default;
  std::uint64_t epoch = 0;
  std::vector<std::string> alive;  // sorted ascending, duplicate-free
  friend bool operator==(const AliveEpoch&, const AliveEpoch&) = default;
};

/// A node joined the placement universe (rebalance workload). Multicast on
/// rm_group() like kNodeCrash so every RmCore applies it in total order.
struct NodeJoin {
  NodeJoin() = default;
  explicit NodeJoin(std::string h) : host(std::move(h)) {}
  std::string host;
  friend bool operator==(const NodeJoin&, const NodeJoin&) = default;
};

/// The RM asks one replica to retire gracefully: the rebalance pass has
/// launched its replacement on a freshly joined host. Multicast on the
/// group's control channel; only the named member acts.
struct Retire {
  Retire() = default;
  Retire(std::string s, std::string m)
      : service(std::move(s)), member(std::move(m)) {}
  std::string service;
  std::string member;
  friend bool operator==(const Retire&, const Retire&) = default;
};

/// The primary's periodic resource-usage sample on the control channel
/// (MigrationSpec enabled only). `at_ms` is stamped by the sender, so the
/// RM's migration planner fits its trend without consulting a clock and
/// every replicated RmCore computes identical predictions.
struct UsageReport {
  UsageReport() = default;
  UsageReport(std::string m, double u, std::uint64_t at)
      : member(std::move(m)), usage(u), at_ms(at) {}
  std::string member;
  double usage = 0.0;        // resource fraction of capacity
  std::uint64_t at_ms = 0;   // sender's sim-time sample stamp, milliseconds
  friend bool operator==(const UsageReport&, const UsageReport&) = default;
};

/// The RM's atomic primary-rotation order, multicast on the group's
/// control channel once the pre-warmed standby has announced: `victim`
/// drains + redirects its clients toward `successor`, pushes a final
/// checkpoint (transferring the log tail), and rejuvenates.
struct Handoff {
  Handoff() = default;
  Handoff(std::string s, std::string v, std::string succ)
      : service(std::move(s)), victim(std::move(v)),
        successor(std::move(succ)) {}
  std::string service;
  std::string victim;
  std::string successor;
  friend bool operator==(const Handoff&, const Handoff&) = default;
};

/// A kQuorum replica finished replaying its restore chain while serving:
/// multicast on the ckpt channel so the RM clears its catching_up flag
/// (readmitting it to the read quorum) at one total-order position.
struct CatchupDone {
  CatchupDone() = default;
  CatchupDone(std::string s, std::string m)
      : service(std::move(s)), member(std::move(m)) {}
  std::string service;
  std::string member;
  friend bool operator==(const CatchupDone&, const CatchupDone&) = default;
};

/// The primary's reply-deduplication cache (applied request tokens),
/// replicated on the ckpt channel alongside each checkpoint push so a
/// successor suppresses duplicates of requests the old primary already
/// applied. Entries are (client_id, seq) pairs in insertion order.
struct ReplyCache {
  ReplyCache() = default;
  std::string member;       // sending primary
  std::uint64_t nonce = 0;  // 0 = periodic; else echoes a CkptRequest
  std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;
  friend bool operator==(const ReplyCache&, const ReplyCache&) = default;
};

Bytes encode_announce(const Announce& m);
Bytes encode_read_set(const ReadSet& m);
Bytes encode_listing(const Listing& m);
Bytes encode_launch_request(const LaunchRequest& m);
Bytes encode_primary_query(const PrimaryQuery& m);
Bytes encode_primary_answer(const PrimaryAnswer& m);
Bytes encode_state(const StateTransfer& m);
Bytes encode_node_crash(const NodeCrash& m);
Bytes encode_launch_failed(const LaunchFailed& m);
Bytes encode_ckpt_delta(const CkptDelta& m);
/// The same frame straight from a stored checkpoint (no entry copy).
Bytes encode_ckpt_delta(const state::Checkpoint& c, const std::string& member,
                        std::uint64_t nonce, std::uint32_t value_pad);
/// That frame inside its kMcast frame to `group`, encoded in place: the
/// bytes of encode_mcast over encode_ckpt_delta, one payload copy fewer.
gc::McastFrame encode_ckpt_mcast(std::string_view group,
                                 const state::Checkpoint& c,
                                 const std::string& member, std::uint64_t nonce,
                                 std::uint32_t value_pad);
Bytes encode_ckpt_request(const CkptRequest& m);
Bytes encode_log_replay(const LogReplay& m);
Bytes encode_alive_epoch(const AliveEpoch& m);
Bytes encode_node_join(const NodeJoin& m);
Bytes encode_retire(const Retire& m);
Bytes encode_usage_report(const UsageReport& m);
Bytes encode_handoff(const Handoff& m);
/// Writes `m` including catching_up under kQuorumSet; decode fills
/// CtrlMsg::read_set (kind == kQuorumSet) so subscribers share one path.
Bytes encode_quorum_set(const ReadSet& m);
Bytes encode_catchup_done(const CatchupDone& m);
Bytes encode_reply_cache(const ReplyCache& m);

/// Parsed control payload.
struct CtrlMsg {
  CtrlKind kind = CtrlKind::kAnnounce;
  std::optional<Announce> announce;       // kAnnounce
  std::optional<Listing> listing;         // kListing
  std::optional<LaunchRequest> launch;    // kLaunchRequest
  std::optional<PrimaryQuery> query;      // kPrimaryQuery
  std::optional<PrimaryAnswer> answer;    // kPrimaryAnswer
  std::optional<StateTransfer> state;     // kState
  std::optional<ReadSet> read_set;        // kReadSet
  std::optional<NodeCrash> node_crash;    // kNodeCrash
  std::optional<LaunchFailed> launch_failed;  // kLaunchFailed
  std::optional<CkptDelta> ckpt_delta;    // kCkptDelta
  std::optional<CkptRequest> ckpt_request;  // kCkptRequest
  std::optional<LogReplay> log_replay;    // kLogReplay
  std::optional<AliveEpoch> alive_epoch;  // kAliveEpoch
  std::optional<NodeJoin> node_join;      // kNodeJoin
  std::optional<Retire> retire;           // kRetire
  std::optional<UsageReport> usage_report;  // kUsageReport
  std::optional<Handoff> handoff;         // kHandoff
  // kQuorumSet reuses `read_set` (kind distinguishes; catching_up filled).
  std::optional<CatchupDone> catchup_done;  // kCatchupDone
  std::optional<ReplyCache> reply_cache;  // kReplyCache
};

std::optional<CtrlMsg> decode_ctrl(ByteView payload);

/// A kCkptDelta's sender and nonce, read without its entries: a replica
/// drops the checkpoints it would not apply before paying for their
/// decode. `member` views the payload. nullopt unless the payload starts
/// with a kCkptDelta's kind, sender and nonce.
struct CkptSource {
  std::string_view member;
  std::uint64_t nonce = 0;
};
std::optional<CkptSource> peek_ckpt_source(ByteView payload);

/// The kind byte of a control payload, read without decoding the body, so
/// a consumer drops the kinds it never acts on before paying for them.
/// Unknown kinds pass through (decode_ctrl rejects them); nullopt only for
/// an empty payload.
inline std::optional<CtrlKind> peek_ctrl_kind(ByteView payload) {
  if (payload.empty()) return std::nullopt;
  return static_cast<CtrlKind>(payload[0]);
}

}  // namespace mead::core

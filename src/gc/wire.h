// Wire protocol of the group-communication system (the Spread substitute):
// CDR-encoded, length-prefixed frames exchanged client<->daemon and
// daemon<->daemon.
//
// Frame layout: u32 little-endian total length (excluding itself), u8 opcode,
// CDR payload. net::Framer with FrameRule (LenFramer) reassembles frames
// from the byte stream.
//
// Decoders of frames that carry a payload (kMcast, kDeliver, kSubmit and
// kOrdered) return views into the frame's bytes: strings as string_views,
// the payload as a ByteView. A submission is encoded once, as a kSubmit
// frame, at the daemon it enters; the stamper turns that frame into the
// kOrdered frame in place (Frame::restamp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/expected.h"
#include "common/types.h"
#include "giop/cdr.h"
#include "net/framer.h"

namespace mead::gc {

enum class Op : std::uint8_t {
  // client -> daemon
  kHello = 1,   // member name announces itself
  kJoin = 2,    // join a group
  kLeave = 3,   // leave a group
  kMcast = 4,   // totally-ordered multicast to a group
  // daemon -> client
  kDeliver = 10,  // ordered message delivery
  kView = 11,     // membership change notification
  // daemon <-> daemon (mesh); every op after kPeerHello is accepted only on
  // a link that kPeerHello introduced
  kPeerHello = 20,  // daemon id handshake
  kSubmit = 21,     // forward a message to the sequencer for ordering
  kOrdered = 22,    // sequencer-stamped message, broadcast to all daemons
  kHeartbeat = 23,  // liveness beacon (also the Figure-5 background traffic)
  kRejoin = 24,     // expelled daemon (or healed peer) asks to merge worlds
  kStateSync = 25,  // authority's group-state snapshot for a rejoiner
  kBridge = 26,     // ask a linked peer to relay ordered traffic to us
  kAliveSet = 27,   // merged alive-daemon set, gossiped after arbitration
  // scaled GC plane (sharded sequencers / batched mesh traffic)
  kFrameBatch = 28,    // several mesh frames coalesced into one wire write
  kSeqWatermark = 29,  // periodic stamping-counter beacon (takeover floor)
};

/// What a Submit/Ordered payload represents.
enum class PayloadKind : std::uint8_t {
  kData = 0,   // application multicast
  kJoin = 1,   // membership: member joined group
  kLeave = 2,  // membership: member left group (or died)
};

struct HelloMsg {
  HelloMsg() = default;
  explicit HelloMsg(std::string n) : name(std::move(n)) {}
  std::string name;
};

struct GroupMsg {  // kJoin / kLeave (client side)
  GroupMsg() = default;
  explicit GroupMsg(std::string g) : group(std::move(g)) {}
  std::string group;
};

struct McastMsg {
  McastMsg() = default;
  McastMsg(std::string g, Bytes p) : group(std::move(g)), payload(std::move(p)) {}
  std::string group;
  Bytes payload;
};

/// A decoded kMcast frame; views into the frame's bytes.
struct McastView {
  std::string_view group;
  ByteView payload;
};

struct DeliverMsg {
  DeliverMsg() = default;
  DeliverMsg(std::string g, std::string s, std::uint64_t q, Bytes p)
      : group(std::move(g)), sender(std::move(s)), seq(q), payload(std::move(p)) {}
  std::string group;
  std::string sender;
  std::uint64_t seq = 0;
  Bytes payload;
};

/// A decoded kDeliver frame; views into the frame's bytes.
struct DeliverView {
  std::string_view group;
  std::string_view sender;
  std::uint64_t seq = 0;
  ByteView payload;
};

struct ViewMsg {
  ViewMsg() = default;
  ViewMsg(std::string g, std::uint64_t id, std::vector<std::string> m)
      : group(std::move(g)), view_id(id), members(std::move(m)) {}
  std::string group;
  std::uint64_t view_id = 0;
  std::vector<std::string> members;  // in join order ("first member" rule)
};

struct PeerHelloMsg {
  PeerHelloMsg() = default;
  explicit PeerHelloMsg(std::uint64_t id) : daemon_id(id) {}
  std::uint64_t daemon_id = 0;
};

/// A message en route to / stamped by the sequencer.
struct OrderedMsg {
  OrderedMsg() = default;

  std::uint64_t seq = 0;        // 0 until stamped
  std::uint64_t origin = 0;     // submitting daemon id
  std::uint64_t msg_id = 0;     // per-origin id, for at-least-once dedupe
  PayloadKind kind = PayloadKind::kData;
  std::string group;
  std::string member;  // sender (kData) or subject member (kJoin/kLeave)
  Bytes payload;
};

/// A decoded kSubmit or kOrdered frame, or an OrderedMsg seen through
/// views (as a std::string converts to a std::string_view).
struct OrderedView {
  OrderedView() = default;
  OrderedView(const OrderedMsg& m)  // NOLINT(google-explicit-constructor)
      : seq(m.seq), origin(m.origin), msg_id(m.msg_id), kind(m.kind),
        group(m.group), member(m.member), payload(m.payload) {}

  std::uint64_t seq = 0;
  std::uint64_t origin = 0;
  std::uint64_t msg_id = 0;
  PayloadKind kind = PayloadKind::kData;
  std::string_view group;
  std::string_view member;
  ByteView payload;
};

struct HeartbeatMsg {
  HeartbeatMsg() = default;
  explicit HeartbeatMsg(std::uint64_t id) : daemon_id(id) {}
  std::uint64_t daemon_id = 0;
};

/// A daemon re-establishing contact after a partition heal announces enough
/// of its world-view that the two sides can agree which one is
/// authoritative (larger alive set; ties to the lower sequencer id).
struct RejoinMsg {
  RejoinMsg() = default;
  RejoinMsg(std::uint64_t d, std::uint64_t n, std::uint64_t a, std::uint64_t s)
      : daemon_id(d), next_seq(n), alive_count(a), sequencer_id(s) {}

  std::uint64_t daemon_id = 0;
  std::uint64_t next_seq = 0;      // sender's sequencing counter
  std::uint64_t alive_count = 0;   // size of the sender's alive set
  std::uint64_t sequencer_id = 0;  // who the sender believes sequences
};

/// One group's membership as the authority sees it. `homes` is parallel to
/// `members`: the daemon id each member is homed on.
struct GroupSnapshot {
  GroupSnapshot() = default;

  std::string group;
  std::uint64_t view_id = 0;
  std::vector<std::string> members;  // join order
  std::vector<std::uint64_t> homes;  // parallel to members
};

/// The authority's full group-state snapshot, sent in reply to a Rejoin the
/// authority won. The rejoiner adopts it wholesale and re-submits its local
/// clients' joins on top.
struct StateSyncMsg {
  StateSyncMsg() = default;

  std::uint64_t next_seq = 0;  // authority's counter at snapshot time
  std::vector<GroupSnapshot> groups;
  /// The authority's alive-daemon set. A rejoiner that adopts the snapshot
  /// but lacks a link to one of these daemons (a 3+-way split healed only
  /// partially) knows the merged mesh extends past its own links, and asks
  /// its connected peers to bridge ordered traffic until the link heals.
  std::vector<std::uint64_t> alive;
};

/// Bridge request: `daemon_id` asks the receiving (linked) peer to start
/// (`on`) or stop forwarding every first-seen Ordered message to it, because
/// some daemon of the merged mesh — typically the sequencer — is alive but
/// unreachable from the requester while a partial partition persists.
struct BridgeMsg {
  BridgeMsg() = default;
  BridgeMsg(std::uint64_t d, bool o) : daemon_id(d), on(o) {}

  std::uint64_t daemon_id = 0;
  bool on = true;
};

/// The merged alive-daemon set, gossiped to linked peers after an
/// arbitration win (and re-forwarded by any daemon whose own set grows).
/// This is how islands further down a healed chain — which never exchanged
/// a Rejoin with the new arrival — learn the mesh extends past their links.
struct AliveSetMsg {
  AliveSetMsg() = default;
  explicit AliveSetMsg(std::vector<std::uint64_t> a) : alive(std::move(a)) {}

  std::vector<std::uint64_t> alive;
};

/// Periodic stamping-counter beacon, broadcast by every daemon when the
/// plane runs sharded sequencers (it doubles as the liveness heartbeat
/// there). Receivers ratchet their own counter to at least `next_seq`, so
/// whoever inherits a dead owner's groups stamps above everything the old
/// owner is known to have issued — the per-shard takeover floor. It is also
/// what keeps daemons with no interest in a group aligned with the global
/// stamping frontier even though data frames no longer reach them.
struct SeqWatermarkMsg {
  SeqWatermarkMsg() = default;
  SeqWatermarkMsg(std::uint64_t d, std::uint64_t n)
      : daemon_id(d), next_seq(n) {}

  std::uint64_t daemon_id = 0;
  std::uint64_t next_seq = 0;
};

// ---- encoding ----

Bytes encode_hello(const HelloMsg& m);
Bytes encode_join(const GroupMsg& m);
Bytes encode_leave(const GroupMsg& m);
Bytes encode_mcast(const McastMsg& m);
Bytes encode_deliver(const DeliverMsg& m);
/// The kDeliver frame of a stamped message, encoded straight from it:
/// the same bytes as encode_deliver(DeliverMsg{group, member, seq, payload}).
Bytes encode_deliver(const OrderedView& m);
Bytes encode_view(const ViewMsg& m);
Bytes encode_peer_hello(const PeerHelloMsg& m);
/// The kSubmit frame of `m`: the one encoding of a submission.
Bytes encode_submit(const OrderedView& m);
/// The kOrdered frame of `m`, encoded whole: the reference restamping
/// must match. The daemon never calls it.
Bytes encode_ordered(const OrderedMsg& m);
/// A frame's header: the u32 length, then the opcode.
inline constexpr std::size_t kFrameHeader = 5;
inline constexpr std::size_t kOpAt = 4;
Bytes encode_heartbeat(const HeartbeatMsg& m);
Bytes encode_rejoin(const RejoinMsg& m);
Bytes encode_state_sync(const StateSyncMsg& m);
Bytes encode_bridge(const BridgeMsg& m);
Bytes encode_alive_set(const AliveSetMsg& m);
Bytes encode_seq_watermark(const SeqWatermarkMsg& m);

enum class WireErr { kTruncated, kMalformed, kUnknownOp };

/// Longest frame the framer accepts (length prefix excluded). Readers on
/// GC sockets ask for at least this much, so a whole delivered frame comes
/// back from one read.
constexpr std::size_t kMaxFrameLen = 16 * 1024 * 1024;

/// One frame off the stream. It owns the bytes it arrived in (often the
/// whole delivered chunk, of which it is the tail), `wire()` views the
/// frame itself (length prefix, opcode, body) and `payload` its CDR body
/// inside them, so the views stay valid wherever the frame moves, whatever
/// happens to the framer or connection it came from. Move-only: a copy
/// would have to re-point the views.
class Frame {
 public:
  /// The frame whose wire bytes start at `at` in `bytes` and run to the
  /// end.
  Frame(Op o, Bytes bytes, std::size_t at = 0)
      : bytes_(std::move(bytes)), at_(at), op(o),
        payload(ByteView(std::as_const(bytes_)).subspan(at + kFrameHeader)) {}
  // A moved Bytes hands over its block, so the views stay put.
  Frame(Frame&&) noexcept = default;
  Frame& operator=(Frame&&) noexcept = default;
  Frame(const Frame&) = delete;
  Frame& operator=(const Frame&) = delete;

  /// The frame as it crosses the wire.
  [[nodiscard]] ByteView wire() const { return ByteView(bytes_).subspan(at_); }
  /// wire() on a buffer of its own that shares this frame's block: how one
  /// frame goes to several recipients without a copy each.
  [[nodiscard]] Bytes share_wire() { return bytes_.share(at_, bytes_.size() - at_); }
  /// Writes `o` and `seq` into this kSubmit or kOrdered frame in place:
  /// restamping the frame of encode_submit(m) as kOrdered with seq s gives
  /// the bytes of encode_ordered(m) with m.seq = s. The u64 seq sits at
  /// body offset 0, where the body's CDR stream starts, so it has no
  /// padding ahead of it. A frame whose bytes are shared copies them out
  /// first, so the other holders keep theirs.
  void restamp(Op o, std::uint64_t seq);

 private:
  Bytes bytes_;  // declared first: the views are initialised from it
  std::size_t at_;

 public:
  Op op;
  ByteView payload;
};

template <typename T>
using WireResult = Expected<T, WireErr>;

WireResult<HelloMsg> decode_hello(ByteView payload);
WireResult<GroupMsg> decode_group(ByteView payload);
WireResult<McastView> decode_mcast(ByteView payload);
WireResult<DeliverView> decode_deliver(ByteView payload);
WireResult<ViewMsg> decode_view(ByteView payload);
WireResult<PeerHelloMsg> decode_peer_hello(ByteView payload);
WireResult<OrderedView> decode_ordered_like(ByteView payload);
WireResult<HeartbeatMsg> decode_heartbeat(ByteView payload);
WireResult<RejoinMsg> decode_rejoin(ByteView payload);
WireResult<StateSyncMsg> decode_state_sync(ByteView payload);
WireResult<BridgeMsg> decode_bridge(ByteView payload);
WireResult<AliveSetMsg> decode_alive_set(ByteView payload);
WireResult<SeqWatermarkMsg> decode_seq_watermark(ByteView payload);

// ---- frame batching ----
//
// A FrameBatch payload is simply the concatenation of complete
// length-prefixed frames (the same bytes that would have crossed the wire
// individually), so a sender coalesces by appending encoded frames to a
// buffer and wrapping it once at flush time. Batches never nest.

/// Wraps already-encoded frames (concatenated wire bytes) into one
/// kFrameBatch frame. `frames` must be non-zero; `payload` must hold
/// exactly that many complete frames.
Bytes wrap_frame_batch(ByteView payload);
/// Convenience for tests: encodes `frames` individually and wraps them.
Bytes encode_frame_batch(const std::vector<Bytes>& frames);
/// Splits a kFrameBatch payload back into frames, each a copy of its
/// sub-frame's wire bytes (header included, like every Frame). Rejects
/// empty batches, truncated sub-frames (kTruncated), unknown sub-frame
/// opcodes (kUnknownOp), and nested batches (kMalformed).
WireResult<std::vector<Frame>> decode_frame_batch(ByteView payload);

/// How net::Framer splits a GC byte stream: a u32 length (at most
/// kMaxFrameLen, at least the opcode) and a known opcode.
struct FrameRule {
  using Frame = gc::Frame;
  static constexpr std::size_t kHeaderSize = kFrameHeader;
  static std::size_t frame_size(const std::uint8_t* head);
  static Frame make(Bytes buf, std::size_t at) {
    const auto op = static_cast<Op>(std::as_const(buf)[at + kOpAt]);
    return Frame(op, std::move(buf), at);
  }
};

/// Reassembles GC frames from a byte stream.
using LenFramer = net::Framer<FrameRule>;

}  // namespace mead::gc

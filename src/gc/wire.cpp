#include "gc/wire.h"

#include <cstring>

namespace mead::gc {

namespace {

using giop::ByteOrder;
using giop::CdrReader;
using giop::CdrWriter;

/// A writer holding the 5-byte frame header (length placeholder, opcode),
/// with the CDR body's stream starting right behind it. `body_hint` sizes
/// the buffer up front.
CdrWriter frame_writer(Op op, std::size_t body_hint = 32) {
  CdrWriter w;
  w.reserve(5 + body_hint);
  w.write_u32(0);  // patched by finish_frame
  w.write_u8(static_cast<std::uint8_t>(op));
  w.begin_stream();
  return w;
}

void put_le32(std::uint8_t* p, std::size_t n) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(n >> (8 * i));
}

/// Takes the frame out of `w` and fills in its little-endian length.
Bytes finish_frame(CdrWriter& w) {
  Bytes out = w.take();
  put_le32(out.data(), out.size() - 4);
  return out;
}

bool valid_op(std::uint8_t v) {
  switch (static_cast<Op>(v)) {
    case Op::kHello:
    case Op::kJoin:
    case Op::kLeave:
    case Op::kMcast:
    case Op::kDeliver:
    case Op::kView:
    case Op::kPeerHello:
    case Op::kSubmit:
    case Op::kOrdered:
    case Op::kHeartbeat:
    case Op::kRejoin:
    case Op::kStateSync:
    case Op::kBridge:
    case Op::kAliveSet:
    case Op::kFrameBatch:
    case Op::kSeqWatermark:
      return true;
  }
  return false;
}

}  // namespace

Bytes encode_hello(const HelloMsg& m) {
  CdrWriter w = frame_writer(Op::kHello);
  w.write_string(m.name);
  return finish_frame(w);
}

Bytes encode_join(const GroupMsg& m) {
  CdrWriter w = frame_writer(Op::kJoin);
  w.write_string(m.group);
  return finish_frame(w);
}

Bytes encode_leave(const GroupMsg& m) {
  CdrWriter w = frame_writer(Op::kLeave);
  w.write_string(m.group);
  return finish_frame(w);
}

Bytes encode_mcast(const McastMsg& m) {
  CdrWriter w =
      frame_writer(Op::kMcast, 16 + m.group.size() + m.payload.size());
  w.write_string(m.group);
  w.write_octet_seq(m.payload);
  return finish_frame(w);
}

McastWriter::McastWriter(std::string_view group, std::size_t payload_hint)
    : w_(frame_writer(Op::kMcast, 16 + group.size() + payload_hint)) {
  w_.write_string(group);
  w_.write_u32(0);  // the payload's length, patched by finish()
  payload_at_ = w_.size();
  w_.begin_stream();
}

McastFrame McastWriter::finish() {
  const std::size_t n = w_.size() - payload_at_;
  Bytes out = finish_frame(w_);
  put_le32(out.data() + payload_at_ - 4, n);
  return McastFrame{std::move(out), n};
}

namespace {

Bytes deliver_frame(std::string_view group, std::string_view sender,
                    std::uint64_t seq, ByteView payload) {
  CdrWriter w = frame_writer(
      Op::kDeliver, 32 + group.size() + sender.size() + payload.size());
  w.write_string(group);
  w.write_string(sender);
  w.write_u64(seq);
  w.write_octet_seq(payload);
  return finish_frame(w);
}

}  // namespace

Bytes encode_deliver(const DeliverMsg& m) {
  return deliver_frame(m.group, m.sender, m.seq, m.payload);
}

Bytes encode_deliver(const OrderedView& m) {
  return deliver_frame(m.group, m.member, m.seq, m.payload);
}

Bytes encode_view(const ViewMsg& m) {
  CdrWriter w = frame_writer(Op::kView);
  w.write_string(m.group);
  w.write_u64(m.view_id);
  w.write_u32(static_cast<std::uint32_t>(m.members.size()));
  for (const auto& member : m.members) w.write_string(member);
  return finish_frame(w);
}

Bytes encode_peer_hello(const PeerHelloMsg& m) {
  CdrWriter w = frame_writer(Op::kPeerHello);
  w.write_u64(m.daemon_id);
  return finish_frame(w);
}

namespace {

Bytes ordered_frame(Op op, const OrderedView& m) {
  CdrWriter w = frame_writer(
      op, 48 + m.group.size() + m.member.size() + m.payload.size());
  w.write_u64(m.seq);
  w.write_u64(m.origin);
  w.write_u64(m.msg_id);
  w.write_u8(static_cast<std::uint8_t>(m.kind));
  w.write_string(m.group);
  w.write_string(m.member);
  w.write_octet_seq(m.payload);
  return finish_frame(w);
}

}  // namespace

Bytes encode_submit(const OrderedView& m) { return ordered_frame(Op::kSubmit, m); }
Bytes encode_ordered(const OrderedMsg& m) { return ordered_frame(Op::kOrdered, m); }

void Frame::restamp(Op o, std::uint64_t seq) {
  bytes_.own();  // the other holders of a shared block keep their bytes
  std::uint8_t* frame = bytes_.data() + at_;
  payload = ByteView(std::as_const(bytes_)).subspan(at_ + kFrameHeader);
  frame[kOpAt] = static_cast<std::uint8_t>(o);
  for (std::size_t i = 0; i < 8; ++i) {  // little-endian, as CdrWriter
    frame[kFrameHeader + i] = static_cast<std::uint8_t>(seq >> (8 * i));
  }
  op = o;
}

Bytes encode_heartbeat(const HeartbeatMsg& m) {
  CdrWriter w = frame_writer(Op::kHeartbeat);
  w.write_u64(m.daemon_id);
  return finish_frame(w);
}

Bytes encode_rejoin(const RejoinMsg& m) {
  CdrWriter w = frame_writer(Op::kRejoin);
  w.write_u64(m.daemon_id);
  w.write_u64(m.next_seq);
  w.write_u64(m.alive_count);
  w.write_u64(m.sequencer_id);
  return finish_frame(w);
}

Bytes encode_state_sync(const StateSyncMsg& m) {
  CdrWriter w = frame_writer(Op::kStateSync);
  w.write_u64(m.next_seq);
  w.write_u32(static_cast<std::uint32_t>(m.groups.size()));
  for (const auto& g : m.groups) {
    w.write_string(g.group);
    w.write_u64(g.view_id);
    w.write_u32(static_cast<std::uint32_t>(g.members.size()));
    for (const auto& member : g.members) w.write_string(member);
    w.write_u32(static_cast<std::uint32_t>(g.homes.size()));
    for (std::uint64_t home : g.homes) w.write_u64(home);
  }
  w.write_u32(static_cast<std::uint32_t>(m.alive.size()));
  for (std::uint64_t d : m.alive) w.write_u64(d);
  return finish_frame(w);
}

Bytes encode_bridge(const BridgeMsg& m) {
  CdrWriter w = frame_writer(Op::kBridge);
  w.write_u64(m.daemon_id);
  w.write_u8(m.on ? 1 : 0);
  return finish_frame(w);
}

Bytes encode_alive_set(const AliveSetMsg& m) {
  CdrWriter w = frame_writer(Op::kAliveSet);
  w.write_u32(static_cast<std::uint32_t>(m.alive.size()));
  for (std::uint64_t d : m.alive) w.write_u64(d);
  return finish_frame(w);
}

Bytes encode_seq_watermark(const SeqWatermarkMsg& m) {
  CdrWriter w = frame_writer(Op::kSeqWatermark);
  w.write_u64(m.daemon_id);
  w.write_u64(m.next_seq);
  return finish_frame(w);
}

Bytes wrap_frame_batch(ByteView payload) {
  CdrWriter w = frame_writer(Op::kFrameBatch, payload.size());
  w.write_raw(payload);
  return finish_frame(w);
}

Bytes encode_frame_batch(const std::vector<Bytes>& frames) {
  Bytes payload;
  for (const Bytes& f : frames) append_bytes(payload, f);
  return wrap_frame_batch(payload);
}

// ---- decoding ----

namespace {

// Smallest encodings of repeated entries, bounding how many a count read
// off the wire can claim: a group snapshot is a string, a u64 view id and
// two u32 counts.
constexpr std::size_t kMinString = giop::kMinCdrString;
constexpr std::size_t kMinSnapshot = kMinString + 8 + 4 + 4;

template <typename F>
auto decode_with(ByteView payload, F&& fn)
    -> WireResult<std::decay_t<decltype(*fn(std::declval<CdrReader&>()))>> {
  CdrReader r(payload, ByteOrder::kLittleEndian);
  auto out = fn(r);
  if (!out) return make_unexpected(WireErr::kMalformed);
  return std::move(*out);
}

}  // namespace

WireResult<HelloMsg> decode_hello(ByteView payload) {
  return decode_with(payload, [](CdrReader& r) -> std::optional<HelloMsg> {
    auto name = r.read_string();
    if (!name) return std::nullopt;
    return HelloMsg{std::move(name.value())};
  });
}

WireResult<GroupMsg> decode_group(ByteView payload) {
  return decode_with(payload, [](CdrReader& r) -> std::optional<GroupMsg> {
    auto g = r.read_string();
    if (!g) return std::nullopt;
    return GroupMsg{std::move(g.value())};
  });
}

WireResult<McastView> decode_mcast(ByteView payload) {
  return decode_with(payload, [](CdrReader& r) -> std::optional<McastView> {
    auto g = r.read_string_view();
    if (!g) return std::nullopt;
    auto p = r.read_octet_view();
    if (!p) return std::nullopt;
    return McastView{g.value(), p.value()};
  });
}

WireResult<DeliverView> decode_deliver(ByteView payload) {
  return decode_with(payload, [](CdrReader& r) -> std::optional<DeliverView> {
    auto g = r.read_string_view();
    if (!g) return std::nullopt;
    auto s = r.read_string_view();
    if (!s) return std::nullopt;
    auto q = r.read_u64();
    if (!q) return std::nullopt;
    auto p = r.read_octet_view();
    if (!p) return std::nullopt;
    return DeliverView{g.value(), s.value(), q.value(), p.value()};
  });
}

WireResult<ViewMsg> decode_view(ByteView payload) {
  return decode_with(payload, [](CdrReader& r) -> std::optional<ViewMsg> {
    auto g = r.read_string();
    if (!g) return std::nullopt;
    auto id = r.read_u64();
    if (!id) return std::nullopt;
    auto n = r.read_u32();
    if (!n) return std::nullopt;
    std::vector<std::string> members;
    members.reserve(r.bounded_count(n.value(), kMinString));
    for (std::uint32_t i = 0; i < n.value(); ++i) {
      auto m = r.read_string();
      if (!m) return std::nullopt;
      members.push_back(std::move(m.value()));
    }
    return ViewMsg{std::move(g.value()), id.value(), std::move(members)};
  });
}

WireResult<PeerHelloMsg> decode_peer_hello(ByteView payload) {
  return decode_with(payload, [](CdrReader& r) -> std::optional<PeerHelloMsg> {
    auto id = r.read_u64();
    if (!id) return std::nullopt;
    return PeerHelloMsg{id.value()};
  });
}

WireResult<OrderedView> decode_ordered_like(ByteView payload) {
  return decode_with(payload, [](CdrReader& r) -> std::optional<OrderedView> {
    OrderedView m;
    auto seq = r.read_u64();
    if (!seq) return std::nullopt;
    m.seq = seq.value();
    auto origin = r.read_u64();
    if (!origin) return std::nullopt;
    m.origin = origin.value();
    auto id = r.read_u64();
    if (!id) return std::nullopt;
    m.msg_id = id.value();
    auto kind = r.read_u8();
    if (!kind || kind.value() > 2) return std::nullopt;
    m.kind = static_cast<PayloadKind>(kind.value());
    auto g = r.read_string_view();
    if (!g) return std::nullopt;
    m.group = g.value();
    auto member = r.read_string_view();
    if (!member) return std::nullopt;
    m.member = member.value();
    auto p = r.read_octet_view();
    if (!p) return std::nullopt;
    m.payload = p.value();
    return m;
  });
}

WireResult<HeartbeatMsg> decode_heartbeat(ByteView payload) {
  return decode_with(payload, [](CdrReader& r) -> std::optional<HeartbeatMsg> {
    auto id = r.read_u64();
    if (!id) return std::nullopt;
    return HeartbeatMsg{id.value()};
  });
}

WireResult<RejoinMsg> decode_rejoin(ByteView payload) {
  return decode_with(payload, [](CdrReader& r) -> std::optional<RejoinMsg> {
    auto d = r.read_u64();
    if (!d) return std::nullopt;
    auto n = r.read_u64();
    if (!n) return std::nullopt;
    auto a = r.read_u64();
    if (!a) return std::nullopt;
    auto s = r.read_u64();
    if (!s) return std::nullopt;
    return RejoinMsg{d.value(), n.value(), a.value(), s.value()};
  });
}

WireResult<StateSyncMsg> decode_state_sync(ByteView payload) {
  return decode_with(payload, [](CdrReader& r) -> std::optional<StateSyncMsg> {
    StateSyncMsg m;
    auto next = r.read_u64();
    if (!next) return std::nullopt;
    m.next_seq = next.value();
    auto count = r.read_u32();
    if (!count) return std::nullopt;
    m.groups.reserve(r.bounded_count(count.value(), kMinSnapshot));
    for (std::uint32_t i = 0; i < count.value(); ++i) {
      GroupSnapshot snap;
      auto g = r.read_string();
      if (!g) return std::nullopt;
      snap.group = std::move(g.value());
      auto id = r.read_u64();
      if (!id) return std::nullopt;
      snap.view_id = id.value();
      auto members = r.read_u32();
      if (!members) return std::nullopt;
      snap.members.reserve(r.bounded_count(members.value(), kMinString));
      for (std::uint32_t j = 0; j < members.value(); ++j) {
        auto member = r.read_string();
        if (!member) return std::nullopt;
        snap.members.push_back(std::move(member.value()));
      }
      auto homes = r.read_u32();
      if (!homes) return std::nullopt;
      snap.homes.reserve(r.bounded_count(homes.value(), 8));
      for (std::uint32_t j = 0; j < homes.value(); ++j) {
        auto home = r.read_u64();
        if (!home) return std::nullopt;
        snap.homes.push_back(home.value());
      }
      m.groups.push_back(std::move(snap));
    }
    auto alive = r.read_u32();
    if (!alive) return std::nullopt;
    m.alive.reserve(r.bounded_count(alive.value(), 8));
    for (std::uint32_t i = 0; i < alive.value(); ++i) {
      auto d = r.read_u64();
      if (!d) return std::nullopt;
      m.alive.push_back(d.value());
    }
    return m;
  });
}

WireResult<BridgeMsg> decode_bridge(ByteView payload) {
  return decode_with(payload, [](CdrReader& r) -> std::optional<BridgeMsg> {
    auto d = r.read_u64();
    if (!d) return std::nullopt;
    auto on = r.read_u8();
    if (!on || on.value() > 1) return std::nullopt;
    return BridgeMsg{d.value(), on.value() == 1};
  });
}

WireResult<AliveSetMsg> decode_alive_set(ByteView payload) {
  return decode_with(payload, [](CdrReader& r) -> std::optional<AliveSetMsg> {
    auto n = r.read_u32();
    if (!n) return std::nullopt;
    AliveSetMsg m;
    m.alive.reserve(r.bounded_count(n.value(), 8));
    for (std::uint32_t i = 0; i < n.value(); ++i) {
      auto d = r.read_u64();
      if (!d) return std::nullopt;
      m.alive.push_back(d.value());
    }
    return m;
  });
}

WireResult<SeqWatermarkMsg> decode_seq_watermark(ByteView payload) {
  return decode_with(payload, [](CdrReader& r) -> std::optional<SeqWatermarkMsg> {
    auto d = r.read_u64();
    if (!d) return std::nullopt;
    auto n = r.read_u64();
    if (!n) return std::nullopt;
    return SeqWatermarkMsg{d.value(), n.value()};
  });
}

WireResult<std::vector<Frame>> decode_frame_batch(ByteView payload) {
  std::vector<Frame> out;
  std::size_t pos = 0;
  while (pos < payload.size()) {
    if (payload.size() - pos < 4) return make_unexpected(WireErr::kTruncated);
    std::uint32_t len = static_cast<std::uint32_t>(payload[pos]) |
                        (static_cast<std::uint32_t>(payload[pos + 1]) << 8) |
                        (static_cast<std::uint32_t>(payload[pos + 2]) << 16) |
                        (static_cast<std::uint32_t>(payload[pos + 3]) << 24);
    if (len == 0) return make_unexpected(WireErr::kMalformed);
    if (payload.size() - pos < 4 + static_cast<std::size_t>(len)) {
      return make_unexpected(WireErr::kTruncated);
    }
    std::uint8_t op = payload[pos + 4];
    if (!valid_op(op)) return make_unexpected(WireErr::kUnknownOp);
    if (static_cast<Op>(op) == Op::kFrameBatch) {  // batches never nest
      return make_unexpected(WireErr::kMalformed);
    }
    // Each sub-frame copies its wire bytes out: a batch carries small
    // frames, and at most one large one (a sender flushes once it reaches
    // 8 KiB).
    out.emplace_back(static_cast<Op>(op), Bytes(payload.subspan(pos, 4 + len)));
    pos += 4 + len;
  }
  if (out.empty()) return make_unexpected(WireErr::kMalformed);
  return out;
}

// ---- framing ----

std::size_t FrameRule::frame_size(const std::uint8_t* head) {
  const std::uint32_t len = static_cast<std::uint32_t>(head[0]) |
                            (static_cast<std::uint32_t>(head[1]) << 8) |
                            (static_cast<std::uint32_t>(head[2]) << 16) |
                            (static_cast<std::uint32_t>(head[3]) << 24);
  if (len == 0 || len > kMaxFrameLen || !valid_op(head[kOpAt])) return 0;
  return 4 + static_cast<std::size_t>(len);
}

}  // namespace mead::gc

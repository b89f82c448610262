#include "gc/wire.h"

#include <gtest/gtest.h>

#include <string>

namespace mead::gc {
namespace {

TEST(GcWireTest, HelloRoundTrip) {
  LenFramer f;
  f.feed(encode_hello(HelloMsg{"replica/node1/1"}));
  auto frame = f.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->op, Op::kHello);
  auto m = decode_hello(frame->payload);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->name, "replica/node1/1");
}

TEST(GcWireTest, JoinLeaveRoundTrip) {
  LenFramer f;
  f.feed(encode_join(GroupMsg{"TimeOfDay-servers"}));
  f.feed(encode_leave(GroupMsg{"TimeOfDay-servers"}));
  auto j = f.next();
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->op, Op::kJoin);
  EXPECT_EQ(decode_group(j->payload)->group, "TimeOfDay-servers");
  auto l = f.next();
  ASSERT_TRUE(l.has_value());
  EXPECT_EQ(l->op, Op::kLeave);
}

TEST(GcWireTest, McastRoundTrip) {
  Bytes payload{9, 8, 7};
  LenFramer f;
  f.feed(encode_mcast(McastMsg{"g", payload}));
  auto frame = f.next();
  ASSERT_TRUE(frame.has_value());
  auto m = decode_mcast(frame->payload);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->group, "g");
  EXPECT_EQ(m->payload, payload);
}

TEST(GcWireTest, McastWriterMatchesEncodeMcast) {
  // A payload written in place with its own aligned fields: a u8, then a
  // u64 whose padding counts from the payload's first byte.
  Bytes payload;
  {
    giop::CdrWriter w;
    w.write_u8(5);
    w.write_u64(0x0102030405060708ull);
    payload = w.take();
  }
  for (const std::string group : {"", "g", "g2", "g-3", "group"}) {
    McastWriter out(group, payload.size());
    out.payload().write_u8(5);
    out.payload().write_u64(0x0102030405060708ull);
    const McastFrame frame = out.finish();
    EXPECT_EQ(frame.wire, encode_mcast(McastMsg{group, payload})) << group;
    EXPECT_EQ(frame.payload_size, payload.size());
  }
}

TEST(GcWireTest, DeliverRoundTrip) {
  LenFramer f;
  f.feed(encode_deliver(DeliverMsg{"g", "sender-1", 42, Bytes{1, 2}}));
  auto frame = f.next();
  ASSERT_TRUE(frame.has_value());
  auto m = decode_deliver(frame->payload);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->sender, "sender-1");
  EXPECT_EQ(m->seq, 42u);
  EXPECT_EQ(m->payload, (Bytes{1, 2}));
}

TEST(GcWireTest, ViewRoundTrip) {
  LenFramer f;
  f.feed(encode_view(ViewMsg{"g", 7, {"a", "b", "c"}}));
  auto frame = f.next();
  ASSERT_TRUE(frame.has_value());
  auto m = decode_view(frame->payload);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->view_id, 7u);
  EXPECT_EQ(m->members, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(GcWireTest, EmptyViewRoundTrip) {
  LenFramer f;
  f.feed(encode_view(ViewMsg{"g", 1, {}}));
  auto m = decode_view(f.next()->payload);
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(m->members.empty());
}

TEST(GcWireTest, OrderedRoundTrip) {
  OrderedMsg o;
  o.seq = 100;
  o.origin = 3;
  o.msg_id = 55;
  o.kind = PayloadKind::kJoin;
  o.group = "servers";
  o.member = "replica/2";
  o.payload = Bytes{0xFF};
  LenFramer f;
  f.feed(encode_ordered(o));
  auto frame = f.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->op, Op::kOrdered);
  auto m = decode_ordered_like(frame->payload);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->seq, 100u);
  EXPECT_EQ(m->origin, 3u);
  EXPECT_EQ(m->msg_id, 55u);
  EXPECT_EQ(m->kind, PayloadKind::kJoin);
  EXPECT_EQ(m->group, "servers");
  EXPECT_EQ(m->member, "replica/2");
}

TEST(GcWireTest, SubmitUsesSubmitOpcode) {
  OrderedMsg o;
  o.group = "g";
  o.member = "m";
  LenFramer f;
  f.feed(encode_submit(o));
  EXPECT_EQ(f.next()->op, Op::kSubmit);
}

TEST(GcWireTest, HeartbeatRoundTrip) {
  LenFramer f;
  f.feed(encode_heartbeat(HeartbeatMsg{4}));
  auto frame = f.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(decode_heartbeat(frame->payload)->daemon_id, 4u);
}

TEST(GcWireTest, SeqWatermarkRoundTrip) {
  LenFramer f;
  f.feed(encode_seq_watermark(SeqWatermarkMsg{3, 12345}));
  auto frame = f.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->op, Op::kSeqWatermark);
  auto m = decode_seq_watermark(frame->payload);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->daemon_id, 3u);
  EXPECT_EQ(m->next_seq, 12345u);
}

TEST(GcWireTest, SeqWatermarkRejectsTruncated) {
  const Bytes whole = encode_seq_watermark(SeqWatermarkMsg{1, 7});
  Bytes body(whole.begin() + 5, whole.end());  // strip len+opcode
  body.resize(body.size() - 1);
  EXPECT_FALSE(decode_seq_watermark(body).ok());
}

TEST(FrameBatchTest, RoundTripIdentity) {
  const std::vector<Bytes> frames = {
      encode_heartbeat(HeartbeatMsg{2}),
      encode_submit([] {
        OrderedMsg o;
        o.group = "g";
        o.member = "m";
        o.payload = Bytes{1, 2, 3};
        return o;
      }()),
      encode_seq_watermark(SeqWatermarkMsg{0, 99}),
  };
  LenFramer f;
  f.feed(encode_frame_batch(frames));
  auto outer = f.next();
  ASSERT_TRUE(outer.has_value());
  EXPECT_EQ(outer->op, Op::kFrameBatch);
  auto inner = decode_frame_batch(outer->payload);
  ASSERT_TRUE(inner.ok());
  ASSERT_EQ(inner->size(), 3u);
  EXPECT_EQ((*inner)[0].op, Op::kHeartbeat);
  EXPECT_EQ((*inner)[1].op, Op::kSubmit);
  EXPECT_EQ((*inner)[2].op, Op::kSeqWatermark);
  auto sub = decode_ordered_like((*inner)[1].payload);
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->group, "g");
  EXPECT_EQ(sub->payload, (Bytes{1, 2, 3}));
}

TEST(FrameBatchTest, EmptyBatchIsMalformed) {
  auto r = decode_frame_batch(Bytes{});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), WireErr::kMalformed);
}

TEST(FrameBatchTest, TruncatedSubFrameRejected) {
  Bytes payload = encode_heartbeat(HeartbeatMsg{1});
  Bytes cut(payload.begin(), payload.end() - 2);
  auto r = decode_frame_batch(cut);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), WireErr::kTruncated);
  // A dangling length prefix with no opcode byte is also truncation.
  Bytes dangling = payload;
  append_bytes(dangling, Bytes{5, 0, 0});
  r = decode_frame_batch(dangling);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), WireErr::kTruncated);
}

TEST(FrameBatchTest, UnknownSubOpRejected) {
  Bytes payload = encode_heartbeat(HeartbeatMsg{1});
  append_bytes(payload, Bytes{1, 0, 0, 0, 99});  // len 1, opcode 99
  auto r = decode_frame_batch(payload);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), WireErr::kUnknownOp);
}

TEST(FrameBatchTest, NestedBatchRejected) {
  const Bytes inner = encode_frame_batch({encode_heartbeat(HeartbeatMsg{1})});
  LenFramer f;
  f.feed(encode_frame_batch({inner}));
  auto outer = f.next();
  ASSERT_TRUE(outer.has_value());
  auto r = decode_frame_batch(outer->payload);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), WireErr::kMalformed);
}

TEST(FrameBatchTest, MixedVersionStreamKeepsFraming) {
  // A batch in the middle of a stream of plain frames: the framer hands
  // each top-level frame over intact, old and new ops side by side.
  Bytes stream = encode_heartbeat(HeartbeatMsg{1});
  append_bytes(stream, encode_frame_batch({encode_heartbeat(HeartbeatMsg{2}),
                                           encode_heartbeat(HeartbeatMsg{3})}));
  append_bytes(stream, encode_seq_watermark(SeqWatermarkMsg{1, 4}));
  LenFramer f;
  f.feed(stream);
  EXPECT_EQ(f.next()->op, Op::kHeartbeat);
  auto batch = f.next();
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->op, Op::kFrameBatch);
  EXPECT_EQ(decode_frame_batch(batch->payload)->size(), 2u);
  EXPECT_EQ(f.next()->op, Op::kSeqWatermark);
  EXPECT_FALSE(f.next().has_value());
  EXPECT_FALSE(f.corrupt());
}

TEST(LenFramerTest, FragmentedFramesReassemble) {
  Bytes stream = encode_mcast(McastMsg{"group-a", Bytes(100, 1)});
  append_bytes(stream, encode_heartbeat(HeartbeatMsg{1}));
  for (int chunk : {1, 3, 7, 50}) {
    LenFramer f;
    int frames = 0;
    for (std::size_t i = 0; i < stream.size(); i += static_cast<std::size_t>(chunk)) {
      const auto end = std::min(stream.size(), i + static_cast<std::size_t>(chunk));
      f.feed(Bytes(stream.begin() + static_cast<std::ptrdiff_t>(i),
                   stream.begin() + static_cast<std::ptrdiff_t>(end)));
      while (f.next().has_value()) ++frames;
    }
    EXPECT_EQ(frames, 2) << "chunk=" << chunk;
    EXPECT_EQ(f.buffered(), 0u);
  }
}

TEST(LenFramerTest, ManySmallFramesPerChunkAndASplitFrame) {
  // Each chunk carries many whole frames and then the head of the next
  // one; its tail arrives with the following chunk, after the consumed
  // frames ahead of it have been dropped.
  constexpr int kChunks = 20;
  constexpr int kPerChunk = 200;
  Bytes stream;
  for (int i = 0; i < kChunks * kPerChunk; ++i) {
    append_bytes(stream, encode_heartbeat(HeartbeatMsg{static_cast<std::uint64_t>(i)}));
  }
  const std::size_t frame_size = stream.size() / (kChunks * kPerChunk);
  LenFramer f;
  std::uint64_t next_id = 0;
  std::size_t fed = 0;
  for (int c = 1; c <= kChunks; ++c) {
    const std::size_t end = c == kChunks ? stream.size()
                                         : c * kPerChunk * frame_size + frame_size / 2;
    f.feed(Bytes(stream.begin() + static_cast<std::ptrdiff_t>(fed),
                 stream.begin() + static_cast<std::ptrdiff_t>(end)));
    fed = end;
    while (auto frame = f.next()) {
      ASSERT_EQ(frame->op, Op::kHeartbeat);
      EXPECT_EQ(decode_heartbeat(frame->payload)->daemon_id, next_id++);
    }
    EXPECT_EQ(f.buffered(), c == kChunks ? 0 : frame_size / 2);
  }
  EXPECT_EQ(next_id, static_cast<std::uint64_t>(kChunks * kPerChunk));
  EXPECT_EQ(f.buffered(), 0u);
  EXPECT_FALSE(f.corrupt());
}

TEST(LenFramerTest, BadOpcodePoisons) {
  LenFramer f;
  Bytes evil{1, 0, 0, 0, 99};  // len 1, opcode 99
  f.feed(evil);
  EXPECT_FALSE(f.next().has_value());
  EXPECT_TRUE(f.corrupt());
}

TEST(LenFramerTest, InsaneLengthPoisons) {
  LenFramer f;
  Bytes evil{0xFF, 0xFF, 0xFF, 0x7F, 1};
  f.feed(evil);
  EXPECT_FALSE(f.next().has_value());
  EXPECT_TRUE(f.corrupt());
}

TEST(LenFramerTest, MalformedPayloadRejectedByDecoder) {
  LenFramer f;
  Bytes evil{2, 0, 0, 0, static_cast<std::uint8_t>(Op::kDeliver), 0xAA};
  f.feed(evil);
  auto frame = f.next();
  ASSERT_TRUE(frame.has_value());  // framing fine...
  EXPECT_FALSE(decode_deliver(frame->payload).ok());  // ...content is not
}

TEST(InflatedCountTest, CountDecodersRejectWithoutThrowing) {
  // A count read off the wire sizes a reservation; claiming 0xFFFFFFFF
  // entries must fail to decode, not throw out of reserve().
  auto body = [](const Bytes& frame) {
    return Bytes(frame.begin() + 5, frame.end());  // strip len+opcode
  };
  auto inflate_tail = [](Bytes payload) {
    for (std::size_t i = payload.size() - 4; i < payload.size(); ++i) payload[i] = 0xFF;
    return payload;
  };
  const Bytes view = inflate_tail(body(encode_view(ViewMsg{"g", 1, {}})));
  EXPECT_NO_THROW(EXPECT_FALSE(decode_view(view).ok()));
  const Bytes alive = inflate_tail(body(encode_alive_set(AliveSetMsg{})));
  EXPECT_NO_THROW(EXPECT_FALSE(decode_alive_set(alive).ok()));
  // State sync: the group count (its first u32, after next_seq)...
  Bytes sync = body(encode_state_sync(StateSyncMsg{}));
  for (std::size_t i = 8; i < 12; ++i) sync[i] = 0xFF;
  EXPECT_NO_THROW(EXPECT_FALSE(decode_state_sync(sync).ok()));
  // ...and the trailing alive count.
  sync = inflate_tail(body(encode_state_sync(StateSyncMsg{})));
  EXPECT_NO_THROW(EXPECT_FALSE(decode_state_sync(sync).ok()));
}

}  // namespace
}  // namespace mead::gc

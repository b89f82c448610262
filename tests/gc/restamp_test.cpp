// The encode-once contracts of the GC plane: a kSubmit frame restamped in
// place is byte for byte the kOrdered frame encoded whole, and decoders
// return views into the frame they read.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "gc/wire.h"

namespace mead::gc {
namespace {

Bytes pattern(std::size_t n, std::uint32_t seed) {
  Bytes out(n);
  std::uint32_t x = seed * 2654435761U + 1;
  for (auto& b : out) {
    x = x * 1664525U + 1013904223U;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  return out;
}

OrderedMsg message(std::size_t group_len, std::size_t member_len,
                   std::size_t payload_len, std::uint64_t seq) {
  OrderedMsg m;
  m.seq = seq;
  m.origin = 3;
  m.msg_id = 0x0102030405060708ULL + seq;
  m.kind = static_cast<PayloadKind>(seq % 3);
  m.group = std::string(group_len, 'g');
  m.member = std::string(member_len, 'm');
  m.payload = pattern(payload_len, static_cast<std::uint32_t>(seq));
  return m;
}

/// The submission of `m`: what its origin encodes, before any stamp.
Bytes submit_of(const OrderedMsg& m) {
  OrderedMsg unstamped = m;
  unstamped.seq = 0;
  return encode_submit(unstamped);
}

bool inside(const void* p, ByteView bytes) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  return b >= bytes.data() && b < bytes.data() + bytes.size();
}

const std::vector<std::size_t> kPayloadSizes{0, 1, 7, 8, 12 * 1024, 370'000};

TEST(RestampGoldenTest, RestampedSubmitEqualsEncodeOrdered) {
  std::uint64_t seq = 0x1122334455667788ULL;
  for (std::size_t payload : kPayloadSizes) {
    // Group and member lengths over every residue mod 8, so the member
    // string and the payload's length prefix meet every padding.
    for (std::size_t group = 0; group < 8; ++group) {
      for (std::size_t member = 0; member < 8; ++member) {
        const OrderedMsg m = message(group, member, payload, ++seq);
        Frame frame(Op::kSubmit, submit_of(m));
        frame.restamp(Op::kOrdered, m.seq);
        ASSERT_EQ(frame.wire(), encode_ordered(m))
            << "payload " << payload << " group " << group << " member " << member;
      }
    }
  }
}

TEST(RestampGoldenTest, FrameRestampMatchesAndReverts) {
  const OrderedMsg m = message(5, 3, 12 * 1024, 77);
  // A frame that takes a buffer holding another frame ahead of it.
  Bytes chunk = encode_heartbeat(HeartbeatMsg{1});
  append_bytes(chunk, submit_of(m));
  LenFramer framer;
  framer.feed(std::move(chunk));
  ASSERT_TRUE(framer.next().has_value());
  auto f = framer.next();
  ASSERT_TRUE(f.has_value());
  ASSERT_EQ(f->op, Op::kSubmit);
  f->restamp(Op::kOrdered, m.seq);
  EXPECT_EQ(f->op, Op::kOrdered);
  EXPECT_EQ(f->wire(), encode_ordered(m));
  EXPECT_EQ(decode_ordered_like(f->payload)->seq, m.seq);
  // Back to a submission, as a stale stamp leaves it for resubmission.
  f->restamp(Op::kSubmit, 0);
  EXPECT_EQ(f->wire(), submit_of(m));
}

TEST(RestampGoldenTest, RestampOfASharedFrameLeavesTheOtherHolder) {
  const OrderedMsg m = message(5, 3, 12 * 1024, 91);
  // The origin keeps its submission while a share of it reaches the
  // stamper, uncopied, through the stamper's framer.
  Frame pending(Op::kSubmit, submit_of(m));
  LenFramer framer;
  framer.feed(pending.share_wire());
  auto f = framer.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->wire().data(), pending.wire().data());
  f->restamp(Op::kOrdered, m.seq);
  EXPECT_EQ(f->wire(), encode_ordered(m));
  EXPECT_NE(f->wire().data(), pending.wire().data());
  // The restamped frame's views follow its copy.
  auto stamped = decode_ordered_like(f->payload);
  ASSERT_TRUE(stamped.ok());
  EXPECT_EQ(stamped->seq, m.seq);
  EXPECT_TRUE(inside(stamped->payload.data(), f->wire()));
  // The origin's kSubmit bytes are as it encoded them.
  EXPECT_EQ(pending.wire(), submit_of(m));
  EXPECT_EQ(decode_ordered_like(pending.payload)->seq, 0u);
  // A stale stamp reverts the frame after it went out: the peers' shares
  // keep the kOrdered bytes.
  const Bytes sent = f->share_wire();
  f->restamp(Op::kSubmit, 0);
  EXPECT_EQ(f->wire(), submit_of(m));
  EXPECT_EQ(sent, encode_ordered(m));
}

TEST(RestampGoldenTest, BatchedSubFramesRestampInPlace) {
  std::vector<OrderedMsg> msgs;
  std::vector<Bytes> frames;
  for (std::size_t i = 0; i < 8; ++i) {
    msgs.push_back(message(i, 7 - i, kPayloadSizes[i % kPayloadSizes.size()] % 20'000,
                           1000 + i));
    frames.push_back(submit_of(msgs.back()));
  }
  frames.push_back(encode_heartbeat(HeartbeatMsg{2}));  // a non-submit neighbour
  LenFramer framer;
  framer.feed(encode_frame_batch(frames));
  auto batch = framer.next();
  ASSERT_TRUE(batch.has_value());
  auto subs = decode_frame_batch(batch->payload);
  ASSERT_TRUE(subs.ok());
  ASSERT_EQ(subs->size(), frames.size());
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    Frame& sub = (*subs)[i];
    EXPECT_EQ(sub.wire(), frames[i]);  // the sub-frame keeps its header
    sub.restamp(Op::kOrdered, msgs[i].seq);
    EXPECT_EQ(sub.wire(), encode_ordered(msgs[i])) << "sub-frame " << i;
  }
  EXPECT_EQ(subs->back().wire(), frames.back());
}

TEST(DecodeViewTest, PayloadsViewTheFramesOwnBytes) {
  const Bytes payload = pattern(12 * 1024, 5);
  LenFramer framer;
  Bytes stream = encode_deliver(DeliverMsg{"grp", "sender", 9, payload});
  append_bytes(stream, encode_ordered(message(4, 6, 12 * 1024, 10)));
  append_bytes(stream, encode_mcast(McastMsg{"grp", payload}));
  framer.feed(std::move(stream));

  auto deliver = framer.next();
  ASSERT_TRUE(deliver.has_value());
  auto d = decode_deliver(deliver->payload);
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(inside(d->payload.data(), deliver->wire()));
  EXPECT_TRUE(inside(d->group.data(), deliver->wire()));
  EXPECT_TRUE(inside(d->sender.data(), deliver->wire()));
  EXPECT_EQ(d->payload, payload);

  auto ordered = framer.next();
  ASSERT_TRUE(ordered.has_value());
  auto o = decode_ordered_like(ordered->payload);
  ASSERT_TRUE(o.ok());
  EXPECT_TRUE(inside(o->payload.data(), ordered->wire()));
  EXPECT_TRUE(inside(o->group.data(), ordered->wire()));
  EXPECT_TRUE(inside(o->member.data(), ordered->wire()));
  EXPECT_EQ(o->payload, message(4, 6, 12 * 1024, 10).payload);

  auto mcast = framer.next();  // ends the buffer: took it whole
  ASSERT_TRUE(mcast.has_value());
  auto c = decode_mcast(mcast->payload);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(inside(c->payload.data(), mcast->wire()));
  EXPECT_TRUE(inside(c->group.data(), mcast->wire()));
  EXPECT_EQ(c->payload, payload);
}

TEST(DecodeViewTest, OrderedMsgConvertsToAViewOfItself) {
  const OrderedMsg m = message(3, 2, 100, 4);
  const OrderedView v = m;
  EXPECT_EQ(v.group.data(), m.group.data());
  EXPECT_EQ(v.payload.data(), m.payload.data());
  EXPECT_EQ(encode_submit(v), encode_submit(m));
}

}  // namespace
}  // namespace mead::gc

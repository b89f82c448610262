#include "core/mead_wire.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "gc/wire.h"
#include "giop/cdr.h"
#include "state/checkpoint.h"

namespace mead::core {
namespace {

giop::IOR test_ior(const std::string& host = "node1") {
  return giop::IOR{"IDL:mead/TimeOfDay:1.0", net::Endpoint{host, 20001},
                   giop::ObjectKey::make_persistent("POA/obj")};
}

TEST(FailoverFrameTest, RoundTrip) {
  const FailoverMsg msg{net::Endpoint{"node2", 20002}, "replica/2"};
  const Bytes frame = encode_failover_frame(msg);
  auto decoded = decode_failover_frame(frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, msg);
}

TEST(FailoverFrameTest, HeaderIsMeadMagic) {
  const Bytes frame =
      encode_failover_frame(FailoverMsg{net::Endpoint{"n", 1}, "m"});
  auto h = giop::decode_header(frame);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->magic, giop::Magic::kMead);
  EXPECT_EQ(h->body_size + giop::kHeaderSize, frame.size());
}

TEST(FailoverFrameTest, RejectsGiopFrame) {
  const Bytes giop_frame = giop::encode_reply(
      giop::ReplyMessage{1, giop::ReplyStatus::kNoException, {}});
  EXPECT_FALSE(decode_failover_frame(giop_frame).has_value());
}

TEST(FailoverFrameTest, RejectsTruncated) {
  Bytes frame = encode_failover_frame(FailoverMsg{net::Endpoint{"n", 1}, "m"});
  frame.resize(frame.size() - 3);
  EXPECT_FALSE(decode_failover_frame(frame).has_value());
}

TEST(FailoverFrameTest, SplitsCleanlyFromPiggybackedStream) {
  // The §4.3 wire pattern: MEAD frame immediately followed by a GIOP reply.
  Bytes stream =
      encode_failover_frame(FailoverMsg{net::Endpoint{"node3", 20003}, "r3"});
  append_bytes(stream, giop::encode_reply(giop::ReplyMessage{
                           9, giop::ReplyStatus::kNoException, {}}));
  giop::FrameBuffer fb;
  fb.feed(stream);
  auto first = fb.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->header.magic, giop::Magic::kMead);
  auto failover = decode_failover_frame(first->data);
  ASSERT_TRUE(failover.has_value());
  EXPECT_EQ(failover->target.port, 20003);
  auto second = fb.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->header.magic, giop::Magic::kGiop);
  EXPECT_EQ(giop::decode_reply(second->data)->request_id, 9u);
  EXPECT_FALSE(fb.next().has_value());
}

TEST(CtrlMsgTest, AnnounceRoundTrip) {
  const Announce a{"replica/1", net::Endpoint{"node1", 20001}, test_ior()};
  auto msg = decode_ctrl(encode_announce(a));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->kind, CtrlKind::kAnnounce);
  ASSERT_TRUE(msg->announce.has_value());
  EXPECT_EQ(*msg->announce, a);
}

TEST(CtrlMsgTest, ListingRoundTrip) {
  Listing l;
  l.entries.push_back(Announce{"r1", net::Endpoint{"node1", 1}, test_ior("node1")});
  l.entries.push_back(Announce{"r2", net::Endpoint{"node2", 2}, test_ior("node2")});
  auto msg = decode_ctrl(encode_listing(l));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->kind, CtrlKind::kListing);
  ASSERT_TRUE(msg->listing.has_value());
  EXPECT_EQ(*msg->listing, l);
}

TEST(CtrlMsgTest, EmptyListingRoundTrip) {
  auto msg = decode_ctrl(encode_listing(Listing{}));
  ASSERT_TRUE(msg.has_value());
  EXPECT_TRUE(msg->listing->entries.empty());
}

TEST(CtrlMsgTest, LaunchRequestRoundTrip) {
  const LaunchRequest req{"replica/3", 0.82};
  auto msg = decode_ctrl(encode_launch_request(req));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->kind, CtrlKind::kLaunchRequest);
  EXPECT_EQ(*msg->launch, req);
}

TEST(CtrlMsgTest, PrimaryQueryAnswerRoundTrip) {
  const PrimaryQuery q{"#reply/client/1", 42};
  auto qm = decode_ctrl(encode_primary_query(q));
  ASSERT_TRUE(qm.has_value());
  EXPECT_EQ(*qm->query, q);

  const PrimaryAnswer a{"replica/2", net::Endpoint{"node2", 20002}, 42};
  auto am = decode_ctrl(encode_primary_answer(a));
  ASSERT_TRUE(am.has_value());
  EXPECT_EQ(*am->answer, a);
  EXPECT_EQ(am->answer->nonce, 42u);
}

TEST(CtrlMsgTest, StateTransferRoundTrip) {
  const StateTransfer st{"replica/1", 7, Bytes{1, 2, 3}};
  auto msg = decode_ctrl(encode_state(st));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(*msg->state, st);
}

TEST(CtrlMsgTest, RejectsEmptyPayload) {
  EXPECT_FALSE(decode_ctrl(Bytes{}).has_value());
}

TEST(CtrlMsgTest, RejectsUnknownKind) {
  // 10 and 14 are retired kind numbers (the delta read set and its NACK).
  for (int kind : {99, 10, 14}) {
    Bytes evil{static_cast<std::uint8_t>(kind), 0, 0, 0};
    EXPECT_FALSE(decode_ctrl(evil).has_value()) << kind;
  }
}

TEST(CtrlMsgTest, RejectsTruncatedBody) {
  Bytes frame = encode_announce(
      Announce{"replica/1", net::Endpoint{"node1", 20001}, test_ior()});
  frame.resize(frame.size() / 2);
  EXPECT_FALSE(decode_ctrl(frame).has_value());
}

TEST(CtrlMsgTest, ReadSetRoundTrip) {
  ReadSet rs;
  rs.version = 4;
  rs.primary = "replica/1";
  rs.entries.push_back(Announce{"r1", net::Endpoint{"node1", 1}, test_ior("node1")});
  rs.entries.push_back(Announce{"r2", net::Endpoint{"node2", 2}, test_ior("node2")});
  auto msg = decode_ctrl(encode_read_set(rs));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->kind, CtrlKind::kReadSet);
  ASSERT_TRUE(msg->read_set.has_value());
  EXPECT_EQ(*msg->read_set, rs);
}

TEST(CtrlMsgTest, CkptDeltaRoundTrip) {
  CkptDelta c;
  c.member = "replica/2";
  c.nonce = 0;  // periodic push
  c.epoch = 7;
  c.base_epoch = 5;
  c.is_base = false;
  c.applied = 420;
  c.prev_digest = 0xDEADBEEFull;
  c.digest = 0xFEEDFACEull;
  c.value_pad = 32;
  c.entries = {{3, 111}, {9, 222}, {14, 333}};
  auto msg = decode_ctrl(encode_ckpt_delta(c));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->kind, CtrlKind::kCkptDelta);
  ASSERT_TRUE(msg->ckpt_delta.has_value());
  EXPECT_EQ(*msg->ckpt_delta, c);
}

TEST(CtrlMsgTest, CkptBaseWithNonceRoundTrip) {
  // A directed base snapshot answering a restore request.
  CkptDelta c;
  c.member = "replica/1";
  c.nonce = 0x1234ABCDull;
  c.epoch = 5;
  c.base_epoch = 5;
  c.is_base = true;
  c.applied = 400;
  c.digest = 42;
  c.entries = {{0, 1}, {1, 2}};
  auto msg = decode_ctrl(encode_ckpt_delta(c));
  ASSERT_TRUE(msg.has_value());
  ASSERT_TRUE(msg->ckpt_delta.has_value());
  EXPECT_TRUE(msg->ckpt_delta->is_base);
  EXPECT_EQ(msg->ckpt_delta->nonce, c.nonce);
  EXPECT_EQ(*msg->ckpt_delta, c);
}

TEST(CtrlMsgTest, CkptRequestRoundTrip) {
  const CkptRequest req{"replica/4", 0xFACEull, 6};
  auto msg = decode_ctrl(encode_ckpt_request(req));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->kind, CtrlKind::kCkptRequest);
  ASSERT_TRUE(msg->ckpt_request.has_value());
  EXPECT_EQ(*msg->ckpt_request, req);
}

TEST(CtrlMsgTest, LogReplayRoundTrip) {
  LogReplay lr;
  lr.member = "replica/1";
  lr.nonce = 99;
  lr.applied = 450;
  lr.digest = 0xABCDull;
  lr.entries = {441, 442, 443, 444, 445, 446, 447, 448, 449, 450};
  auto msg = decode_ctrl(encode_log_replay(lr));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->kind, CtrlKind::kLogReplay);
  ASSERT_TRUE(msg->log_replay.has_value());
  EXPECT_EQ(*msg->log_replay, lr);
}

TEST(CtrlMsgTest, EmptyLogReplayRoundTrip) {
  // A primary whose log is empty (checkpoint just truncated it) still
  // closes the handshake with an empty suffix.
  LogReplay lr;
  lr.member = "replica/1";
  lr.nonce = 7;
  lr.applied = 100;
  lr.digest = 11;
  auto msg = decode_ctrl(encode_log_replay(lr));
  ASSERT_TRUE(msg.has_value());
  ASSERT_TRUE(msg->log_replay.has_value());
  EXPECT_TRUE(msg->log_replay->entries.empty());
  EXPECT_EQ(*msg->log_replay, lr);
}

TEST(CtrlMsgTest, RejectsTruncatedStateFrames) {
  CkptDelta c;
  c.member = "replica/2";
  c.epoch = 1;
  c.base_epoch = 1;
  c.is_base = true;
  c.entries = {{0, 5}, {1, 6}};
  LogReplay lr;
  lr.member = "replica/1";
  lr.entries = {1, 2, 3};
  for (const Bytes& frame :
       {encode_ckpt_delta(c), encode_ckpt_request(CkptRequest{"r", 1, 0}),
        encode_log_replay(lr)}) {
    for (std::size_t cut : {std::size_t{1}, frame.size() / 2}) {
      Bytes t(frame.begin(), frame.end() - static_cast<std::ptrdiff_t>(cut));
      EXPECT_FALSE(decode_ctrl(t).has_value()) << "cut=" << cut;
    }
  }
}

// ---- wire-identical pins ----
//
// The encoders write the kind byte (or gc frame header) first and align
// the body relative to it; these bytes were captured from the earlier
// encoders that built the body on its own and copied it behind the
// header, so any drift in layout or alignment shows up here.

Bytes from_hex(const std::string& hex) {
  Bytes out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

CkptDelta golden_ckpt(std::uint32_t value_pad) {
  CkptDelta c;
  c.member = "replica/2";  // odd length: the u64s after it need padding
  c.nonce = 0x1122334455667788ull;
  c.epoch = 7;
  c.base_epoch = 5;
  c.applied = 420;
  c.prev_digest = 0xDEADBEEFull;
  c.digest = 0xFEEDFACEull;
  c.value_pad = value_pad;
  c.entries = {{3, 111}, {9, 222}, {14, 0x0102030405060708ull}};
  return c;
}

LogReplay golden_log_replay() {
  LogReplay lr;
  lr.member = "replica/1";
  lr.nonce = 99;
  lr.applied = 450;
  lr.digest = 0xABCDull;
  lr.entries = {441, 442, 443};
  return lr;
}

gc::OrderedMsg golden_ordered() {
  gc::OrderedMsg o;
  o.seq = 100;
  o.origin = 3;
  o.msg_id = 55;
  o.kind = gc::PayloadKind::kData;
  o.group = "servers";
  o.member = "replica/2";
  o.payload = Bytes{0xAA, 0xBB, 0xCC};
  return o;
}

/// Every proper prefix of `frame` must be rejected, never misread.
void expect_every_truncation_rejected(const Bytes& frame) {
  for (std::size_t len = 0; len < frame.size(); ++len) {
    const Bytes t(frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_FALSE(decode_ctrl(t).has_value()) << "len=" << len;
  }
}

TEST(WireGoldenTest, FailoverFrameBytes) {
  const FailoverMsg msg{net::Endpoint{"node2", 20002}, "replica/2"};
  const Bytes frame = encode_failover_frame(msg);
  EXPECT_EQ(frame, from_hex("4d454144010201001a000000060000006e6f64653200224e"
                            "0a0000007265706c6963612f3200"));
  auto decoded = decode_failover_frame(frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, msg);
}

TEST(WireGoldenTest, CkptDeltaBytesAcrossValuePads) {
  const std::pair<std::uint32_t, const char*> golden[] = {
      {0, "0b0a0000007265706c6963612f32000000887766554433221107000000000000"
           "0005000000000000000000000000000000a401000000000000efbeadde000000"
           "00cefaedfe00000000000000000300000003000000000000006f000000000000"
           "000900000000000000de000000000000000e0000000000000008070605040302"
           "01"},
      {1, "0b0a0000007265706c6963612f32000000887766554433221107000000000000"
           "0005000000000000000000000000000000a401000000000000efbeadde000000"
           "00cefaedfe00000000010000000300000003000000000000006f000000000000"
           "000000000009000000de00000000000000000000000e00000008070605040302"
           "0100"},
      {3, "0b0a0000007265706c6963612f32000000887766554433221107000000000000"
           "0005000000000000000000000000000000a401000000000000efbeadde000000"
           "00cefaedfe00000000030000000300000003000000000000006f000000000000"
           "000000000009000000de00000000000000000000000e00000008070605040302"
           "01000000"},
      {7, "0b0a0000007265706c6963612f32000000887766554433221107000000000000"
           "0005000000000000000000000000000000a401000000000000efbeadde000000"
           "00cefaedfe00000000070000000300000003000000000000006f000000000000"
           "0000000000000000000900000000000000de0000000000000000000000000000"
           "000e00000000000000080706050403020100000000000000"},
      {32, "0b0a0000007265706c6963612f32000000887766554433221107000000000000"
            "0005000000000000000000000000000000a401000000000000efbeadde000000"
            "00cefaedfe00000000200000000300000003000000000000006f000000000000"
            "0000000000000000000000000000000000000000000000000000000000000000"
            "000900000000000000de00000000000000000000000000000000000000000000"
            "00000000000000000000000000000000000e0000000000000008070605040302"
            "0100000000000000000000000000000000000000000000000000000000000000"
            "00"},
  };
  for (const auto& [pad, hex] : golden) {
    const CkptDelta c = golden_ckpt(pad);
    const Bytes frame = encode_ckpt_delta(c);
    EXPECT_EQ(frame, from_hex(hex)) << "value_pad=" << pad;
    auto msg = decode_ctrl(frame);
    ASSERT_TRUE(msg.has_value()) << "value_pad=" << pad;
    EXPECT_EQ(*msg->ckpt_delta, c);
    expect_every_truncation_rejected(frame);
  }
}

/// A kCkptDelta written one CDR field at a time: the reference the bulk
/// entry codec must match byte for byte. `pad_at` is where the value_pad
/// field sits.
struct FieldByField {
  Bytes frame;
  std::size_t pad_at = 0;
};

FieldByField encode_ckpt_field_by_field(const CkptDelta& c) {
  giop::CdrWriter w;
  w.write_u8(static_cast<std::uint8_t>(CtrlKind::kCkptDelta));
  w.begin_stream();
  w.write_string(c.member);
  w.write_u64(c.nonce);
  w.write_u64(c.epoch);
  w.write_u64(c.base_epoch);
  w.write_bool(c.is_base);
  w.write_u64(c.applied);
  w.write_u64(c.prev_digest);
  w.write_u64(c.digest);
  w.write_u32(c.value_pad);
  const std::size_t pad_at = w.size() - 4;
  w.write_u32(static_cast<std::uint32_t>(c.entries.size()));
  const Bytes pad(c.value_pad);
  for (const auto& [key, value] : c.entries) {
    w.write_u32(key);
    w.write_u64(value);
    w.write_raw(pad);
  }
  return {w.take(), pad_at};
}

TEST(WireGoldenTest, CkptBulkCodecMatchesFieldByField) {
  std::vector<std::uint32_t> pads;
  for (std::uint32_t p = 0; p <= 9; ++p) pads.push_back(p);
  pads.push_back(31);
  pads.push_back(32);
  for (const std::uint32_t pad : pads) {
    // Member lengths 1-8 start the entry block at every offset modulo 8.
    for (std::size_t len = 1; len <= 8; ++len) {
      CkptDelta c = golden_ckpt(pad);
      c.member = std::string(len, 'r');
      c.entries.emplace_back(0xFFFFFFFFu, ~0ull);
      const FieldByField ref = encode_ckpt_field_by_field(c);
      const Bytes frame = encode_ckpt_delta(c);
      ASSERT_EQ(frame, ref.frame) << "value_pad=" << pad << " member=" << len;
      auto msg = decode_ctrl(ref.frame);
      ASSERT_TRUE(msg.has_value()) << "value_pad=" << pad << " member=" << len;
      EXPECT_EQ(*msg->ckpt_delta, c);
      expect_every_truncation_rejected(frame);
      // A pad inflated past the frame fails the block check, as an
      // inflated count does.
      Bytes wide = frame;
      for (std::size_t i = 0; i < 4; ++i) wide[ref.pad_at + i] = 0xFF;
      std::optional<CtrlMsg> out;
      EXPECT_NO_THROW(out = decode_ctrl(wide));
      EXPECT_FALSE(out.has_value()) << "value_pad=" << pad << " member=" << len;
    }
  }
}

TEST(WireGoldenTest, CkptFromCheckpointMatchesCkptDeltaBytes) {
  for (const std::uint32_t pad : {0u, 1u, 3u, 7u, 32u}) {
    const CkptDelta d = golden_ckpt(pad);
    const state::Checkpoint c{.epoch = d.epoch, .base_epoch = d.base_epoch,
                              .is_base = d.is_base, .applied = d.applied,
                              .prev_digest = d.prev_digest, .digest = d.digest,
                              .entries = d.entries};
    EXPECT_EQ(encode_ckpt_delta(c, d.member, d.nonce, pad),
              encode_ckpt_delta(d))
        << "value_pad=" << pad;
  }
}

TEST(WireGoldenTest, LogReplayBytes) {
  const Bytes frame = encode_log_replay(golden_log_replay());
  EXPECT_EQ(frame, from_hex("0d0a0000007265706c6963612f310000006300000000000000c2010000000000"
                            "00cdab0000000000000300000000000000b901000000000000ba010000000000"
                            "00bb01000000000000"));
  auto msg = decode_ctrl(frame);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(*msg->log_replay, golden_log_replay());
  expect_every_truncation_rejected(frame);
}

TEST(WireGoldenTest, GcOrderedSubmitDeliverMcastBytes) {
  const gc::OrderedMsg o = golden_ordered();
  EXPECT_EQ(gc::encode_ordered(o),
            from_hex("4000000016640000000000000003000000000000003700000000000000000000"
                     "000800000073657276657273000a0000007265706c6963612f32000000030000"
                     "00aabbcc"));
  EXPECT_EQ(gc::encode_submit(o),
            from_hex("4000000015640000000000000003000000000000003700000000000000000000"
                     "000800000073657276657273000a0000007265706c6963612f32000000030000"
                     "00aabbcc"));
  const Bytes deliver =
      from_hex("280000000a04000000672d31000900000073656e6465722d31000000002a0000"
               "000000000003000000010203");
  EXPECT_EQ(gc::encode_deliver(gc::DeliverMsg{"g-1", "sender-1", 42, Bytes{1, 2, 3}}),
            deliver);
  gc::OrderedMsg stamped;
  stamped.group = "g-1";
  stamped.member = "sender-1";
  stamped.seq = 42;
  stamped.payload = Bytes{1, 2, 3};
  EXPECT_EQ(gc::encode_deliver(stamped), deliver);  // straight from the stamp
  EXPECT_EQ(gc::encode_mcast(gc::McastMsg{"g-1", Bytes{1, 2, 3}}),
            from_hex("100000000404000000672d310003000000010203"));
}

/// Two entries with odd-length member names, so the fields behind them
/// need alignment padding.
ReadSet golden_read_set() {
  ReadSet rs;
  rs.version = 0x0102030405060708ull;
  rs.primary = "replica/1";
  rs.entries.push_back(Announce{"replica/1", net::Endpoint{"node1", 20001},
                                test_ior("node1")});
  rs.entries.push_back(Announce{"replica/22", net::Endpoint{"node2", 20022},
                                test_ior("node2")});
  return rs;
}

TEST(WireGoldenTest, ReadSetAndQuorumSetBytes) {
  const std::string entries =
      "0a0000007265706c6963612f31000000020000000a0000"
      "007265706c6963612f31000000060000006e6f64653100214e1700000049444c"
      "3a6d6561642f54696d654f664461793a312e300000060000006e6f6465310021"
      "4e34000000504f412f6f626a2323232323232323232323232323232323232323"
      "232323232323232323232323232323232323232323232323230b000000726570"
      "6c6963612f32320000060000006e6f64653200364e1700000049444c3a6d6561"
      "642f54696d654f664461793a312e300000060000006e6f64653200214e340000"
      "00504f412f6f626a232323232323232323232323232323232323232323232323"
      "232323232323232323232323232323232323232323";
  ReadSet rs = golden_read_set();
  const Bytes full = encode_read_set(rs);
  EXPECT_EQ(full, from_hex("070807060504030201" + entries));
  auto msg = decode_ctrl(full);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->kind, CtrlKind::kReadSet);
  EXPECT_EQ(*msg->read_set, rs);
  expect_every_truncation_rejected(full);

  rs.catching_up = {"replica/22"};
  const Bytes quorum = encode_quorum_set(rs);
  EXPECT_EQ(quorum, from_hex("140807060504030201" + entries +
                             "010000000b0000007265706c6963612f323200"));
  msg = decode_ctrl(quorum);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->kind, CtrlKind::kQuorumSet);
  EXPECT_EQ(*msg->read_set, rs);
  expect_every_truncation_rejected(quorum);
}

TEST(PeekCtrlKindTest, ReadsKindWithoutDecoding) {
  EXPECT_EQ(peek_ctrl_kind(encode_ckpt_delta(golden_ckpt(0))),
            CtrlKind::kCkptDelta);
  EXPECT_EQ(peek_ctrl_kind(encode_log_replay(golden_log_replay())),
            CtrlKind::kLogReplay);
  // A truncated body still peeks (the kind byte is intact); only decode
  // rejects it.
  EXPECT_EQ(peek_ctrl_kind(Bytes{static_cast<std::uint8_t>(CtrlKind::kCkptRequest)}),
            CtrlKind::kCkptRequest);
  EXPECT_FALSE(peek_ctrl_kind(Bytes{}).has_value());
}

// ---- inflated counts ----
//
// A count read off the wire sizes a reservation; a frame claiming
// 0xFFFFFFFF entries must fail to decode, not throw out of reserve().

/// `frame` with the u32 ending `from_end` bytes before its end set to
/// 0xFFFFFFFF.
Bytes inflate(Bytes frame, std::size_t from_end) {
  for (std::size_t i = frame.size() - from_end; i < frame.size() - from_end + 4; ++i) {
    frame[i] = 0xFF;
  }
  return frame;
}

void expect_rejected_without_throw(const Bytes& frame, const char* what) {
  std::optional<CtrlMsg> msg;
  EXPECT_NO_THROW(msg = decode_ctrl(frame)) << what;
  EXPECT_FALSE(msg.has_value()) << what;
}

TEST(InflatedCountTest, EveryMultiEntryKindRejects) {
  // Encoded with no entries, each count is a frame's trailing u32 (the
  // first of two trailing counts sits 8 bytes from the end).
  expect_rejected_without_throw(
      Bytes{static_cast<std::uint8_t>(CtrlKind::kListing), 0xFF, 0xFF, 0xFF, 0xFF},
      "5-byte listing");
  expect_rejected_without_throw(inflate(encode_listing(Listing{}), 4), "listing");
  ReadSet rs;
  rs.primary = "replica/1";
  expect_rejected_without_throw(inflate(encode_read_set(rs), 4), "read set");
  expect_rejected_without_throw(inflate(encode_quorum_set(rs), 8),
                                "quorum set entries");
  expect_rejected_without_throw(inflate(encode_quorum_set(rs), 4),
                                "quorum set catching_up");
  CkptDelta c = golden_ckpt(32);
  c.entries.clear();
  expect_rejected_without_throw(inflate(encode_ckpt_delta(c), 4), "ckpt delta");
  LogReplay lr = golden_log_replay();
  lr.entries.clear();
  expect_rejected_without_throw(inflate(encode_log_replay(lr), 4), "log replay");
  expect_rejected_without_throw(inflate(encode_alive_epoch(AliveEpoch{}), 4),
                                "alive epoch");
  ReplyCache rc;
  rc.member = "replica/1";
  expect_rejected_without_throw(inflate(encode_reply_cache(rc), 4), "reply cache");
}

}  // namespace
}  // namespace mead::core

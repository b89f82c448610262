// A seeded in-tree mutator over the wire decoders the GC plane and MEAD's
// control channel run on every frame: every gc::decode_*,
// decode_frame_batch, core::decode_ctrl, both framer rules (GC and GIOP)
// and the in-place restamp.
//
// Inputs are valid frames mutated by bit flips, truncations, inflated
// length prefixes and splices of two frames. Every input must give an
// error or a value, never a crash, and a value's views must lie inside the
// bytes it was decoded from. Valid frames must round-trip. Run it under
// ASan/UBSan to turn an out-of-bounds read into a failure.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "core/mead_wire.h"
#include "gc/wire.h"
#include "giop/messages.h"

namespace mead {
namespace {

constexpr int kMutationsPerSeed = 4000;

Bytes pattern(std::size_t n, std::uint32_t seed) {
  Bytes out(n);
  std::uint32_t x = seed * 2654435761U + 1;
  for (auto& b : out) {
    x = x * 1664525U + 1013904223U;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  return out;
}

gc::OrderedMsg ordered(std::uint64_t seq, std::size_t payload) {
  gc::OrderedMsg m;
  m.seq = seq;
  m.origin = 2;
  m.msg_id = 40 + seq;
  m.kind = static_cast<gc::PayloadKind>(seq % 3);
  m.group = "mead/Svc/ckpt";
  m.member = "Svc/replica/" + std::to_string(seq);
  m.payload = pattern(payload, static_cast<std::uint32_t>(seq));
  return m;
}

/// One valid frame of every GC opcode, with and without payloads.
std::vector<Bytes> gc_corpus() {
  std::vector<Bytes> c;
  c.push_back(gc::encode_hello(gc::HelloMsg{"replica/node1/1"}));
  c.push_back(gc::encode_join(gc::GroupMsg{"g"}));
  c.push_back(gc::encode_leave(gc::GroupMsg{"grp"}));
  c.push_back(gc::encode_mcast(gc::McastMsg{"g", pattern(37, 1)}));
  c.push_back(gc::encode_mcast(gc::McastMsg{"", {}}));
  c.push_back(gc::encode_deliver(gc::DeliverMsg{"g", "s", 5, pattern(300, 2)}));
  c.push_back(gc::encode_view(gc::ViewMsg{"g", 7, {"a", "bb", "ccc"}}));
  c.push_back(gc::encode_peer_hello(gc::PeerHelloMsg{3}));
  c.push_back(gc::encode_submit(ordered(0, 64)));
  c.push_back(gc::encode_ordered(ordered(9, 1200)));
  c.push_back(gc::encode_heartbeat(gc::HeartbeatMsg{1}));
  c.push_back(gc::encode_rejoin(gc::RejoinMsg{1, 2, 3, 4}));
  gc::StateSyncMsg sync;
  sync.next_seq = 99;
  sync.groups.push_back(gc::GroupSnapshot{});
  sync.groups.back().group = "g";
  sync.groups.back().members = {"a", "b"};
  sync.groups.back().homes = {0, 1};
  sync.alive = {0, 1, 2};
  c.push_back(gc::encode_state_sync(sync));
  c.push_back(gc::encode_bridge(gc::BridgeMsg{2, true}));
  c.push_back(gc::encode_alive_set(gc::AliveSetMsg{{0, 2, 4}}));
  c.push_back(gc::encode_seq_watermark(gc::SeqWatermarkMsg{1, 77}));
  c.push_back(gc::encode_frame_batch({gc::encode_submit(ordered(0, 20)),
                                      gc::encode_heartbeat(gc::HeartbeatMsg{4}),
                                      gc::encode_ordered(ordered(11, 5))}));
  return c;
}

/// MEAD control payloads (what a kDeliver carries).
std::vector<Bytes> ctrl_corpus() {
  std::vector<Bytes> c;
  c.push_back(core::encode_launch_request(core::LaunchRequest{"Svc/replica/1", 0.8}));
  c.push_back(core::encode_primary_query(core::PrimaryQuery{"#reply/c", 12}));
  c.push_back(core::encode_state(core::StateTransfer{"Svc/replica/2", 4, pattern(40, 3)}));
  c.push_back(core::encode_node_crash(core::NodeCrash{"node3"}));
  c.push_back(core::encode_launch_failed(core::LaunchFailed{"Svc", 2}));
  core::CkptDelta d;
  d.member = "Svc/replica/1";
  d.epoch = 3;
  d.base_epoch = 2;
  d.value_pad = 4;
  for (std::uint32_t k = 0; k < 20; ++k) d.entries.emplace_back(k, k * 31ULL);
  c.push_back(core::encode_ckpt_delta(d));
  // An odd pad: the first entry and the rest take different layouts.
  d.member = "Svc/replica/12";
  d.nonce = 9;
  d.value_pad = 5;
  d.entries = {{7, 0x0102030405060708ULL}, {8, 1}, {4096, ~0ULL}};
  c.push_back(core::encode_ckpt_delta(d));
  return c;
}

/// GIOP and MEAD messages, as a client or server stream carries them.
std::vector<Bytes> giop_corpus() {
  std::vector<Bytes> c;
  c.push_back(giop::encode_request(giop::RequestMessage{
      7, true, giop::ObjectKey::make_persistent("POA/x"), "get_time", pattern(16, 4)}));
  c.push_back(giop::encode_reply(
      giop::ReplyMessage{7, giop::ReplyStatus::kNoException, pattern(12, 5)}));
  c.push_back(core::encode_failover_frame(
      core::FailoverMsg{net::Endpoint{"node2", 20002}, "Svc/replica/2"}));
  c.push_back(giop::encode_close_connection());
  return c;
}

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::size_t below(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng_() % n);
  }

  Bytes mutate(const Bytes& in, const std::vector<Bytes>& corpus) {
    Bytes out = in;
    switch (below(4)) {
      case 0: {  // bit flips
        if (out.empty()) break;
        for (std::size_t n = 1 + below(4); n > 0; --n) {
          out[below(out.size())] ^= static_cast<std::uint8_t>(1U << below(8));
        }
        break;
      }
      case 1:  // truncation
        out.resize(below(out.size() + 1));
        break;
      case 2: {  // an inflated u32 length prefix at a 4-aligned offset
        if (out.size() < 4) break;
        static constexpr std::uint32_t kLens[] = {0xFFFFFFFFU, 0x7FFFFFFFU,
                                                  0x01000001U, 0x10000U};
        const std::size_t at = below(out.size() / 4) * 4;
        std::uint32_t len = below(2) == 0 ? kLens[below(4)]
                                          : static_cast<std::uint32_t>(out.size() + below(64));
        for (std::size_t i = 0; i < 4; ++i) out[at + i] = static_cast<std::uint8_t>(len >> (8 * i));
        break;
      }
      default: {  // splice: a prefix of this frame, a suffix of another
        const Bytes& other = corpus[below(corpus.size())];
        out.resize(below(out.size() + 1));
        const std::size_t from = below(other.size() + 1);
        out.insert(out.end(), other.begin() + static_cast<std::ptrdiff_t>(from), other.end());
        break;
      }
    }
    return out;
  }

 private:
  std::mt19937_64 rng_;
};

bool within(const void* p, std::size_t n, ByteView in) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  return n == 0 || (b >= in.data() && b + n <= in.data() + in.size());
}
bool within(std::string_view s, ByteView in) { return within(s.data(), s.size(), in); }
bool within(ByteView v, ByteView in) { return within(v.data(), v.size(), in); }

/// Every GC body decoder over `body`; views must stay inside it.
void decode_gc_body(ByteView body) {
  (void)gc::decode_hello(body);
  (void)gc::decode_group(body);
  (void)gc::decode_view(body);
  (void)gc::decode_peer_hello(body);
  (void)gc::decode_heartbeat(body);
  (void)gc::decode_rejoin(body);
  (void)gc::decode_state_sync(body);
  (void)gc::decode_bridge(body);
  (void)gc::decode_alive_set(body);
  (void)gc::decode_seq_watermark(body);
  if (auto m = gc::decode_mcast(body)) {
    EXPECT_TRUE(within(m->group, body) && within(m->payload, body));
  }
  if (auto d = gc::decode_deliver(body)) {
    EXPECT_TRUE(within(d->group, body) && within(d->sender, body) &&
                within(d->payload, body));
    (void)core::decode_ctrl(d->payload);
  }
  if (auto o = gc::decode_ordered_like(body)) {
    EXPECT_TRUE(within(o->group, body) && within(o->member, body) &&
                within(o->payload, body));
  }
  if (auto subs = gc::decode_frame_batch(body)) {
    for (const gc::Frame& f : subs.value()) {
      EXPECT_TRUE(within(f.payload, f.wire()));
      EXPECT_NE(f.op, gc::Op::kFrameBatch);
    }
  }
}

/// Restamps a kSubmit/kOrdered frame that decodes: only the opcode and
/// seq may change.
void check_restamp(gc::Frame& f) {
  if (f.op != gc::Op::kSubmit && f.op != gc::Op::kOrdered) return;
  const auto before = gc::decode_ordered_like(f.payload);
  if (!before) return;
  const Bytes payload(before->payload);
  const std::string group(before->group);
  f.restamp(gc::Op::kOrdered, 0xA5A5A5A5DEADBEEFULL);
  const auto after = gc::decode_ordered_like(f.payload);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->seq, 0xA5A5A5A5DEADBEEFULL);
  EXPECT_EQ(after->group, group);
  EXPECT_EQ(after->payload, payload);
  EXPECT_EQ(f.op, gc::Op::kOrdered);
}

/// Feeds `stream` to a GC framer in chunks cut by `mut`, checking every
/// frame it yields. Returns how many it yields.
std::size_t frame_gc(const Bytes& stream, Mutator& mut) {
  gc::LenFramer framer;
  std::size_t frames = 0;
  for (std::size_t at = 0; at < stream.size();) {
    const std::size_t n = 1 + mut.below(stream.size() - at);
    framer.feed(Bytes(ByteView(stream).subspan(at, n)));
    at += n;
    while (auto f = framer.next()) {
      ++frames;
      EXPECT_TRUE(within(f->payload, f->wire()));
      EXPECT_EQ(f->wire().size(), f->payload.size() + gc::kFrameHeader);
      decode_gc_body(f->payload);
      check_restamp(*f);
    }
  }
  return frames;
}

std::size_t frame_giop(const Bytes& stream, Mutator& mut) {
  giop::FrameBuffer framer;
  std::size_t frames = 0;
  for (std::size_t at = 0; at < stream.size();) {
    const std::size_t n = 1 + mut.below(stream.size() - at);
    framer.feed(Bytes(ByteView(stream).subspan(at, n)));
    at += n;
    while (auto f = framer.next()) {
      ++frames;
      EXPECT_EQ(f->data.size(), giop::kHeaderSize + f->header.body_size);
      (void)giop::decode_request(f->data);
      (void)giop::decode_reply(f->data);
      (void)core::decode_failover_frame(f->data);
    }
  }
  return frames;
}

TEST(WireFuzzTest, ValidFramesRoundTrip) {
  for (const Bytes& frame : gc_corpus()) {
    gc::LenFramer framer;
    framer.feed(frame);
    auto f = framer.next();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->wire(), frame);
    EXPECT_FALSE(framer.next().has_value());
  }
  const Bytes wire = gc::encode_ordered(ordered(5, 333));
  auto o = gc::decode_ordered_like(ByteView(wire).subspan(gc::kFrameHeader));
  ASSERT_TRUE(o.ok());
  EXPECT_EQ(gc::encode_submit(*o), [&] {
    Bytes w = wire;
    w[gc::kOpAt] = static_cast<std::uint8_t>(gc::Op::kSubmit);
    return w;
  }());
  const Bytes mcast = gc::encode_mcast(gc::McastMsg{"grp", pattern(99, 6)});
  auto mc = gc::decode_mcast(ByteView(mcast).subspan(gc::kFrameHeader));
  ASSERT_TRUE(mc.ok());
  EXPECT_EQ(gc::encode_mcast(gc::McastMsg{std::string(mc->group), Bytes(mc->payload)}),
            mcast);
  const Bytes deliver = gc::encode_deliver(gc::DeliverMsg{"g", "s", 8, pattern(50, 7)});
  auto dv = gc::decode_deliver(ByteView(deliver).subspan(gc::kFrameHeader));
  ASSERT_TRUE(dv.ok());
  EXPECT_EQ(gc::encode_deliver(gc::DeliverMsg{std::string(dv->group),
                                              std::string(dv->sender), dv->seq,
                                              Bytes(dv->payload)}),
            deliver);
  for (const Bytes& payload : ctrl_corpus()) {
    EXPECT_TRUE(core::decode_ctrl(payload).has_value());
  }
  core::CkptDelta d;
  d.member = "m";
  d.value_pad = 3;
  d.entries = {{1, 2}, {3, 4}};
  auto back = core::decode_ctrl(core::encode_ckpt_delta(d));
  ASSERT_TRUE(back && back->ckpt_delta);
  EXPECT_EQ(*back->ckpt_delta, d);
  for (const Bytes& msg : giop_corpus()) {
    giop::FrameBuffer framer;
    framer.feed(msg);
    auto f = framer.next();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->data, msg);
  }
}

TEST(WireFuzzTest, MutatedGcFramesDecodeOrFail) {
  const std::vector<Bytes> corpus = gc_corpus();
  for (std::uint64_t seed : {1, 2, 3}) {
    Mutator mut(seed);
    for (int i = 0; i < kMutationsPerSeed; ++i) {
      const Bytes& base = corpus[mut.below(corpus.size())];
      const Bytes input = mut.mutate(base, corpus);
      // As a frame body (the decoders' own input) and as a stream.
      if (input.size() > gc::kFrameHeader) {
        decode_gc_body(ByteView(input).subspan(gc::kFrameHeader));
      }
      decode_gc_body(input);
      (void)frame_gc(input, mut);
    }
  }
}

TEST(WireFuzzTest, MutatedCtrlPayloadsDecodeOrFail) {
  const std::vector<Bytes> corpus = ctrl_corpus();
  for (std::uint64_t seed : {4, 5, 6}) {
    Mutator mut(seed);
    for (int i = 0; i < kMutationsPerSeed; ++i) {
      const Bytes input = mut.mutate(corpus[mut.below(corpus.size())], corpus);
      (void)core::peek_ctrl_kind(input);
      (void)core::decode_ctrl(input);
    }
  }
}

TEST(WireFuzzTest, MutatedStreamsKeepBothFramersTotal) {
  const std::vector<Bytes> gc_frames = gc_corpus();
  const std::vector<Bytes> giop_msgs = giop_corpus();
  for (std::uint64_t seed : {7, 8}) {
    Mutator mut(seed);
    for (int i = 0; i < kMutationsPerSeed / 4; ++i) {
      // A stream of a few frames, one of them mutated.
      Bytes gc_stream;
      Bytes giop_stream;
      const std::size_t n = 1 + mut.below(4);
      const std::size_t bad = mut.below(n);
      for (std::size_t k = 0; k < n; ++k) {
        const Bytes& g = gc_frames[mut.below(gc_frames.size())];
        append_bytes(gc_stream, k == bad ? mut.mutate(g, gc_frames) : g);
        const Bytes& m = giop_msgs[mut.below(giop_msgs.size())];
        append_bytes(giop_stream, k == bad ? mut.mutate(m, giop_msgs) : m);
      }
      (void)frame_gc(gc_stream, mut);
      (void)frame_giop(giop_stream, mut);
    }
  }
}

}  // namespace
}  // namespace mead

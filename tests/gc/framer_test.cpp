// LenFramer over arbitrary fragmentations of mixed frame streams, and the
// ownership of the frames it yields.
//
// Every fragmentation must yield the frames that were encoded, in order,
// with the same (op, payload bytes), and batches must split back into
// their sub-frames. kStreamDigest was recorded from the framer that copied
// every frame out of its buffer, so the zero-copy framer is pinned to the
// same sequence.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "gc/wire.h"

namespace mead::gc {
namespace {

// FNV-1a over every (op, payload) the reference stream yields, batches
// expanded, as the copying framer produced it.
constexpr std::uint64_t kStreamDigest = 0xd676f3d1f8aef549ULL;

static_assert(!std::is_copy_constructible_v<Frame>);
static_assert(!std::is_copy_assignable_v<Frame>);
static_assert(std::is_nothrow_move_constructible_v<Frame>);
static_assert(std::is_nothrow_move_assignable_v<Frame>);

struct Seen {
  std::uint8_t op = 0;
  bool in_batch = false;
  Bytes payload;
  bool operator==(const Seen&) const = default;
};

Bytes pattern(std::size_t n, std::uint32_t seed) {
  Bytes out(n);
  std::uint32_t x = seed * 2654435761U + 1;
  for (auto& b : out) {
    x = x * 1664525U + 1013904223U;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  return out;
}

OrderedMsg ordered(std::uint64_t seq, Bytes payload) {
  OrderedMsg m;
  m.seq = seq;
  m.origin = 2;
  m.msg_id = seq + 100;
  m.group = "Svc0/replicas";
  m.member = "replica/node2/3";
  m.payload = std::move(payload);
  return m;
}

/// Big frames (a checkpoint-sized ordered message and deliver, a 70 KB
/// multicast) between small ones, a batch, and a run of heartbeats.
std::vector<Bytes> mixed_frames() {
  std::vector<Bytes> f;
  f.push_back(encode_hello(HelloMsg{"replica/node1/1"}));
  f.push_back(encode_ordered(ordered(7, pattern(200'000, 1))));
  f.push_back(encode_heartbeat(HeartbeatMsg{3}));
  f.push_back(encode_mcast(McastMsg{"g", pattern(70'000, 2)}));
  f.push_back(encode_frame_batch({encode_heartbeat(HeartbeatMsg{4}),
                                  encode_ordered(ordered(8, pattern(300, 3))),
                                  encode_seq_watermark(SeqWatermarkMsg{1, 2})}));
  f.push_back(encode_deliver(DeliverMsg{"g", "s", 5, pattern(100, 4)}));
  f.push_back(encode_view(ViewMsg{"g", 7, {"a", "b"}}));
  f.push_back(encode_deliver(DeliverMsg{"g", "s", 6, pattern(370'000, 5)}));
  f.push_back(encode_join(GroupMsg{"g"}));
  for (std::uint64_t i = 0; i < 50; ++i) {
    f.push_back(encode_heartbeat(HeartbeatMsg{i}));
  }
  f.push_back(encode_ordered(ordered(9, pattern(65'536, 6))));
  f.push_back(encode_leave(GroupMsg{"g"}));
  return f;
}

void expand(std::vector<Seen>& out, Op op, const Bytes& payload) {
  out.push_back(Seen{static_cast<std::uint8_t>(op), false, payload});
  if (op != Op::kFrameBatch) return;
  auto subs = decode_frame_batch(payload);
  ASSERT_TRUE(subs.ok());
  for (const auto& s : subs.value()) {
    out.push_back(Seen{static_cast<std::uint8_t>(s.op), true,
                       Bytes(s.payload.begin(), s.payload.end())});
  }
}

/// What the stream must yield: each encoded frame's opcode and body.
std::vector<Seen> reference(const std::vector<Bytes>& frames) {
  std::vector<Seen> out;
  for (const Bytes& f : frames) {
    expand(out, static_cast<Op>(f[4]), Bytes(f.begin() + 5, f.end()));
  }
  return out;
}

/// Feeds `stream` cut at `cuts` (ascending offsets), draining after each
/// feed.
std::vector<Seen> run_framer(const Bytes& stream, const std::vector<std::size_t>& cuts) {
  std::vector<Seen> out;
  LenFramer f;
  std::size_t from = 0;
  auto feed_to = [&](std::size_t to) {
    f.feed(Bytes(stream.begin() + static_cast<std::ptrdiff_t>(from),
                 stream.begin() + static_cast<std::ptrdiff_t>(to)));
    from = to;
    while (auto frame = f.next()) {
      expand(out, frame->op, Bytes(frame->payload.begin(), frame->payload.end()));
    }
  };
  for (std::size_t cut : cuts) {
    if (cut > from && cut < stream.size()) feed_to(cut);
  }
  feed_to(stream.size());
  EXPECT_EQ(f.buffered(), 0u);
  EXPECT_FALSE(f.corrupt());
  return out;
}

std::uint64_t digest(const std::vector<Seen>& seen) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ULL;
  };
  for (const Seen& s : seen) {
    mix(s.op);
    mix(s.in_batch ? 1 : 0);
    for (int i = 0; i < 8; ++i) mix(static_cast<std::uint8_t>(s.payload.size() >> (8 * i)));
    for (std::uint8_t b : s.payload) mix(b);
  }
  return h;
}

struct Fragmentation {
  std::string name;
  std::vector<std::size_t> cuts;
};

std::vector<Fragmentation> fragmentations(const std::vector<Bytes>& frames,
                                          std::size_t total) {
  std::vector<std::size_t> ends;  // frame boundaries
  std::size_t at = 0;
  for (const Bytes& f : frames) ends.push_back(at += f.size());

  std::vector<Fragmentation> out;
  out.push_back({"one chunk", {}});
  out.push_back({"frame per chunk", ends});
  // Two frames per chunk, so both [big][small] and [small][big] occur.
  for (std::size_t phase : {0, 1}) {
    Fragmentation pairs{"frame pairs, phase " + std::to_string(phase), {}};
    for (std::size_t i = phase; i < ends.size(); i += 2) pairs.cuts.push_back(ends[i]);
    out.push_back(std::move(pairs));
  }
  // Every chunk ends mid-frame: the tail of one frame, the head of the next.
  Fragmentation halves{"mid-frame cuts", {}};
  std::size_t start = 0;
  for (std::size_t end : ends) {
    halves.cuts.push_back(start + (end - start) / 2);
    start = end;
  }
  out.push_back(std::move(halves));
  Fragmentation bytes{"1-byte feeds", {}};
  for (std::size_t i = 1; i < total; ++i) bytes.cuts.push_back(i);
  out.push_back(std::move(bytes));
  for (std::uint32_t seed = 1; seed <= 8; ++seed) {
    std::mt19937 rng(seed);
    // Mostly small chunks, some larger than the biggest frame.
    std::uniform_int_distribution<std::size_t> small(1, 3000);
    std::uniform_int_distribution<std::size_t> large(1, 400'000);
    Fragmentation random{"random seed " + std::to_string(seed), {}};
    for (std::size_t cut = 0;;) {
      cut += (rng() % 4 == 0) ? large(rng) : small(rng);
      if (cut >= total) break;
      random.cuts.push_back(cut);
    }
    out.push_back(std::move(random));
  }
  return out;
}

TEST(FramerFragmentationTest, EveryFragmentationYieldsTheEncodedFrames) {
  const std::vector<Bytes> frames = mixed_frames();
  Bytes stream;
  for (const Bytes& f : frames) append_bytes(stream, f);
  const std::vector<Seen> expected = reference(frames);
  ASSERT_EQ(expected.size(), frames.size() + 3);  // the batch's sub-frames
  EXPECT_EQ(digest(expected), kStreamDigest);
  for (const auto& frag : fragmentations(frames, stream.size())) {
    const std::vector<Seen> seen = run_framer(stream, frag.cuts);
    EXPECT_EQ(seen.size(), expected.size()) << frag.name;
    EXPECT_TRUE(seen == expected) << frag.name;
    EXPECT_EQ(digest(seen), kStreamDigest) << frag.name;
  }
}

TEST(FrameOwnershipTest, AFrameThatEndsTheBufferTakesItUncopied) {
  Bytes chunk = encode_heartbeat(HeartbeatMsg{1});
  append_bytes(chunk, encode_deliver(DeliverMsg{"g", "s", 2, pattern(100'000, 7)}));
  const std::uint8_t* const base = chunk.data();
  const std::size_t first_len = encode_heartbeat(HeartbeatMsg{1}).size();
  LenFramer f;
  f.feed(std::move(chunk));
  // Not the last frame in the buffer: copied out.
  auto first = f.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->payload.data() < base ||
              first->payload.data() >= base + first_len);
  // Ends the buffer: views the fed chunk in place, at its head offset.
  auto second = f.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->payload.data(), base + first_len + 5);
  EXPECT_EQ(decode_deliver(second->payload)->seq, 2u);
  EXPECT_EQ(f.buffered(), 0u);
}

TEST(FrameOwnershipTest, PayloadSurvivesRefeedingAndTheFramer) {
  const Bytes big = pattern(150'000, 8);
  std::optional<Frame> whole;   // took the framer's buffer
  std::optional<Frame> copied;  // copied out of it
  {
    LenFramer f;
    Bytes chunk = encode_mcast(McastMsg{"g", big});
    append_bytes(chunk, encode_mcast(McastMsg{"h", big}));
    const Bytes tail = encode_heartbeat(HeartbeatMsg{9});
    chunk.insert(chunk.end(), tail.begin(), tail.begin() + 3);  // a split frame
    f.feed(std::move(chunk));
    copied = f.next();
    ASSERT_TRUE(copied.has_value());
    // Refeeding erases the consumed prefix and appends: copied must not
    // share that buffer.
    f.feed(Bytes(tail.begin() + 3, tail.end()));
    auto second = f.next();
    ASSERT_TRUE(second.has_value());
    auto third = f.next();  // the heartbeat ends the buffer
    ASSERT_TRUE(third.has_value());
    EXPECT_EQ(decode_heartbeat(third->payload)->daemon_id, 9u);
    f.feed(encode_mcast(McastMsg{"i", big}));
    whole = f.next();
    ASSERT_TRUE(whole.has_value());
    f.feed(encode_heartbeat(HeartbeatMsg{10}));  // adopts a fresh buffer
    EXPECT_EQ(decode_heartbeat(f.next()->payload)->daemon_id, 10u);
  }  // the framer is gone; the frames still own their bytes
  auto a = decode_mcast(copied->payload);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->group, "g");
  EXPECT_EQ(a->payload, big);
  auto c = decode_mcast(whole->payload);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->group, "i");
  EXPECT_EQ(c->payload, big);
  // Moving a frame keeps its view on the moved buffer.
  const std::uint8_t* at = whole->payload.data();
  Frame moved = std::move(*whole);
  whole.reset();
  EXPECT_EQ(moved.payload.data(), at);
  EXPECT_EQ(decode_mcast(moved.payload)->payload, big);
}

}  // namespace
}  // namespace mead::gc

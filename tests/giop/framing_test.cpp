// FrameBuffer: splitting a TCP byte stream into GIOP/MEAD messages, under
// arbitrary fragmentation — what the interceptor and ORB rely on.
#include <gtest/gtest.h>

#include "giop/messages.h"

namespace mead::giop {
namespace {

Bytes sample_request(std::uint32_t id) {
  return encode_request(RequestMessage{
      id, true, ObjectKey::make_persistent("POA/x"), "get_time", {}});
}

Bytes sample_mead_frame(std::uint32_t payload_size) {
  Bytes out = encode_header(Header{Magic::kMead, ByteOrder::kLittleEndian,
                                   MsgType::kRequest, payload_size});
  Bytes payload(payload_size, 0xCD);
  append_bytes(out, payload);
  return out;
}

TEST(FrameBufferTest, SingleMessage) {
  FrameBuffer fb;
  fb.feed(sample_request(1));
  auto f = fb.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->header.magic, Magic::kGiop);
  EXPECT_EQ(f->header.type, MsgType::kRequest);
  auto req = decode_request(f->data);
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req->request_id, 1u);
  EXPECT_FALSE(fb.next().has_value());
}

TEST(FrameBufferTest, EmptyYieldsNothing) {
  FrameBuffer fb;
  EXPECT_FALSE(fb.next().has_value());
  EXPECT_EQ(fb.buffered(), 0u);
}

TEST(FrameBufferTest, PartialHeaderWaits) {
  FrameBuffer fb;
  const Bytes msg = sample_request(2);
  fb.feed(Bytes(msg.begin(), msg.begin() + 5));
  EXPECT_FALSE(fb.next().has_value());
  EXPECT_FALSE(fb.corrupt());
  fb.feed(Bytes(msg.begin() + 5, msg.end()));
  EXPECT_TRUE(fb.next().has_value());
}

TEST(FrameBufferTest, PartialBodyWaits) {
  FrameBuffer fb;
  const Bytes msg = sample_request(3);
  fb.feed(Bytes(msg.begin(), msg.begin() + 20));
  EXPECT_FALSE(fb.next().has_value());
  fb.feed(Bytes(msg.begin() + 20, msg.end()));
  auto f = fb.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(decode_request(f->data)->request_id, 3u);
}

TEST(FrameBufferTest, MultipleMessagesInOneChunk) {
  FrameBuffer fb;
  Bytes chunk = sample_request(1);
  append_bytes(chunk, sample_request(2));
  append_bytes(chunk, sample_request(3));
  fb.feed(chunk);
  for (std::uint32_t id = 1; id <= 3; ++id) {
    auto f = fb.next();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(decode_request(f->data)->request_id, id);
  }
  EXPECT_FALSE(fb.next().has_value());
}

TEST(FrameBufferTest, MixedGiopAndMeadStream) {
  // The piggybacked stream of §4.3: a MEAD control frame immediately
  // followed by the regular GIOP reply.
  FrameBuffer fb;
  Bytes chunk = sample_mead_frame(24);
  append_bytes(chunk, encode_reply(ReplyMessage{4, ReplyStatus::kNoException, {}}));
  fb.feed(chunk);
  auto first = fb.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->header.magic, Magic::kMead);
  auto second = fb.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->header.magic, Magic::kGiop);
  EXPECT_EQ(decode_reply(second->data)->request_id, 4u);
}

TEST(FrameBufferTest, ByteAtATimeFragmentation) {
  FrameBuffer fb;
  const Bytes msg = sample_request(9);
  int frames = 0;
  for (std::uint8_t b : msg) {
    fb.feed(Bytes{b});
    while (fb.next().has_value()) ++frames;
  }
  EXPECT_EQ(frames, 1);
}

TEST(FrameBufferTest, CorruptMagicPoisonsStream) {
  FrameBuffer fb;
  Bytes junk(16, 'X');
  fb.feed(junk);
  EXPECT_FALSE(fb.next().has_value());
  EXPECT_TRUE(fb.corrupt());
  // Even appending a valid message afterwards stays poisoned (the stream
  // has lost framing; a real TCP connection would be torn down).
  fb.feed(sample_request(1));
  EXPECT_FALSE(fb.next().has_value());
}

TEST(FrameBufferTest, ZeroLengthBody) {
  FrameBuffer fb;
  fb.feed(encode_close_connection());
  auto f = fb.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->header.type, MsgType::kCloseConnection);
  EXPECT_EQ(f->data.size(), kHeaderSize);
}

TEST(FrameBufferTest, ThousandBackToBackMessagesInOneChunk) {
  constexpr std::uint32_t kMessages = 1000;
  Bytes chunk;
  for (std::uint32_t id = 1; id <= kMessages; ++id) {
    append_bytes(chunk, sample_request(id));
  }
  FrameBuffer fb;
  fb.feed(chunk);
  for (std::uint32_t id = 1; id <= kMessages; ++id) {
    auto f = fb.next();
    ASSERT_TRUE(f.has_value()) << "id=" << id;
    EXPECT_EQ(decode_request(f->data)->request_id, id);
  }
  EXPECT_FALSE(fb.next().has_value());
  EXPECT_EQ(fb.buffered(), 0u);
  // The stream carries on normally after the drained chunk.
  fb.feed(sample_request(kMessages + 1));
  auto f = fb.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(decode_request(f->data)->request_id, kMessages + 1);
}

TEST(FrameBufferTest, AMessageThatIsTheWholeChunkTakesItUncopied) {
  FrameBuffer fb;
  Bytes one = sample_request(1);
  const std::uint8_t* const one_data = one.data();
  fb.feed(std::move(one));
  auto f = fb.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->data.data(), one_data);
  EXPECT_EQ(decode_request(f->data)->request_id, 1u);
  // Two messages in one chunk: each is copied out, in order.
  Bytes two = sample_request(2);
  append_bytes(two, sample_request(3));
  fb.feed(two);
  auto second = fb.next();
  auto third = fb.next();
  ASSERT_TRUE(second.has_value() && third.has_value());
  EXPECT_EQ(decode_request(second->data)->request_id, 2u);
  EXPECT_EQ(decode_request(third->data)->request_id, 3u);
  EXPECT_EQ(third->data, sample_request(3));
  EXPECT_EQ(fb.buffered(), 0u);
}

class FragmentationSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(FragmentationSweepTest, AnyChunkSizeReassembles) {
  const int chunk_size = GetParam();
  Bytes stream;
  for (std::uint32_t id = 1; id <= 5; ++id) {
    append_bytes(stream, sample_request(id));
    append_bytes(stream, sample_mead_frame(id * 3));
  }
  FrameBuffer fb;
  int frames = 0;
  for (std::size_t i = 0; i < stream.size();
       i += static_cast<std::size_t>(chunk_size)) {
    const std::size_t end =
        std::min(stream.size(), i + static_cast<std::size_t>(chunk_size));
    fb.feed(Bytes(stream.begin() + static_cast<std::ptrdiff_t>(i),
                  stream.begin() + static_cast<std::ptrdiff_t>(end)));
    while (fb.next().has_value()) ++frames;
  }
  EXPECT_EQ(frames, 10);
  EXPECT_EQ(fb.buffered(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FragmentationSweepTest,
                         ::testing::Values(1, 2, 3, 7, 12, 13, 64, 1024));

}  // namespace
}  // namespace mead::giop

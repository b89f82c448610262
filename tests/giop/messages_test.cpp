#include "giop/messages.h"

#include <gtest/gtest.h>

#include <string>

namespace mead::giop {
namespace {

ObjectKey test_key() {
  return ObjectKey::make_persistent("TimeOfDayPOA/TimeServiceObject");
}

IOR test_ior(const std::string& host = "node1", std::uint16_t port = 5000) {
  return IOR{"IDL:mead/TimeOfDay:1.0", net::Endpoint{host, port}, test_key()};
}

TEST(ObjectKeyTest, PersistentKeyIsPadded) {
  const ObjectKey k = test_key();
  EXPECT_EQ(k.raw().size(), 52u);  // the paper's typical key size
}

TEST(ObjectKeyTest, PersistentKeyDeterministic) {
  EXPECT_EQ(ObjectKey::make_persistent("A/B"), ObjectKey::make_persistent("A/B"));
  EXPECT_NE(ObjectKey::make_persistent("A/B"), ObjectKey::make_persistent("A/C"));
}

TEST(ObjectKeyTest, Hash16StableAndDiscriminating) {
  const ObjectKey a = ObjectKey::make_persistent("POA/obj-1");
  const ObjectKey b = ObjectKey::make_persistent("POA/obj-2");
  EXPECT_EQ(a.hash16(), ObjectKey::make_persistent("POA/obj-1").hash16());
  EXPECT_NE(a.hash16(), b.hash16());  // not guaranteed in general; true here
}

TEST(IorTest, EncodeDecodeRoundTrip) {
  CdrWriter w;
  encode_ior(w, test_ior());
  CdrReader r(w.buffer(), w.order());
  auto got = decode_ior(r);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), test_ior());
}

TEST(IorTest, InvalidWhenDefaulted) {
  IOR ior;
  EXPECT_FALSE(ior.valid());
  EXPECT_TRUE(test_ior().valid());
}

TEST(SystemExceptionTest, EncodeDecodeRoundTrip) {
  const SystemException ex{SysExKind::kCommFailure, 7,
                           CompletionStatus::kMaybe};
  CdrWriter w;
  encode_system_exception(w, ex);
  CdrReader r(w.buffer(), w.order());
  auto got = decode_system_exception(r);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), ex);
}

TEST(SystemExceptionTest, RepositoryIds) {
  EXPECT_EQ(repository_id(SysExKind::kCommFailure),
            "IDL:omg.org/CORBA/COMM_FAILURE:1.0");
  EXPECT_EQ(repository_id(SysExKind::kTransient),
            "IDL:omg.org/CORBA/TRANSIENT:1.0");
}

TEST(HeaderTest, GiopMagicRoundTrip) {
  const Header h{Magic::kGiop, ByteOrder::kLittleEndian, MsgType::kReply, 128};
  const Bytes enc = encode_header(h);
  ASSERT_EQ(enc.size(), kHeaderSize);
  EXPECT_EQ(enc[0], 'G');
  EXPECT_EQ(enc[3], 'P');
  auto dec = decode_header(enc);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec->magic, Magic::kGiop);
  EXPECT_EQ(dec->type, MsgType::kReply);
  EXPECT_EQ(dec->body_size, 128u);
}

TEST(HeaderTest, MeadMagicRoundTrip) {
  const Header h{Magic::kMead, ByteOrder::kLittleEndian, MsgType::kRequest, 64};
  auto dec = decode_header(encode_header(h));
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec->magic, Magic::kMead);
  EXPECT_EQ(dec->body_size, 64u);
}

TEST(HeaderTest, BigEndianSizeField) {
  const Header h{Magic::kGiop, ByteOrder::kBigEndian, MsgType::kRequest, 0x01020304};
  const Bytes enc = encode_header(h);
  EXPECT_EQ(enc[8], 0x01);
  EXPECT_EQ(enc[11], 0x04);
  auto dec = decode_header(enc);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec->body_size, 0x01020304u);
}

TEST(HeaderTest, BadMagicRejected) {
  Bytes junk{'J', 'U', 'N', 'K', 1, 2, 0, 0, 0, 0, 0, 0};
  auto dec = decode_header(junk);
  ASSERT_FALSE(dec.ok());
  EXPECT_EQ(dec.error(), MsgErr::kBadMagic);
}

TEST(HeaderTest, TruncatedHeaderRejected) {
  Bytes tiny{'G', 'I', 'O'};
  auto dec = decode_header(tiny);
  ASSERT_FALSE(dec.ok());
  EXPECT_EQ(dec.error(), MsgErr::kTruncated);
}

TEST(RequestTest, EncodeDecodeRoundTrip) {
  CdrWriter args;
  args.write_string("arg-one");
  args.write_u32(17);
  RequestMessage req{42, true, test_key(), "get_time", args.take()};
  const Bytes wire = encode_request(req);
  auto got = decode_request(wire);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->request_id, 42u);
  EXPECT_TRUE(got->response_expected);
  EXPECT_EQ(got->object_key, test_key());
  EXPECT_EQ(got->operation, "get_time");
  CdrReader r(got->args, got->order);
  EXPECT_EQ(r.read_string().value(), "arg-one");
  EXPECT_EQ(r.read_u32().value(), 17u);
}

TEST(RequestTest, OnewayRequest) {
  RequestMessage req{7, false, test_key(), "notify", {}};
  auto got = decode_request(encode_request(req));
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got->response_expected);
}

TEST(RequestTest, DecodeRejectsReplyMessage) {
  const Bytes wire = encode_reply(ReplyMessage{1, ReplyStatus::kNoException, {}});
  EXPECT_FALSE(decode_request(wire).ok());
}

TEST(RequestTest, DecodeRejectsTruncatedBody) {
  Bytes wire = encode_request(RequestMessage{1, true, test_key(), "op", {}});
  wire.resize(wire.size() - 4);
  auto got = decode_request(wire);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.error(), MsgErr::kTruncated);
}

TEST(ReplyTest, NoExceptionRoundTrip) {
  CdrWriter result;
  result.write_i64(123456789);
  ReplyMessage rep{42, ReplyStatus::kNoException, result.take()};
  auto got = decode_reply(encode_reply(rep));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->request_id, 42u);
  EXPECT_EQ(got->status, ReplyStatus::kNoException);
  CdrReader r(got->body, got->order);
  EXPECT_EQ(r.read_i64().value(), 123456789);
}

TEST(ReplyTest, SystemExceptionRoundTrip) {
  const SystemException ex{SysExKind::kCommFailure, 2, CompletionStatus::kNo};
  const ReplyMessage rep = make_system_exception_reply(9, ex);
  auto got = decode_reply(encode_reply(rep));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->status, ReplyStatus::kSystemException);
  auto ex2 = reply_system_exception(got.value());
  ASSERT_TRUE(ex2.ok());
  EXPECT_EQ(ex2.value(), ex);
}

TEST(ReplyTest, LocationForwardCarriesIor) {
  const IOR fwd = test_ior("node3", 7777);
  const ReplyMessage rep = make_location_forward_reply(11, fwd);
  auto got = decode_reply(encode_reply(rep));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->status, ReplyStatus::kLocationForward);
  auto ior = reply_forward_ior(got.value());
  ASSERT_TRUE(ior.ok());
  EXPECT_EQ(ior.value(), fwd);
}

TEST(ReplyTest, NeedsAddressingMode) {
  const ReplyMessage rep = make_needs_addressing_reply(5);
  auto got = decode_reply(encode_reply(rep));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->status, ReplyStatus::kNeedsAddressingMode);
  EXPECT_EQ(got->request_id, 5u);
}

TEST(ReplyTest, PayloadAccessorsRejectWrongStatus) {
  const ReplyMessage ok_reply{1, ReplyStatus::kNoException, {}};
  EXPECT_FALSE(reply_system_exception(ok_reply).ok());
  EXPECT_FALSE(reply_forward_ior(ok_reply).ok());
}

TEST(CloseConnectionTest, Encodes) {
  const Bytes wire = encode_close_connection();
  auto h = decode_header(wire);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->type, MsgType::kCloseConnection);
  EXPECT_EQ(h->body_size, 0u);
}

TEST(ReplyStatusTest, Names) {
  EXPECT_EQ(to_string(ReplyStatus::kLocationForward), "LOCATION_FORWARD");
  EXPECT_EQ(to_string(ReplyStatus::kNeedsAddressingMode),
            "NEEDS_ADDRESSING_MODE");
}

// Golden bytes for each message kind in both byte orders, so any drift in
// header layout, body alignment or size patching shows up here.

Bytes from_hex(const std::string& hex) {
  Bytes out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

struct GoldenMessages {
  ByteOrder order;
  const char* request;
  const char* reply;
  const char* exception_reply;
  const char* close;
};

constexpr GoldenMessages kGolden[] = {
    {ByteOrder::kLittleEndian,
     "47494f50010201001f0000000403020103000000030000004b45590004000000676574"
     "0000000000aabbcc",
     "47494f5001020101110000000700000000000000000000001122334455",
     "47494f5001020101400000000900000002000000000000002300000049444c3a6f6d67"
     "2e6f72672f434f5242412f434f4d4d5f4641494c5552453a312e300000000000000200"
     "000001000000",
     "47494f500102010500000000"},
    {ByteOrder::kBigEndian,
     "47494f50010200000000001f0102030403000000000000034b45590000000004676574"
     "0000000000aabbcc",
     "47494f5001020001000000110000000700000000000000001122334455",
     "47494f5001020001000000400000000900000002000000002300000049444c3a6f6d67"
     "2e6f72672f434f5242412f434f4d4d5f4641494c5552453a312e300000000000000200"
     "000001000000",
     "47494f500102000500000000"},
};

TEST(GiopGoldenTest, RequestBytes) {
  for (const auto& g : kGolden) {
    // A 3-byte key and "get" leave the u32s after them misaligned.
    const RequestMessage req{0x01020304, true, ObjectKey{Bytes{0x4b, 0x45, 0x59}},
                             "get", Bytes{0xAA, 0xBB, 0xCC}};
    EXPECT_EQ(encode_request(req, g.order), from_hex(g.request));
  }
}

TEST(GiopGoldenTest, ReplyBytes) {
  for (const auto& g : kGolden) {
    const ReplyMessage rep{7, ReplyStatus::kNoException,
                           Bytes{0x11, 0x22, 0x33, 0x44, 0x55}};
    EXPECT_EQ(encode_reply(rep, g.order), from_hex(g.reply));
  }
}

TEST(GiopGoldenTest, ExceptionReplyBytes) {
  for (const auto& g : kGolden) {
    const ReplyMessage rep = make_system_exception_reply(
        9, SystemException{SysExKind::kCommFailure, 2, CompletionStatus::kNo});
    EXPECT_EQ(encode_reply(rep, g.order), from_hex(g.exception_reply));
  }
}

TEST(GiopGoldenTest, CloseConnectionBytes) {
  for (const auto& g : kGolden) {
    EXPECT_EQ(encode_close_connection(g.order), from_hex(g.close));
  }
}

// Property sweep: requests round-trip across byte orders and payload sizes.
class RequestSweepTest
    : public ::testing::TestWithParam<std::tuple<ByteOrder, int>> {};

TEST_P(RequestSweepTest, RoundTrips) {
  const auto [order, size] = GetParam();
  Bytes args(static_cast<std::size_t>(size), 0x5A);
  RequestMessage req{static_cast<std::uint32_t>(size * 3 + 1), true,
                     ObjectKey::make_persistent("POA/o" + std::to_string(size)),
                     "op" + std::to_string(size), args};
  auto got = decode_request(encode_request(req, order));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->request_id, req.request_id);
  EXPECT_EQ(got->object_key, req.object_key);
  EXPECT_EQ(got->operation, req.operation);
  EXPECT_EQ(got->args, req.args);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RequestSweepTest,
    ::testing::Combine(::testing::Values(ByteOrder::kLittleEndian,
                                         ByteOrder::kBigEndian),
                       ::testing::Values(0, 1, 3, 8, 52, 100, 1024)));

}  // namespace
}  // namespace mead::giop

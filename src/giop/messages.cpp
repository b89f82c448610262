#include "giop/messages.h"

#include <cstring>

namespace mead::giop {

namespace {

constexpr char kGiopMagic[4] = {'G', 'I', 'O', 'P'};
constexpr char kMeadMagic[4] = {'M', 'E', 'A', 'D'};

// The body length field lives at offset 8, always in the header's declared
// byte order (flag bit 0 at offset 6).
std::uint32_t swap32(std::uint32_t v) {
  return ((v & 0xFFu) << 24) | ((v & 0xFF00u) << 8) | ((v >> 8) & 0xFF00u) |
         ((v >> 24) & 0xFFu);
}

void put_body_size(Bytes& msg, ByteOrder order, std::uint32_t size) {
  if (order != native_byte_order()) size = swap32(size);
  std::memcpy(msg.data() + 8, &size, 4);
}

}  // namespace

std::string_view to_string(ReplyStatus s) {
  switch (s) {
    case ReplyStatus::kNoException: return "NO_EXCEPTION";
    case ReplyStatus::kUserException: return "USER_EXCEPTION";
    case ReplyStatus::kSystemException: return "SYSTEM_EXCEPTION";
    case ReplyStatus::kLocationForward: return "LOCATION_FORWARD";
    case ReplyStatus::kLocationForwardPerm: return "LOCATION_FORWARD_PERM";
    case ReplyStatus::kNeedsAddressingMode: return "NEEDS_ADDRESSING_MODE";
  }
  return "?";
}

CdrWriter message_writer(Magic magic, MsgType type, ByteOrder order,
                         std::size_t body_hint) {
  CdrWriter w(order);
  w.reserve(kHeaderSize + body_hint);
  for (char c : magic == Magic::kGiop ? kGiopMagic : kMeadMagic) {
    w.write_u8(static_cast<std::uint8_t>(c));
  }
  w.write_u8(kVersionMajor);
  w.write_u8(kVersionMinor);
  w.write_u8(order == ByteOrder::kLittleEndian ? 0x01 : 0x00);
  w.write_u8(static_cast<std::uint8_t>(type));
  w.write_u32(0);  // body size, filled in by finish_message
  w.begin_stream();
  return w;
}

Bytes finish_message(CdrWriter& w) {
  Bytes out = w.take();
  put_body_size(out, w.order(), static_cast<std::uint32_t>(out.size() - kHeaderSize));
  return out;
}

Bytes encode_header(const Header& h) {
  CdrWriter w = message_writer(h.magic, h.type, h.order);
  Bytes out = w.take();
  put_body_size(out, h.order, h.body_size);
  return out;
}

MsgResult<Header> decode_header(ByteView buf, std::size_t offset) {
  if (buf.size() < offset + kHeaderSize) {
    return make_unexpected(MsgErr::kTruncated);
  }
  const std::uint8_t* p = buf.data() + offset;
  Header h;
  if (std::memcmp(p, kGiopMagic, 4) == 0) {
    h.magic = Magic::kGiop;
  } else if (std::memcmp(p, kMeadMagic, 4) == 0) {
    h.magic = Magic::kMead;
  } else {
    return make_unexpected(MsgErr::kBadMagic);
  }
  if (p[4] != kVersionMajor) return make_unexpected(MsgErr::kBadVersion);
  h.order = (p[6] & 0x01) ? ByteOrder::kLittleEndian : ByteOrder::kBigEndian;
  if (p[7] > static_cast<std::uint8_t>(MsgType::kFragment)) {
    return make_unexpected(MsgErr::kMalformed);
  }
  h.type = static_cast<MsgType>(p[7]);
  std::uint32_t size;
  std::memcpy(&size, p + 8, 4);
  if (h.order != native_byte_order()) size = swap32(size);
  h.body_size = size;
  return h;
}

// ------------------------------------------------------------- Request

Bytes encode_request(const RequestMessage& req, ByteOrder order) {
  CdrWriter w = message_writer(
      Magic::kGiop, MsgType::kRequest, order,
      28 + req.object_key.raw().size() + req.operation.size() + req.args.size());
  w.write_u32(req.request_id);
  w.write_u8(req.response_expected ? 0x03 : 0x00);  // response_flags
  w.write_octet_seq(req.object_key.raw());          // target (KeyAddr)
  w.write_string(req.operation);
  w.write_u32(0);  // service context count
  w.write_raw(req.args);
  return finish_message(w);
}

MsgResult<RequestMessage> decode_request(ByteView msg) {
  auto h = decode_header(msg);
  if (!h) return make_unexpected(h.error());
  if (h->magic != Magic::kGiop || h->type != MsgType::kRequest) {
    return make_unexpected(MsgErr::kMalformed);
  }
  if (msg.size() < kHeaderSize + h->body_size) {
    return make_unexpected(MsgErr::kTruncated);
  }
  CdrReader r(msg, h->order, kHeaderSize);
  RequestMessage req;
  auto id = r.read_u32();
  if (!id) return make_unexpected(MsgErr::kMalformed);
  req.request_id = id.value();
  auto flags = r.read_u8();
  if (!flags) return make_unexpected(MsgErr::kMalformed);
  req.response_expected = (flags.value() & 0x03) != 0;
  auto key = r.read_octet_seq();
  if (!key) return make_unexpected(MsgErr::kMalformed);
  req.object_key = ObjectKey{std::move(key.value())};
  auto op = r.read_string();
  if (!op) return make_unexpected(MsgErr::kMalformed);
  req.operation = std::move(op.value());
  auto svc = r.read_u32();
  if (!svc || svc.value() != 0) return make_unexpected(MsgErr::kMalformed);
  auto args = r.read_raw(kHeaderSize + h->body_size - r.position());
  if (!args) return make_unexpected(MsgErr::kMalformed);
  req.args = std::move(args.value());
  req.order = h->order;
  return req;
}

// --------------------------------------------------------------- Reply

Bytes encode_reply(const ReplyMessage& rep, ByteOrder order) {
  CdrWriter w = message_writer(Magic::kGiop, MsgType::kReply, order,
                               12 + rep.body.size());
  w.write_u32(rep.request_id);
  w.write_u32(static_cast<std::uint32_t>(rep.status));
  w.write_u32(0);  // service context count
  w.write_raw(rep.body);
  return finish_message(w);
}

MsgResult<ReplyMessage> decode_reply(ByteView msg) {
  auto h = decode_header(msg);
  if (!h) return make_unexpected(h.error());
  if (h->magic != Magic::kGiop || h->type != MsgType::kReply) {
    return make_unexpected(MsgErr::kMalformed);
  }
  if (msg.size() < kHeaderSize + h->body_size) {
    return make_unexpected(MsgErr::kTruncated);
  }
  CdrReader r(msg, h->order, kHeaderSize);
  ReplyMessage rep;
  auto id = r.read_u32();
  if (!id) return make_unexpected(MsgErr::kMalformed);
  rep.request_id = id.value();
  auto status = r.read_u32();
  if (!status ||
      status.value() > static_cast<std::uint32_t>(ReplyStatus::kNeedsAddressingMode)) {
    return make_unexpected(MsgErr::kMalformed);
  }
  rep.status = static_cast<ReplyStatus>(status.value());
  auto svc = r.read_u32();
  if (!svc || svc.value() != 0) return make_unexpected(MsgErr::kMalformed);
  auto body = r.read_raw(kHeaderSize + h->body_size - r.position());
  if (!body) return make_unexpected(MsgErr::kMalformed);
  rep.body = std::move(body.value());
  rep.order = h->order;
  return rep;
}

ReplyMessage make_system_exception_reply(std::uint32_t request_id,
                                         const SystemException& ex) {
  CdrWriter w;
  encode_system_exception(w, ex);
  return ReplyMessage{request_id, ReplyStatus::kSystemException, w.take()};
}

ReplyMessage make_location_forward_reply(std::uint32_t request_id,
                                         const IOR& forward_to) {
  CdrWriter w;
  encode_ior(w, forward_to);
  return ReplyMessage{request_id, ReplyStatus::kLocationForward, w.take()};
}

ReplyMessage make_needs_addressing_reply(std::uint32_t request_id) {
  CdrWriter w;
  w.write_u16(0);  // requested addressing disposition: KeyAddr
  return ReplyMessage{request_id, ReplyStatus::kNeedsAddressingMode, w.take()};
}

MsgResult<SystemException> reply_system_exception(const ReplyMessage& rep) {
  if (rep.status != ReplyStatus::kSystemException) {
    return make_unexpected(MsgErr::kMalformed);
  }
  CdrReader r(rep.body, rep.order);
  auto ex = decode_system_exception(r);
  if (!ex) return make_unexpected(MsgErr::kMalformed);
  return ex.value();
}

MsgResult<IOR> reply_forward_ior(const ReplyMessage& rep) {
  if (rep.status != ReplyStatus::kLocationForward &&
      rep.status != ReplyStatus::kLocationForwardPerm) {
    return make_unexpected(MsgErr::kMalformed);
  }
  CdrReader r(rep.body, rep.order);
  auto ior = decode_ior(r);
  if (!ior) return make_unexpected(MsgErr::kMalformed);
  return ior.value();
}

Bytes encode_close_connection(ByteOrder order) {
  CdrWriter w = message_writer(Magic::kGiop, MsgType::kCloseConnection, order);
  return finish_message(w);
}

// --------------------------------------------------------- FrameRule

std::size_t FrameRule::frame_size(const std::uint8_t* head) {
  auto h = decode_header(ByteView(head, kHeaderSize));
  return h && h->body_size <= kMaxBodySize ? kHeaderSize + h->body_size : 0;
}

}  // namespace mead::giop

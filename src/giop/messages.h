// GIOP 1.2 message formats (CORBA/IIOP spec ch. 15): the wire protocol that
// both the mini-ORB and MEAD's interceptor speak.
//
// The three proactive recovery schemes map directly onto GIOP Reply status
// codes (§4): LOCATION_FORWARD replies carry an IOR body; the
// NEEDS_ADDRESSING_MODE reply prompts the client ORB to retransmit; MEAD's
// own fail-over message uses a GIOP-shaped header with magic "MEAD" so the
// interceptor can split a piggybacked stream with one framer.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "common/types.h"
#include "giop/cdr.h"
#include "giop/types.h"
#include "net/framer.h"

namespace mead::giop {

inline constexpr std::size_t kHeaderSize = 12;
inline constexpr std::uint8_t kVersionMajor = 1;
inline constexpr std::uint8_t kVersionMinor = 2;

enum class MsgType : std::uint8_t {
  kRequest = 0,
  kReply = 1,
  kCancelRequest = 2,
  kLocateRequest = 3,
  kLocateReply = 4,
  kCloseConnection = 5,
  kMessageError = 6,
  kFragment = 7,
};

enum class ReplyStatus : std::uint32_t {
  kNoException = 0,
  kUserException = 1,
  kSystemException = 2,
  kLocationForward = 3,
  kLocationForwardPerm = 4,
  kNeedsAddressingMode = 5,
};

[[nodiscard]] std::string_view to_string(ReplyStatus s);

/// Which protocol a framed message belongs to: real GIOP, or a MEAD control
/// message piggybacked into the same byte stream (§4.3).
enum class Magic : std::uint8_t {
  kGiop = 0,
  kMead = 1,
};

struct Header {
  Header() = default;
  Header(Magic m, ByteOrder o, MsgType t, std::uint32_t size)
      : magic(m), order(o), type(t), body_size(size) {}

  Magic magic = Magic::kGiop;
  ByteOrder order = ByteOrder::kLittleEndian;
  MsgType type = MsgType::kRequest;
  std::uint32_t body_size = 0;
};

enum class MsgErr {
  kBadMagic,
  kBadVersion,
  kTruncated,
  kMalformed,
};

template <typename T>
using MsgResult = Expected<T, MsgErr>;

/// Encodes the 12-byte header. `magic` selects "GIOP" or "MEAD".
Bytes encode_header(const Header& h);
/// A writer holding a header, with the body's CDR stream starting behind
/// it, so a message is encoded in one buffer of about `body_hint` more bytes.
CdrWriter message_writer(Magic magic, MsgType type, ByteOrder order,
                         std::size_t body_hint = 0);
/// Takes the message out of `w` and fills in the header's body size.
Bytes finish_message(CdrWriter& w);
/// Decodes a 12-byte header from the front of `buf`.
MsgResult<Header> decode_header(ByteView buf, std::size_t offset = 0);

// ---- Request ----

struct RequestMessage {
  RequestMessage() = default;
  RequestMessage(std::uint32_t id, bool response_expected_, ObjectKey key,
                 std::string op, Bytes args_)
      : request_id(id), response_expected(response_expected_),
        object_key(std::move(key)), operation(std::move(op)),
        args(std::move(args_)) {}

  std::uint32_t request_id = 0;
  bool response_expected = true;
  ObjectKey object_key;
  std::string operation;
  Bytes args;  // CDR-encoded sub-encapsulation (own stream, offset 0)
  ByteOrder order = ByteOrder::kLittleEndian;  // set by decode_request

  friend bool operator==(const RequestMessage&, const RequestMessage&) = default;
};

/// Full wire message: 12-byte GIOP header + CDR body.
Bytes encode_request(const RequestMessage& req,
                     ByteOrder order = ByteOrder::kLittleEndian);
/// Parses a complete message (header included). Validates magic/type.
MsgResult<RequestMessage> decode_request(ByteView msg);

// ---- Reply ----

struct ReplyMessage {
  ReplyMessage() = default;
  ReplyMessage(std::uint32_t id, ReplyStatus s, Bytes body_)
      : request_id(id), status(s), body(std::move(body_)) {}

  std::uint32_t request_id = 0;
  ReplyStatus status = ReplyStatus::kNoException;
  Bytes body;  // result values / exception / IOR, per status
  ByteOrder order = ByteOrder::kLittleEndian;  // set by decode_reply

  friend bool operator==(const ReplyMessage&, const ReplyMessage&) = default;
};

Bytes encode_reply(const ReplyMessage& rep,
                   ByteOrder order = ByteOrder::kLittleEndian);
MsgResult<ReplyMessage> decode_reply(ByteView msg);

/// Convenience constructors for the reply flavours used by the recovery
/// schemes.
ReplyMessage make_system_exception_reply(std::uint32_t request_id,
                                         const SystemException& ex);
ReplyMessage make_location_forward_reply(std::uint32_t request_id,
                                         const IOR& forward_to);
ReplyMessage make_needs_addressing_reply(std::uint32_t request_id);

/// Extracts the typed payload from a decoded reply.
MsgResult<SystemException> reply_system_exception(const ReplyMessage& rep);
MsgResult<IOR> reply_forward_ior(const ReplyMessage& rep);

/// CloseConnection message (server-initiated orderly shutdown).
Bytes encode_close_connection(ByteOrder order = ByteOrder::kLittleEndian);

// ---- Stream framing ----

/// Longest message body the framer accepts; a larger claimed size is a
/// corrupt stream.
inline constexpr std::uint32_t kMaxBodySize = 16 * 1024 * 1024;

/// How net::Framer splits a TCP byte stream carrying GIOP and/or MEAD
/// messages: a message is its 12-byte header and the body it sizes.
struct FrameRule {
  struct Frame {
    Frame() = default;
    Frame(Header h, Bytes b) : header(h), data(std::move(b)) {}
    Header header;
    Bytes data;  // full message, header included
  };
  static constexpr std::size_t kHeaderSize = giop::kHeaderSize;
  static std::size_t frame_size(const std::uint8_t* head);
  /// A message that ends a buffer holding earlier ones keeps the buffer,
  /// its consumed head dropped in place.
  static Frame make(Bytes buf, std::size_t at) {
    buf.erase_prefix(at);
    const Header h = decode_header(std::as_const(buf)).value();
    return Frame{h, std::move(buf)};
  }
};

/// Incremental splitter for a TCP byte stream carrying GIOP and/or MEAD
/// messages. Feed raw reads; take complete messages (header + body).
using FrameBuffer = net::Framer<FrameRule>;

}  // namespace mead::giop

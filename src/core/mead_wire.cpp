#include "core/mead_wire.h"

#include <bit>
#include <cstring>

namespace mead::core {

using giop::ByteOrder;
using giop::CdrReader;
using giop::CdrWriter;

namespace {

// MEAD frames reuse the GIOP header layout; the type byte distinguishes
// MEAD message kinds (only fail-over exists on the piggyback path).
constexpr giop::MsgType kFailoverType = giop::MsgType::kRequest;

// Smallest encodings of repeated entries, bounding how many a count read
// off the wire can claim: an announce is member, host, port and an IOR
// (whose type id, host, port and key are two strings, a u16 and a u32
// length).
constexpr std::size_t kMinString = giop::kMinCdrString;
constexpr std::size_t kMinAnnounce = 2 * kMinString + 2 + 2 * kMinString + 2 + 4;

/// A writer holding the kind byte, with the CDR body's stream starting
/// right behind it. `body_hint` sizes the buffer up front.
CdrWriter ctrl_writer(CtrlKind kind, std::size_t body_hint = 64) {
  CdrWriter w;
  w.reserve(1 + body_hint);
  w.write_u8(static_cast<std::uint8_t>(kind));
  w.begin_stream();
  return w;
}

void write_announce(CdrWriter& w, const Announce& m) {
  w.write_string(m.member);
  w.write_string(m.endpoint.host);
  w.write_u16(m.endpoint.port);
  giop::encode_ior(w, m.ior);
}

std::optional<Announce> read_announce(CdrReader& r) {
  auto member = r.read_string();
  if (!member) return std::nullopt;
  auto host = r.read_string();
  if (!host) return std::nullopt;
  auto port = r.read_u16();
  if (!port) return std::nullopt;
  auto ior = giop::decode_ior(r);
  if (!ior) return std::nullopt;
  return Announce{std::move(member.value()),
                  net::Endpoint{std::move(host.value()), port.value()},
                  std::move(ior.value())};
}

using CkptEntries = std::vector<std::pair<std::uint32_t, std::uint64_t>>;

/// Where a kCkptDelta entry's fields sit, from the entry's start: its u32
/// key and u64 value are CDR-aligned relative to the stream start, and
/// `value_pad` zero bytes follow, so the layout depends only on the start
/// offset modulo 8. The value ends 8-aligned, so every entry after the
/// first starts at value_pad modulo 8 and all of them share one layout.
struct EntryLayout {
  std::size_t key;
  std::size_t value;
  std::size_t size;  // the whole entry, pad included
};

EntryLayout entry_layout(std::size_t start, std::uint32_t value_pad) {
  const std::size_t r = start % 8;
  const std::size_t key = (4 - r % 4) % 4;
  const std::size_t value = (r + key + 4 + 7) / 8 * 8 - r;
  return {key, value, value + 8 + value_pad};
}

template <typename T>
void put_le(std::uint8_t* p, T v) {
  if constexpr (std::endian::native != std::endian::little) v = giop::cdr_byteswap(v);
  std::memcpy(p, &v, sizeof(T));
}

template <typename T>
T get_le(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  if constexpr (std::endian::native != std::endian::little) v = giop::cdr_byteswap(v);
  return v;
}

/// The entry block, written in one pass over a buffer extended once.
void write_ckpt_entries(CdrWriter& w, const CkptEntries& entries,
                        std::uint32_t value_pad) {
  if (entries.empty()) return;
  const std::size_t start = w.stream_pos();
  const EntryLayout first = entry_layout(start, value_pad);
  const EntryLayout rest = entry_layout(start + first.size, value_pad);
  const std::size_t total = first.size + (entries.size() - 1) * rest.size;
  std::uint8_t* p = w.extend(total);
  std::memset(p, 0, total);  // alignment gaps and pads
  EntryLayout at = first;
  for (const auto& [key, value] : entries) {
    put_le(p + at.key, key);
    put_le(p + at.value, value);
    p += at.size;
    at = rest;
  }
}

/// Reads `count` entries into `out`. The whole block is bounds-checked
/// before anything is allocated, so a truncated block or an inflated count
/// fails without reserving for it.
bool read_ckpt_entries(CdrReader& r, std::uint32_t count,
                       std::uint32_t value_pad, CkptEntries& out) {
  if (count == 0) return true;
  const std::size_t start = r.stream_pos();
  const EntryLayout first = entry_layout(start, value_pad);
  const EntryLayout rest = entry_layout(start + first.size, value_pad);
  const std::size_t left = r.remaining();
  if (left < first.size || count - 1 > (left - first.size) / rest.size) {
    return false;
  }
  const std::uint8_t* p = r.take(first.size + (count - 1) * rest.size);
  out.resize(count);
  EntryLayout at = first;
  for (auto& [key, value] : out) {
    key = get_le<std::uint32_t>(p + at.key);
    value = get_le<std::uint64_t>(p + at.value);
    p += at.size;
    at = rest;
  }
  return true;
}

/// One kCkptDelta frame from any source with the checkpoint fields
/// (CkptDelta or state::Checkpoint), so neither path copies entries.
template <class C>
Bytes encode_ckpt(const C& c, const std::string& member, std::uint64_t nonce,
                  std::uint32_t value_pad) {
  // Each entry takes at most 19 bytes (u32 + u64 with worst-case
  // alignment) plus its pad.
  CdrWriter w = ctrl_writer(
      CtrlKind::kCkptDelta,
      96 + member.size() + c.entries.size() * (19 + value_pad));
  w.write_string(member);
  w.write_u64(nonce);
  w.write_u64(c.epoch);
  w.write_u64(c.base_epoch);
  w.write_bool(c.is_base);
  w.write_u64(c.applied);
  w.write_u64(c.prev_digest);
  w.write_u64(c.digest);
  w.write_u32(value_pad);
  w.write_u32(static_cast<std::uint32_t>(c.entries.size()));
  write_ckpt_entries(w, c.entries, value_pad);
  return w.take();
}

}  // namespace

Bytes encode_failover_frame(const FailoverMsg& m) {
  CdrWriter w = giop::message_writer(
      giop::Magic::kMead, kFailoverType, giop::ByteOrder::kLittleEndian,
      16 + m.target.host.size() + m.member.size());
  w.write_string(m.target.host);
  w.write_u16(m.target.port);
  w.write_string(m.member);
  return giop::finish_message(w);
}

std::optional<FailoverMsg> decode_failover_frame(ByteView frame) {
  auto h = giop::decode_header(frame);
  if (!h || h->magic != giop::Magic::kMead) return std::nullopt;
  if (frame.size() < giop::kHeaderSize + h->body_size) return std::nullopt;
  CdrReader r(frame, h->order, giop::kHeaderSize);
  auto host = r.read_string();
  if (!host) return std::nullopt;
  auto port = r.read_u16();
  if (!port) return std::nullopt;
  auto member = r.read_string();
  if (!member) return std::nullopt;
  return FailoverMsg{net::Endpoint{std::move(host.value()), port.value()},
                     std::move(member.value())};
}

Bytes encode_announce(const Announce& m) {
  CdrWriter w = ctrl_writer(CtrlKind::kAnnounce);
  write_announce(w, m);
  return w.take();
}

Bytes encode_listing(const Listing& m) {
  CdrWriter w = ctrl_writer(CtrlKind::kListing);
  w.write_u32(static_cast<std::uint32_t>(m.entries.size()));
  for (const auto& e : m.entries) write_announce(w, e);
  return w.take();
}

Bytes encode_launch_request(const LaunchRequest& m) {
  CdrWriter w = ctrl_writer(CtrlKind::kLaunchRequest);
  w.write_string(m.member);
  w.write_double(m.usage);
  return w.take();
}

Bytes encode_primary_query(const PrimaryQuery& m) {
  CdrWriter w = ctrl_writer(CtrlKind::kPrimaryQuery);
  w.write_string(m.reply_group);
  w.write_u64(m.nonce);
  return w.take();
}

Bytes encode_primary_answer(const PrimaryAnswer& m) {
  CdrWriter w = ctrl_writer(CtrlKind::kPrimaryAnswer);
  w.write_string(m.member);
  w.write_string(m.endpoint.host);
  w.write_u16(m.endpoint.port);
  w.write_u64(m.nonce);
  return w.take();
}

Bytes encode_read_set(const ReadSet& m) {
  CdrWriter w = ctrl_writer(CtrlKind::kReadSet);
  w.write_u64(m.version);
  w.write_string(m.primary);
  w.write_u32(static_cast<std::uint32_t>(m.entries.size()));
  for (const auto& e : m.entries) write_announce(w, e);
  return w.take();
}

Bytes encode_node_crash(const NodeCrash& m) {
  CdrWriter w = ctrl_writer(CtrlKind::kNodeCrash);
  w.write_string(m.host);
  return w.take();
}

Bytes encode_launch_failed(const LaunchFailed& m) {
  CdrWriter w = ctrl_writer(CtrlKind::kLaunchFailed);
  w.write_string(m.service);
  w.write_u32(static_cast<std::uint32_t>(m.incarnation));
  return w.take();
}

Bytes encode_state(const StateTransfer& m) {
  CdrWriter w =
      ctrl_writer(CtrlKind::kState, 32 + m.member.size() + m.state.size());
  w.write_string(m.member);
  w.write_u64(m.version);
  w.write_octet_seq(m.state);
  return w.take();
}

Bytes encode_ckpt_delta(const CkptDelta& m) {
  return encode_ckpt(m, m.member, m.nonce, m.value_pad);
}

Bytes encode_ckpt_delta(const state::Checkpoint& c, const std::string& member,
                        std::uint64_t nonce, std::uint32_t value_pad) {
  return encode_ckpt(c, member, nonce, value_pad);
}

Bytes encode_ckpt_request(const CkptRequest& m) {
  CdrWriter w = ctrl_writer(CtrlKind::kCkptRequest);
  w.write_string(m.member);
  w.write_u64(m.nonce);
  w.write_u64(m.have_epoch);
  return w.take();
}

Bytes encode_log_replay(const LogReplay& m) {
  CdrWriter w = ctrl_writer(CtrlKind::kLogReplay,
                            48 + m.member.size() + 8 * m.entries.size());
  w.write_string(m.member);
  w.write_u64(m.nonce);
  w.write_u64(m.applied);
  w.write_u64(m.digest);
  w.write_u32(static_cast<std::uint32_t>(m.entries.size()));
  for (std::uint64_t seq : m.entries) w.write_u64(seq);
  return w.take();
}

Bytes encode_alive_epoch(const AliveEpoch& m) {
  CdrWriter w = ctrl_writer(CtrlKind::kAliveEpoch);
  w.write_u64(m.epoch);
  w.write_u32(static_cast<std::uint32_t>(m.alive.size()));
  for (const auto& host : m.alive) w.write_string(host);
  return w.take();
}

Bytes encode_node_join(const NodeJoin& m) {
  CdrWriter w = ctrl_writer(CtrlKind::kNodeJoin);
  w.write_string(m.host);
  return w.take();
}

Bytes encode_retire(const Retire& m) {
  CdrWriter w = ctrl_writer(CtrlKind::kRetire);
  w.write_string(m.service);
  w.write_string(m.member);
  return w.take();
}

Bytes encode_usage_report(const UsageReport& m) {
  CdrWriter w = ctrl_writer(CtrlKind::kUsageReport);
  w.write_string(m.member);
  w.write_double(m.usage);
  w.write_u64(m.at_ms);
  return w.take();
}

Bytes encode_handoff(const Handoff& m) {
  CdrWriter w = ctrl_writer(CtrlKind::kHandoff);
  w.write_string(m.service);
  w.write_string(m.victim);
  w.write_string(m.successor);
  return w.take();
}

Bytes encode_quorum_set(const ReadSet& m) {
  CdrWriter w = ctrl_writer(CtrlKind::kQuorumSet);
  w.write_u64(m.version);
  w.write_string(m.primary);
  w.write_u32(static_cast<std::uint32_t>(m.entries.size()));
  for (const auto& e : m.entries) write_announce(w, e);
  w.write_u32(static_cast<std::uint32_t>(m.catching_up.size()));
  for (const auto& name : m.catching_up) w.write_string(name);
  return w.take();
}

Bytes encode_catchup_done(const CatchupDone& m) {
  CdrWriter w = ctrl_writer(CtrlKind::kCatchupDone);
  w.write_string(m.service);
  w.write_string(m.member);
  return w.take();
}

Bytes encode_reply_cache(const ReplyCache& m) {
  CdrWriter w = ctrl_writer(CtrlKind::kReplyCache,
                            32 + m.member.size() + 16 * m.entries.size());
  w.write_string(m.member);
  w.write_u64(m.nonce);
  w.write_u32(static_cast<std::uint32_t>(m.entries.size()));
  for (const auto& [client_id, seq] : m.entries) {
    w.write_u64(client_id);
    w.write_u64(seq);
  }
  return w.take();
}

std::optional<CtrlMsg> decode_ctrl(ByteView payload) {
  if (payload.empty()) return std::nullopt;
  CtrlMsg msg;
  const auto kind = payload[0];
  // The body is read in place; its CDR stream starts behind the kind byte.
  CdrReader r(payload, ByteOrder::kLittleEndian, 1);
  switch (static_cast<CtrlKind>(kind)) {
    case CtrlKind::kAnnounce: {
      msg.kind = CtrlKind::kAnnounce;
      auto a = read_announce(r);
      if (!a) return std::nullopt;
      msg.announce = std::move(a);
      return msg;
    }
    case CtrlKind::kListing: {
      msg.kind = CtrlKind::kListing;
      auto n = r.read_u32();
      if (!n) return std::nullopt;
      Listing listing;
      listing.entries.reserve(r.bounded_count(n.value(), kMinAnnounce));
      for (std::uint32_t i = 0; i < n.value(); ++i) {
        auto a = read_announce(r);
        if (!a) return std::nullopt;
        listing.entries.push_back(std::move(*a));
      }
      msg.listing = std::move(listing);
      return msg;
    }
    case CtrlKind::kLaunchRequest: {
      msg.kind = CtrlKind::kLaunchRequest;
      auto member = r.read_string();
      if (!member) return std::nullopt;
      auto usage = r.read_double();
      if (!usage) return std::nullopt;
      msg.launch = LaunchRequest{std::move(member.value()), usage.value()};
      return msg;
    }
    case CtrlKind::kPrimaryQuery: {
      msg.kind = CtrlKind::kPrimaryQuery;
      auto rg = r.read_string();
      if (!rg) return std::nullopt;
      auto nonce = r.read_u64();
      if (!nonce) return std::nullopt;
      msg.query = PrimaryQuery{std::move(rg.value()), nonce.value()};
      return msg;
    }
    case CtrlKind::kPrimaryAnswer: {
      msg.kind = CtrlKind::kPrimaryAnswer;
      auto member = r.read_string();
      if (!member) return std::nullopt;
      auto host = r.read_string();
      if (!host) return std::nullopt;
      auto port = r.read_u16();
      if (!port) return std::nullopt;
      auto nonce = r.read_u64();
      if (!nonce) return std::nullopt;
      msg.answer = PrimaryAnswer{
          std::move(member.value()),
          net::Endpoint{std::move(host.value()), port.value()}, nonce.value()};
      return msg;
    }
    case CtrlKind::kReadSet: {
      msg.kind = CtrlKind::kReadSet;
      auto version = r.read_u64();
      if (!version) return std::nullopt;
      auto primary = r.read_string();
      if (!primary) return std::nullopt;
      auto n = r.read_u32();
      if (!n) return std::nullopt;
      ReadSet rs;
      rs.version = version.value();
      rs.primary = std::move(primary.value());
      rs.entries.reserve(r.bounded_count(n.value(), kMinAnnounce));
      for (std::uint32_t i = 0; i < n.value(); ++i) {
        auto a = read_announce(r);
        if (!a) return std::nullopt;
        rs.entries.push_back(std::move(*a));
      }
      msg.read_set = std::move(rs);
      return msg;
    }
    case CtrlKind::kNodeCrash: {
      msg.kind = CtrlKind::kNodeCrash;
      auto host = r.read_string();
      if (!host) return std::nullopt;
      msg.node_crash = NodeCrash{std::move(host.value())};
      return msg;
    }
    case CtrlKind::kLaunchFailed: {
      msg.kind = CtrlKind::kLaunchFailed;
      auto service = r.read_string();
      if (!service) return std::nullopt;
      auto incarnation = r.read_u32();
      if (!incarnation) return std::nullopt;
      msg.launch_failed = LaunchFailed{std::move(service.value()),
                                       static_cast<int>(incarnation.value())};
      return msg;
    }
    case CtrlKind::kState: {
      msg.kind = CtrlKind::kState;
      auto member = r.read_string();
      if (!member) return std::nullopt;
      auto version = r.read_u64();
      if (!version) return std::nullopt;
      auto state = r.read_octet_seq();
      if (!state) return std::nullopt;
      msg.state = StateTransfer{std::move(member.value()), version.value(),
                                std::move(state.value())};
      return msg;
    }
    case CtrlKind::kCkptDelta: {
      msg.kind = CtrlKind::kCkptDelta;
      CkptDelta d;
      auto member = r.read_string();
      if (!member) return std::nullopt;
      d.member = std::move(member.value());
      auto nonce = r.read_u64();
      if (!nonce) return std::nullopt;
      d.nonce = nonce.value();
      auto epoch = r.read_u64();
      if (!epoch) return std::nullopt;
      d.epoch = epoch.value();
      auto base = r.read_u64();
      if (!base) return std::nullopt;
      d.base_epoch = base.value();
      auto is_base = r.read_bool();
      if (!is_base) return std::nullopt;
      d.is_base = is_base.value();
      auto applied = r.read_u64();
      if (!applied) return std::nullopt;
      d.applied = applied.value();
      auto prev_digest = r.read_u64();
      if (!prev_digest) return std::nullopt;
      d.prev_digest = prev_digest.value();
      auto digest = r.read_u64();
      if (!digest) return std::nullopt;
      d.digest = digest.value();
      auto pad = r.read_u32();
      if (!pad) return std::nullopt;
      d.value_pad = pad.value();
      auto n = r.read_u32();
      if (!n || !read_ckpt_entries(r, n.value(), d.value_pad, d.entries)) {
        return std::nullopt;
      }
      msg.ckpt_delta = std::move(d);
      return msg;
    }
    case CtrlKind::kCkptRequest: {
      msg.kind = CtrlKind::kCkptRequest;
      auto member = r.read_string();
      if (!member) return std::nullopt;
      auto nonce = r.read_u64();
      if (!nonce) return std::nullopt;
      auto have = r.read_u64();
      if (!have) return std::nullopt;
      msg.ckpt_request = CkptRequest{std::move(member.value()), nonce.value(),
                                     have.value()};
      return msg;
    }
    case CtrlKind::kLogReplay: {
      msg.kind = CtrlKind::kLogReplay;
      LogReplay lr;
      auto member = r.read_string();
      if (!member) return std::nullopt;
      lr.member = std::move(member.value());
      auto nonce = r.read_u64();
      if (!nonce) return std::nullopt;
      lr.nonce = nonce.value();
      auto applied = r.read_u64();
      if (!applied) return std::nullopt;
      lr.applied = applied.value();
      auto digest = r.read_u64();
      if (!digest) return std::nullopt;
      lr.digest = digest.value();
      auto n = r.read_u32();
      if (!n) return std::nullopt;
      lr.entries.reserve(r.bounded_count(n.value(), 8));
      for (std::uint32_t i = 0; i < n.value(); ++i) {
        auto seq = r.read_u64();
        if (!seq) return std::nullopt;
        lr.entries.push_back(seq.value());
      }
      msg.log_replay = std::move(lr);
      return msg;
    }
    case CtrlKind::kAliveEpoch: {
      msg.kind = CtrlKind::kAliveEpoch;
      AliveEpoch ae;
      auto epoch = r.read_u64();
      if (!epoch) return std::nullopt;
      ae.epoch = epoch.value();
      auto n = r.read_u32();
      if (!n) return std::nullopt;
      ae.alive.reserve(r.bounded_count(n.value(), kMinString));
      for (std::uint32_t i = 0; i < n.value(); ++i) {
        auto host = r.read_string();
        if (!host) return std::nullopt;
        ae.alive.push_back(std::move(host.value()));
      }
      msg.alive_epoch = std::move(ae);
      return msg;
    }
    case CtrlKind::kNodeJoin: {
      msg.kind = CtrlKind::kNodeJoin;
      auto host = r.read_string();
      if (!host) return std::nullopt;
      msg.node_join = NodeJoin{std::move(host.value())};
      return msg;
    }
    case CtrlKind::kRetire: {
      msg.kind = CtrlKind::kRetire;
      auto service = r.read_string();
      if (!service) return std::nullopt;
      auto member = r.read_string();
      if (!member) return std::nullopt;
      msg.retire = Retire{std::move(service.value()),
                          std::move(member.value())};
      return msg;
    }
    case CtrlKind::kUsageReport: {
      msg.kind = CtrlKind::kUsageReport;
      auto member = r.read_string();
      if (!member) return std::nullopt;
      auto usage = r.read_double();
      if (!usage) return std::nullopt;
      auto at = r.read_u64();
      if (!at) return std::nullopt;
      msg.usage_report = UsageReport{std::move(member.value()), usage.value(),
                                     at.value()};
      return msg;
    }
    case CtrlKind::kHandoff: {
      msg.kind = CtrlKind::kHandoff;
      auto service = r.read_string();
      if (!service) return std::nullopt;
      auto victim = r.read_string();
      if (!victim) return std::nullopt;
      auto successor = r.read_string();
      if (!successor) return std::nullopt;
      msg.handoff = Handoff{std::move(service.value()),
                            std::move(victim.value()),
                            std::move(successor.value())};
      return msg;
    }
    case CtrlKind::kQuorumSet: {
      msg.kind = CtrlKind::kQuorumSet;
      auto version = r.read_u64();
      if (!version) return std::nullopt;
      auto primary = r.read_string();
      if (!primary) return std::nullopt;
      auto n = r.read_u32();
      if (!n) return std::nullopt;
      ReadSet rs;
      rs.version = version.value();
      rs.primary = std::move(primary.value());
      rs.entries.reserve(r.bounded_count(n.value(), kMinAnnounce));
      for (std::uint32_t i = 0; i < n.value(); ++i) {
        auto a = read_announce(r);
        if (!a) return std::nullopt;
        rs.entries.push_back(std::move(*a));
      }
      auto nc = r.read_u32();
      if (!nc) return std::nullopt;
      rs.catching_up.reserve(r.bounded_count(nc.value(), kMinString));
      for (std::uint32_t i = 0; i < nc.value(); ++i) {
        auto name = r.read_string();
        if (!name) return std::nullopt;
        rs.catching_up.push_back(std::move(name.value()));
      }
      msg.read_set = std::move(rs);
      return msg;
    }
    case CtrlKind::kCatchupDone: {
      msg.kind = CtrlKind::kCatchupDone;
      auto service = r.read_string();
      if (!service) return std::nullopt;
      auto member = r.read_string();
      if (!member) return std::nullopt;
      msg.catchup_done = CatchupDone{std::move(service.value()),
                                     std::move(member.value())};
      return msg;
    }
    case CtrlKind::kReplyCache: {
      msg.kind = CtrlKind::kReplyCache;
      ReplyCache rc;
      auto member = r.read_string();
      if (!member) return std::nullopt;
      rc.member = std::move(member.value());
      auto nonce = r.read_u64();
      if (!nonce) return std::nullopt;
      rc.nonce = nonce.value();
      auto n = r.read_u32();
      if (!n) return std::nullopt;
      rc.entries.reserve(r.bounded_count(n.value(), 16));
      for (std::uint32_t i = 0; i < n.value(); ++i) {
        auto client_id = r.read_u64();
        if (!client_id) return std::nullopt;
        auto seq = r.read_u64();
        if (!seq) return std::nullopt;
        rc.entries.emplace_back(client_id.value(), seq.value());
      }
      msg.reply_cache = std::move(rc);
      return msg;
    }
  }
  return std::nullopt;
}

std::optional<CkptSource> peek_ckpt_source(ByteView payload) {
  if (peek_ctrl_kind(payload) != CtrlKind::kCkptDelta) return std::nullopt;
  CdrReader r(payload, ByteOrder::kLittleEndian, 1);
  auto member = r.read_string_view();
  if (!member) return std::nullopt;
  auto nonce = r.read_u64();
  if (!nonce) return std::nullopt;
  return CkptSource{member.value(), nonce.value()};
}

}  // namespace mead::core

#include "core/registry.h"

#include <algorithm>

namespace mead::core {

void ReplicaRegistry::on_view(const gc::View& view) {
  view_ = view;
  // Drop announcements for members no longer in the view: a relaunched
  // replica re-announces with a fresh endpoint, so stale records must not
  // linger as fail-over targets (the cache scheme's stale-reference problem
  // is exactly what this avoids for the proactive schemes).
  std::erase_if(announced_, [&](const auto& kv) {
    return !view_.contains(kv.first);
  });
}

void ReplicaRegistry::on_announce(const Announce& announce) {
  Record rec;
  rec.member = announce.member;
  rec.endpoint = announce.endpoint;
  rec.ior = announce.ior;
  announced_[announce.member] = std::move(rec);
}

void ReplicaRegistry::on_listing(const Listing& listing) {
  for (const auto& entry : listing.entries) on_announce(entry);
}

std::size_t ReplicaRegistry::known_count() const {
  std::size_t n = 0;
  for (const auto& m : view_.members) {
    if (announced_.contains(m)) ++n;
  }
  return n;
}

bool ReplicaRegistry::is_first(const std::string& member) const {
  // "First" means first *replica* in view order. Non-replica group members
  // (the Recovery Manager subscribes to the same group, §3.3) never
  // announce, so the first announced member is the distinguished one.
  // Compared in place: first() would copy the whole record.
  for (const auto& m : view_.members) {
    if (announced_.contains(m)) return m == member;
  }
  return false;
}

std::optional<ReplicaRegistry::Record> ReplicaRegistry::first() const {
  for (const auto& m : view_.members) {
    auto it = announced_.find(m);
    if (it != announced_.end()) return it->second;
  }
  return std::nullopt;
}

std::optional<ReplicaRegistry::Record> ReplicaRegistry::next_after(
    const std::string& member) const {
  const auto& members = view_.members;
  if (members.empty()) return std::nullopt;
  auto self = std::find(members.begin(), members.end(), member);
  // Walk cyclically from the position after `member`.
  const std::size_t start =
      self == members.end()
          ? 0
          : static_cast<std::size_t>(self - members.begin()) + 1;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const auto& candidate = members[(start + i) % members.size()];
    if (candidate == member) continue;
    auto it = announced_.find(candidate);
    if (it != announced_.end()) return it->second;
  }
  return std::nullopt;
}

std::optional<ReplicaRegistry::Record> ReplicaRegistry::find(
    const std::string& member) const {
  if (!view_.contains(member)) return std::nullopt;
  auto it = announced_.find(member);
  if (it == announced_.end()) return std::nullopt;
  return it->second;
}

std::optional<ReplicaRegistry::Record> ReplicaRegistry::lookup_by_key_hash(
    std::uint16_t hash, const std::string& member) const {
  auto rec = find(member);
  if (!rec) return std::nullopt;
  if (rec->ior.key.hash16() != hash) return std::nullopt;
  return rec;
}

std::vector<ReplicaRegistry::Record> ReplicaRegistry::listed() const {
  std::vector<Record> out;
  for (const auto& m : view_.members) {
    auto it = announced_.find(m);
    if (it != announced_.end()) out.push_back(it->second);
  }
  return out;
}

void ReplicaRegistry::encode(giop::CdrWriter& w) const {
  w.write_u64(view_.view_id);
  w.write_u32(static_cast<std::uint32_t>(view_.members.size()));
  for (const auto& m : view_.members) w.write_string(m);
  w.write_u32(static_cast<std::uint32_t>(announced_.size()));
  for (const auto& [name, rec] : announced_) {
    w.write_string(rec.member);
    w.write_string(rec.endpoint.host);
    w.write_u16(rec.endpoint.port);
    giop::encode_ior(w, rec.ior);
  }
}

bool ReplicaRegistry::decode(giop::CdrReader& r) {
  auto view_id = r.read_u64();
  if (!view_id) return false;
  auto member_count = r.read_u32();
  if (!member_count) return false;
  gc::View view;
  view.view_id = *view_id;
  view.members.reserve(*member_count);
  for (std::uint32_t i = 0; i < *member_count; ++i) {
    auto m = r.read_string();
    if (!m) return false;
    view.members.push_back(std::move(*m));
  }
  auto announced_count = r.read_u32();
  if (!announced_count) return false;
  std::map<std::string, Record> announced;
  for (std::uint32_t i = 0; i < *announced_count; ++i) {
    Record rec;
    auto member = r.read_string();
    if (!member) return false;
    rec.member = std::move(*member);
    auto host = r.read_string();
    if (!host) return false;
    rec.endpoint.host = std::move(*host);
    auto port = r.read_u16();
    if (!port) return false;
    rec.endpoint.port = *port;
    auto ior = giop::decode_ior(r);
    if (!ior) return false;
    rec.ior = std::move(*ior);
    std::string key = rec.member;
    announced[std::move(key)] = std::move(rec);
  }
  view_ = std::move(view);
  announced_ = std::move(announced);
  return true;
}

std::vector<ReplicaRegistry::Record> ReplicaRegistry::read_set(
    const std::set<std::string>& excluded) const {
  std::vector<Record> out;
  for (const auto& m : view_.members) {
    if (excluded.contains(m)) continue;
    auto it = announced_.find(m);
    if (it != announced_.end()) out.push_back(it->second);
  }
  return out;
}

}  // namespace mead::core

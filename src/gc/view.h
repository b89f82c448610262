// Group views and client-side events.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "gc/wire.h"

namespace mead::gc {

/// A membership view of one group. Members are listed in join order; the
/// paper's protocols repeatedly use "the first replica listed in Spread's
/// group-membership list" as the distinguished member (§4.2, §4.3).
struct View {
  View() = default;
  View(std::uint64_t id, std::vector<std::string> m)
      : view_id(id), members(std::move(m)) {}

  std::uint64_t view_id = 0;
  std::vector<std::string> members;

  [[nodiscard]] bool contains(const std::string& name) const {
    return std::find(members.begin(), members.end(), name) != members.end();
  }
  /// First member, or empty string for an empty view.
  [[nodiscard]] std::string first() const {
    return members.empty() ? std::string{} : members.front();
  }

  friend bool operator==(const View&, const View&) = default;
};

/// What a group-communication client receives. A message event keeps the
/// kDeliver frame it arrived in, and its payload views that frame's bytes:
/// valid as long as the event, wherever it moves. Move-only, like Frame.
struct Event {
  enum class Kind { kMessage, kView };

  Event() = default;

  Kind kind = Kind::kMessage;
  std::string group;
  std::string sender;   // kMessage only
  ByteView payload;     // kMessage only: views `frame`
  std::uint64_t seq = 0;
  View view;            // kView only
  std::optional<Frame> frame;  // kMessage only
};

}  // namespace mead::gc

// Client-side request routing: which replica should this invocation go to?
//
// Warm-passive CORBA hard-wires the answer — the primary's IOR — and that
// assumption used to be baked into every client. A Router makes it a
// policy: the stub consults its Router (if any) at the top of invoke(),
// and the Router picks a target from the group's current *read set* (the
// live, non-doomed replicas the Recovery Manager publishes for
// kActiveReadFanout groups). Writes always go to the primary; reads fan
// out per policy. When a routed-to replica is doomed mid-stream the
// existing per-scheme recovery machinery (LOCATION_FORWARD /
// NEEDS_ADDRESSING_MODE / MEAD redirect / reactive re-resolve) still
// applies unchanged — routing only chooses where the request *starts*.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "giop/types.h"

namespace mead::orb {

enum class RoutingPolicy : std::uint8_t {
  kPrimaryOnly,  // always the stub's bound reference (warm-passive default)
  kRoundRobin,   // rotate each read over the read set
  kSticky,       // stay on one read replica; move only when it fails
};

[[nodiscard]] constexpr std::string_view to_string(RoutingPolicy p) {
  switch (p) {
    case RoutingPolicy::kPrimaryOnly: return "primary-only";
    case RoutingPolicy::kRoundRobin: return "round-robin";
    case RoutingPolicy::kSticky: return "sticky";
  }
  return "?";
}

class Router {
 public:
  struct Target {
    std::string member;
    giop::IOR ior;
    friend bool operator==(const Target&, const Target&) = default;
  };

  explicit Router(RoutingPolicy policy) : policy_(policy) {}

  /// Installs a fresh read set (from a kReadSet / kQuorumSet update).
  /// Stale versions (<= the installed one) are ignored; a newer set clears
  /// all failure marks — the Recovery Manager already removed doomed
  /// members. `catching_up` (kQuorumSet only) lists members that count for
  /// writes but are excluded from read routing until their catch-up ends.
  void update(std::uint64_t version, std::string primary,
              std::vector<Target> read_set,
              std::vector<std::string> catching_up = {});

  /// Marks an operation as a write; writes always route to the primary.
  /// By default every operation is a read.
  void mark_write(std::string operation) {
    write_ops_.insert(std::move(operation));
  }

  /// Picks the target for the next invocation of `operation`, advancing
  /// round-robin state. nullptr means "keep the stub's current reference"
  /// (primary-only policy, no read set yet, or every candidate failed).
  [[nodiscard]] const Target* route(const std::string& operation);

  /// The last routed-to replica failed mid-invocation: drop it from the
  /// rotation until the next read-set update replaces the set.
  void note_failure();

  /// Quorum confirm reads: the first read-serving target other than
  /// `exclude` (nullptr when the set has no second healthy member). Does
  /// not advance rotation state or touch last_routed().
  [[nodiscard]] const Target* pick_read_other(const std::string& exclude) const;

  [[nodiscard]] RoutingPolicy policy() const { return policy_; }
  [[nodiscard]] std::uint64_t version() const { return version_; }
  [[nodiscard]] const std::string& primary() const { return primary_; }
  /// Member the last route() call handed out ("" if it fell back).
  [[nodiscard]] const std::string& last_routed() const { return last_routed_; }

 private:
  [[nodiscard]] const Target* pick_read();
  [[nodiscard]] const Target* pick_primary();

  RoutingPolicy policy_;
  std::uint64_t version_ = 0;
  std::string primary_;
  std::vector<Target> read_set_;
  std::set<std::string> write_ops_;
  std::set<std::string> failed_;  // members dropped until the next update
  std::set<std::string> catching_up_;  // in-set but not read-serving
  std::size_t rr_next_ = 0;       // round-robin cursor
  std::string sticky_;            // current sticky member ("" = unpinned)
  std::string last_routed_;       // for note_failure()
};

}  // namespace mead::orb

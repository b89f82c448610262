// Structured event trace: timestamped records of the simulation's
// recovery-relevant transitions (replica launches, threshold crossings,
// fail-overs, redirects, GC broadcasts, crashes, ...) collected into a
// bounded per-simulation ring buffer and exportable as JSONL or CSV.
//
// Because every simulation is deterministic from its seed, two runs of the
// same spec produce byte-identical exports — the property tests/obs/
// asserts and that makes traces diffable artifacts across PRs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace mead::obs {

enum class EventKind : std::uint8_t {
  kReplicaLaunched,    // Recovery Manager ran the replica factory
  kReplicaRegistered,  // replica bound in the Naming Service
  kThresholdCrossed,   // T1/T2 (or adaptive lead) trigger fired
  kLaunchRequested,    // FT manager multicast a LaunchRequest
  kMigrateBegin,       // server started moving its clients away
  kRejuvenate,         // replica's graceful rejuvenation exit
  kFailoverBegin,      // client-visible failure: recovery started
  kFailoverEnd,        // invocation completed after a recovery event
  kRedirect,           // MEAD fail-over frame acted on (dup2 re-point)
  kForward,            // client ORB followed a LOCATION_FORWARD
  kMaskedFailure,      // NEEDS_ADDRESSING fabrication hid an EOF
  kQueryTimeout,       // group primary query answered too late
  kGcBroadcast,        // sequencer stamped + broadcast an ordered message
  kCrash,              // process killed abruptly
  kExit,               // process exited gracefully
  kClientException,    // CORBA system exception reached the application
  kNamingRefresh,      // client re-resolved bindings from Naming
  kWorldUp,            // testbed bring-up finished
  kFaultInjected,      // chaos controller executed a scheduled fault
  kDaemonRejoin,       // expelled GC daemon resynced state after a heal
  kPlacement,          // Recovery Manager placed a replica algorithmically
  kReadSetUpdate,      // Recovery Manager republished a fanout read set
  kRouteSwitch,        // routing client re-pointed its stub at a replica
  kRmFailover,         // a backup Recovery Manager became first-in-view
  kGcBatchFlush,       // daemon flushed a coalesced FrameBatch (value = n)
  kCkptTaken,          // stateful primary took a checkpoint (value = epoch)
  kRestoreBegin,       // stateful replica started its restore handshake
  kRestoreEnd,         // restore finished (value = restored ops)
  kMigrationPlanned,   // RM planner scheduled a proactive rotation
  kHandoff,            // atomic primary rotation ordered / completed
};

[[nodiscard]] std::string_view to_string(EventKind k);

struct Event {
  Event() = default;
  Event(std::uint64_t s, TimePoint t, EventKind k, std::string a,
        std::string d, double v)
      : seq(s), at(t), kind(k), actor(std::move(a)), detail(std::move(d)),
        value(v) {}

  std::uint64_t seq = 0;  // emission index, monotone across the simulation
  TimePoint at;
  EventKind kind = EventKind::kWorldUp;
  std::string actor;   // who ("replica/3", "client/1", "daemon/0", ...)
  std::string detail;  // free-form qualifier ("T1", group name, ...)
  double value = 0;    // kind-specific scalar (usage fraction, rtt ms, ...)

  friend bool operator==(const Event&, const Event&) = default;
};

/// Bounded ring buffer of events. When full, the oldest records are
/// overwritten; `dropped()` says how many were lost.
class EventTrace {
 public:
  static constexpr std::size_t kDefaultCapacity = 65536;

  explicit EventTrace(std::size_t capacity = kDefaultCapacity);

  void emit(TimePoint at, EventKind kind, std::string actor = {},
            std::string detail = {}, double value = 0);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  [[nodiscard]] std::uint64_t total_emitted() const { return next_seq_; }
  [[nodiscard]] std::uint64_t dropped() const {
    return next_seq_ - ring_.size();
  }

  /// Retained events, oldest first.
  [[nodiscard]] std::vector<Event> events() const;

  [[nodiscard]] std::string to_jsonl() const;
  [[nodiscard]] std::string to_csv() const;
  /// Writes to_jsonl() to `path`; false on I/O failure.
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

  /// Parses text produced by to_jsonl() back into events (export
  /// round-trip testing; not a general JSON parser).
  [[nodiscard]] static std::vector<Event> parse_jsonl(std::string_view text);

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  // next write slot once the ring wrapped
  std::uint64_t next_seq_ = 0;
  std::vector<Event> ring_;
};

}  // namespace mead::obs

// Client-side read-set subscription for kActiveReadFanout and kQuorum
// groups.
//
// The Recovery Manager multicasts the full serving set (kReadSet, or
// kQuorumSet for kQuorum) on the group's read-set GC group
// (read_set_group(service)) whenever it changes. A ReadSetSubscriber owns
// its own GcClient (joining the replica group itself would inflate the
// Recovery Manager's live count), joins that group, and invokes a
// callback for every fresh update — typically feeding an orb::Router.
// Versions are monotone per group; stale or reordered updates are dropped
// here so callers never see the set move backwards. Each set supersedes
// the last, so a subscriber that missed an update heals at the next
// publication.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "core/config.h"
#include "core/mead_wire.h"
#include "gc/client.h"

namespace mead::core {

class ReadSetSubscriber {
 public:
  using Callback = std::function<void(const ReadSet&)>;

  /// `member` must be unique across the system (convention: the owning
  /// client's member name + "/rs").
  ReadSetSubscriber(net::Process& proc, std::string member,
                    net::Endpoint daemon, std::string service, Callback cb);

  /// Connects to the local daemon, joins the read-set group and spawns the
  /// pump. Returns false if the daemon connection fails.
  [[nodiscard]] sim::Task<bool> start();

  [[nodiscard]] std::uint64_t last_version() const { return last_version_; }
  [[nodiscard]] std::uint64_t updates_applied() const { return applied_; }

 private:
  sim::Task<void> pump();

  net::Process& proc_;
  std::string service_;
  Callback cb_;
  std::unique_ptr<gc::GcClient> gc_;
  std::uint64_t last_version_ = 0;
  std::uint64_t applied_ = 0;
};

}  // namespace mead::core

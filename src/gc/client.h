// Client library for the group-communication system — the API surface the
// MEAD interceptor, Fault-Tolerance Manager, and Recovery Manager use to
// talk to their local daemon (the paper's equivalent: the Spread client
// library, whose socket the interceptor slips into the application's
// select() set, §3.1).
#pragma once

#include <deque>
#include <optional>
#include <string>

#include "gc/view.h"
#include "gc/wire.h"
#include "net/network.h"
#include "sim/task.h"

namespace mead::gc {

class GcClient {
 public:
  /// `member_name` must be unique across the whole system (convention:
  /// "replica/node1/1", "client/7", "recovery-manager").
  GcClient(net::Process& proc, std::string member_name,
           net::Endpoint daemon_endpoint);

  /// Connects to the local daemon and announces the member name. The daemon
  /// auto-joins this member to its reply group. Returns false on failure.
  [[nodiscard]] sim::Task<bool> connect();

  [[nodiscard]] bool connected() const { return fd_ >= 0; }
  /// The raw socket fd — for inclusion in an intercepted select() set.
  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Group operations. Fire-and-forget: effects arrive as View events.
  [[nodiscard]] sim::Task<bool> join(std::string group);
  [[nodiscard]] sim::Task<bool> leave(std::string group);
  [[nodiscard]] sim::Task<bool> multicast(std::string group, Bytes payload);

  /// multicast()'s whole body, which never suspends.
  bool post(std::string group, Bytes payload);
  /// Writes `frame`, a finished client frame (a McastWriter's), now.
  bool post_frame(Bytes frame);
  /// post() from a zero-delay event of its own, for callers mid-event.
  void post_soon(std::string group, Bytes payload);

  /// Point-to-point over multicast: sends to the member's reply group.
  [[nodiscard]] sim::Task<bool> send_to(const std::string& member, Bytes payload);

  /// Blocking event intake. Returns nullopt on timeout; an Expected error on
  /// connection loss. Buffered events are served without touching the
  /// socket.
  [[nodiscard]] sim::Task<Expected<std::optional<Event>, net::NetErr>> next_event(
      std::optional<Duration> timeout = std::nullopt);

  /// Non-blocking: pops an already-buffered event if any.
  [[nodiscard]] std::optional<Event> pop_buffered();

  /// Reads whatever is on the socket right now (one read call) and buffers
  /// decoded events. Use after select() reports fd() readable.
  [[nodiscard]] sim::Task<Expected<std::size_t, net::NetErr>> pump();

  /// Convenience: waits for a View event on `group` (buffering any other
  /// events). Returns nullopt on timeout.
  [[nodiscard]] sim::Task<std::optional<View>> wait_for_view(
      const std::string& group, Duration timeout);

  static std::string reply_group_of(const std::string& member);

 private:
  void decode_frames();

  net::Process& proc_;
  std::string name_;
  net::Endpoint daemon_;
  int fd_ = -1;
  LenFramer framer_;
  std::deque<Event> buffered_;
};

}  // namespace mead::gc

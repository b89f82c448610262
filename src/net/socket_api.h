// The socket system-call surface used by the ORB and the group-communication
// client library — and *intercepted* by MEAD.
//
// The paper implements interception by LD_PRELOAD-ing a library that
// overrides socket(), accept(), connect(), listen(), close(), read(),
// writev() and select() (§3.1). In this reproduction the same transparency is
// achieved structurally: the ORB is written against this abstract interface,
// the kernel-provided implementation is net::ProcessSocketApi, and the MEAD
// Interceptor is a decorator implementing the same interface. The ORB cannot
// tell whether it is talking to the raw API or to MEAD — exactly the property
// library interpositioning provides for an unmodified ORB.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "common/expected.h"
#include "common/types.h"
#include "net/types.h"
#include "sim/task.h"

namespace mead::net {

template <typename T>
using Result = Expected<T, NetErr>;

class SocketApi {
 public:
  virtual ~SocketApi() = default;

  /// Opens a listening socket on `port` (0 = auto-assign). Returns its fd.
  virtual Result<int> listen(std::uint16_t port) = 0;

  /// Blocks until a pending connection arrives on `listen_fd`; returns the
  /// connected fd.
  virtual sim::Task<Result<int>> accept(int listen_fd) = 0;

  /// Connects to a remote endpoint. Blocks for the connection handshake.
  virtual sim::Task<Result<int>> connect(const Endpoint& remote) = 0;

  /// Reads up to `max_bytes`. Blocks until data, EOF (returns an empty
  /// buffer), timeout (kTimeout) or error. No timeout = block indefinitely.
  /// Like a POSIX stream read it may return fewer bytes than are
  /// available: a read starting at a delivery boundary returns that one
  /// delivered buffer if it fits (see net::ByteQueue::pop).
  virtual sim::Task<Result<Bytes>> read(
      int fd, std::size_t max_bytes,
      std::optional<Duration> timeout = std::nullopt) = 0;

  /// Writes the whole buffer (gather-write analogue). Returns bytes written.
  virtual sim::Task<Result<std::size_t>> writev(int fd, Bytes data) = 0;

  /// Blocks until at least one fd is readable (data, EOF, or a pending
  /// accept), returning the readable subset; an empty vector means timeout.
  virtual sim::Task<Result<std::vector<int>>> select(
      std::vector<int> fds, std::optional<Duration> timeout = std::nullopt) = 0;

  /// Closes `fd`. Peer observes EOF after one propagation delay.
  virtual Result<void> close(int fd) = 0;

  /// POSIX dup2 analogue: makes `to_fd` refer to `from_fd`'s socket, closing
  /// whatever `to_fd` referred to before. This is the primitive the MEAD
  /// fail-over scheme uses to re-point an ORB connection at a new replica
  /// without the ORB noticing (§4.3).
  virtual Result<void> dup2(int from_fd, int to_fd) = 0;

  /// Local / peer address of a connected or listening fd.
  virtual Result<Endpoint> local_endpoint(int fd) const = 0;
  virtual Result<Endpoint> peer_endpoint(int fd) const = 0;
};

}  // namespace mead::net

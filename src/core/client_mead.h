// Client-side MEAD: the Interceptor with the embedded client-side Proactive
// Fault-Tolerance Manager (§3.1, §3.2).
//
// Scheme-specific behaviour:
//  * MEAD message (§4.3): read() splits the piggybacked byte stream, strips
//    "MEAD" fail-over frames, re-points the connection at the new replica
//    (connect + dup2 + close, beneath the unmodified ORB), and hands the
//    clean GIOP bytes up. Subsequent requests flow to the new replica with
//    no retransmission.
//  * NEEDS_ADDRESSING_MODE (§4.2): when read() sees an abrupt EOF, the
//    interceptor asks the server group (via group communication) for the
//    next primary, waits up to the 10 ms query timeout, redirects the
//    connection, and fabricates a NEEDS_ADDRESSING_MODE reply so the client
//    ORB retransmits its last request over the (redirected) connection. If
//    no answer arrives in time the EOF is surfaced and the application sees
//    CORBA::COMM_FAILURE.
//  * LOCATION_FORWARD (§4.1) needs no client interceptor at all — the
//    client ORB's native retransmission does the work.
//
// Server connections are identified by connect() target: anything that is
// not the GC daemon port or the Naming Service port is application traffic.
#pragma once

#include <memory>
#include <optional>

#include "core/config.h"
#include "core/mead_wire.h"
#include "gc/client.h"
#include "giop/messages.h"
#include "net/fd_table.h"
#include "net/network.h"
#include "net/socket_api.h"

namespace mead::core {

class ClientMead final : public net::SocketApi {
 public:
  ClientMead(net::ProcessPtr proc, MeadConfig cfg);
  ~ClientMead() override;

  /// NEEDS_ADDRESSING only: connects to the GC daemon (for primary
  /// queries). MEAD-message mode needs no GC at the client; calling start()
  /// is then a no-op success.
  [[nodiscard]] sim::Task<bool> start();

  struct Stats {
    std::uint64_t mead_redirects = 0;    // fail-over frames acted upon
    std::uint64_t masked_failures = 0;   // NEEDS_ADDRESSING fabrications
    std::uint64_t unmasked_eofs = 0;     // EOFs surfaced to the ORB
    std::uint64_t query_timeouts = 0;    // group answered too late (§5.2.1)
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const MeadConfig& config() const { return cfg_; }

  /// Query timeout for the NEEDS_ADDRESSING scheme (paper: 10 ms).
  void set_query_timeout(Duration d) { query_timeout_ = d; }

  // ---- net::SocketApi (decorator) ----
  net::Result<int> listen(std::uint16_t port) override;
  sim::Task<net::Result<int>> accept(int listen_fd) override;
  sim::Task<net::Result<int>> connect(const net::Endpoint& remote) override;
  sim::Task<net::Result<Bytes>> read(int fd, std::size_t max_bytes,
                                     std::optional<Duration> timeout) override;
  sim::Task<net::Result<std::size_t>> writev(int fd, Bytes data) override;
  sim::Task<net::Result<std::vector<int>>> select(
      std::vector<int> fds, std::optional<Duration> timeout) override;
  net::Result<void> close(int fd) override;
  net::Result<void> dup2(int from_fd, int to_fd) override;
  net::Result<net::Endpoint> local_endpoint(int fd) const override;
  net::Result<net::Endpoint> peer_endpoint(int fd) const override;

 private:
  struct ServerConn {
    giop::FrameBuffer splitter;     // separates MEAD frames from GIOP bytes
    Bytes clean;                    // GIOP bytes ready for the ORB
    std::uint32_t last_request_id = 0;
    bool redirect_pending = false;  // avoid double redirects in one read
  };

  [[nodiscard]] bool infrastructure_port(std::uint16_t port) const {
    return port == cfg_.daemon_port || port == cfg_.naming_port;
  }

  /// Re-points `fd` at `target` (connect + dup2 + close of the alias).
  [[nodiscard]] sim::Task<bool> redirect(int fd, net::Endpoint target);
  /// §4.2 masking path; returns the fabricated reply bytes on success.
  [[nodiscard]] sim::Task<std::optional<Bytes>> mask_abrupt_failure(int fd);

  net::ProcessPtr proc_;
  MeadConfig cfg_;
  net::SocketApi& inner_;
  // Hot-path counters, resolved once at construction (registry refs stay
  // valid for the simulation's lifetime).
  obs::Counter& query_timeouts_;
  obs::Counter& masked_failures_;
  obs::Counter& unmasked_eofs_;
  obs::Counter& mead_redirects_;
  std::unique_ptr<gc::GcClient> gc_;
  Duration query_timeout_ = milliseconds(10);
  std::uint64_t query_nonce_ = 0;
  net::FdTable<ServerConn> server_conns_;
  Stats stats_;
};

}  // namespace mead::core

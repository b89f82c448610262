// Client-side ORB machinery: an object reference with a synchronous invoke()
// implementing GIOP's retransmission rules.
//
// Recovery-relevant behaviour (all exercised by the paper's schemes):
//  * LOCATION_FORWARD reply  -> re-target to the IOR in the body, reconnect,
//    retransmit (native CORBA fail-over, §4.1);
//  * NEEDS_ADDRESSING_MODE   -> retransmit the same request over the current
//    connection — which the interceptor may have silently re-pointed (§4.2);
//  * connection EOF/reset    -> CORBA::COMM_FAILURE surfaced to the caller
//    (what reactive clients see when a replica dies, §5.2.1).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "giop/messages.h"
#include "orb/orb.h"
#include "orb/routing.h"

namespace mead::orb {

using InvokeResult = Expected<Bytes, giop::SystemException>;

class Stub {
 public:
  Stub(Orb& orb, giop::IOR ior)
      : orb_(orb), ior_(std::move(ior)),
        forwards_followed_(
            orb.sim().obs().metrics().counter("orb.forwards_followed")),
        readdress_retries_(
            orb.sim().obs().metrics().counter("orb.readdress_retries")) {}
  Stub(const Stub&) = delete;
  Stub& operator=(const Stub&) = delete;
  ~Stub() {
    drop_connection();
    drop_pooled();
  }

  /// Synchronous CORBA invocation. At most one in flight per stub.
  [[nodiscard]] sim::Task<InvokeResult> invoke(std::string operation, Bytes args);

  /// Current target reference (may change after LOCATION_FORWARD).
  [[nodiscard]] const giop::IOR& target() const { return ior_; }

  /// Re-points the stub at a different reference and drops the connection.
  /// (Used by the reactive client's cache fail-over.)
  void rebind(giop::IOR ior);

  /// Attaches a routing policy: invoke() consults it on every call and may
  /// re-point the stub at a read replica before sending. Live connections
  /// to previously routed endpoints are pooled instead of torn down, so a
  /// round-robin rotation does not pay connection setup on every switch.
  /// Pass nullptr to detach. The router must outlive the stub.
  void set_router(Router* router) { router_ = router; }
  [[nodiscard]] Router* router() const { return router_; }

  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  /// Number of LOCATION_FORWARDs followed over this stub's lifetime.
  [[nodiscard]] std::uint64_t forwards_followed() const { return forwards_; }
  /// Number of NEEDS_ADDRESSING_MODE retransmissions.
  [[nodiscard]] std::uint64_t readdress_retries() const { return readdress_; }
  /// Number of router-driven endpoint switches.
  [[nodiscard]] std::uint64_t route_switches() const { return route_switches_; }

 private:
  [[nodiscard]] sim::Task<Expected<int, net::NetErr>> ensure_connected();
  void drop_connection();
  void drop_pooled();
  /// Router-driven re-target: parks the current connection in the pool and
  /// adopts a pooled one for the new endpoint, if present.
  void switch_to(const giop::IOR& ior);
  [[nodiscard]] sim::Task<InvokeResult> fail(giop::SysExKind kind,
                                             giop::CompletionStatus completed);

  struct PooledConn {
    int fd = -1;
    giop::FrameBuffer frames;
  };

  Orb& orb_;
  giop::IOR ior_;
  Router* router_ = nullptr;
  std::map<std::string, PooledConn> pool_;  // keyed by "host:port"
  // Hot-path counters, resolved once at construction (registry refs stay
  // valid for the simulation's lifetime).
  obs::Counter& forwards_followed_;
  obs::Counter& readdress_retries_;
  int fd_ = -1;
  giop::FrameBuffer frames_;
  bool in_flight_ = false;
  std::uint64_t forwards_ = 0;
  std::uint64_t readdress_ = 0;
  std::uint64_t route_switches_ = 0;
};

}  // namespace mead::orb

// ORB core: the per-process CORBA runtime context.
//
// The crucial design point for this reproduction: the ORB performs ALL
// network I/O through an injected net::SocketApi. The kernel's
// ProcessSocketApi plays the role of the C library's socket calls; MEAD's
// interceptor is another SocketApi that wraps it. Swapping one for the other
// changes nothing in ORB code — the transparency property the paper gets
// from LD_PRELOAD library interpositioning (§3.1).
#pragma once

#include <cstdint>
#include <optional>

#include "common/types.h"
#include "net/network.h"
#include "net/socket_api.h"

namespace mead::orb {

/// Virtual-time CPU costs charged by the ORB runtime. These constants are
/// the calibration knobs that map protocol work onto the paper's measured
/// milliseconds (baseline RTT 0.75 ms etc. — see app/calibration.h).
struct CostModel {
  CostModel() = default;

  Duration request_marshal{0};    // client: encode request
  Duration request_demarshal{0};  // server: decode request
  Duration reply_marshal{0};      // server: encode reply
  Duration reply_demarshal{0};    // client: decode reply
  Duration servant_default{0};    // server: servant execution (if servant
                                  // doesn't charge its own time)
  Duration exception_unwind{0};   // client: surface a system exception to
                                  // the application (the paper's ~1.1-1.8 ms
                                  // COMM_FAILURE registration cost)
  Duration connection_setup{0};   // client: ORB-level machinery for opening
                                  // a NEW connection (TAO's connect path was
                                  // expensive — this is why MEAD's raw
                                  // dup2 redirect beats ORB reconnection)
};

class Orb {
 public:
  /// `api` defaults to the process' raw socket API; pass an interceptor to
  /// run the ORB beneath MEAD.
  Orb(net::Process& proc, net::SocketApi& api, CostModel costs = {})
      : proc_(proc), api_(api), costs_(costs) {}
  explicit Orb(net::Process& proc) : Orb(proc, proc.api()) {}
  Orb(const Orb&) = delete;
  Orb& operator=(const Orb&) = delete;

  [[nodiscard]] net::Process& process() { return proc_; }
  [[nodiscard]] net::SocketApi& api() { return api_; }
  [[nodiscard]] sim::Simulator& sim() const { return proc_.sim(); }
  [[nodiscard]] const CostModel& costs() const { return costs_; }

  [[nodiscard]] std::uint32_t next_request_id() { return next_request_id_++; }

  /// Reply deadline applied by stubs while awaiting a response (surfaces as
  /// COMM_FAILURE/kMaybe). Unset (default): block indefinitely — a crashed
  /// server always delivers EOF, so only partitioned links need this.
  void set_invoke_timeout(std::optional<Duration> t) { invoke_timeout_ = t; }
  [[nodiscard]] std::optional<Duration> invoke_timeout() const {
    return invoke_timeout_;
  }

  /// Charges CPU time (virtual). Yields false if the process died; a
  /// non-positive `d` completes at once and schedules nothing.
  [[nodiscard]] net::Process::SleepAwaiter charge(Duration d) {
    return net::Process::SleepAwaiter{&proc_, d, d <= Duration{0}};
  }

 private:
  net::Process& proc_;
  net::SocketApi& api_;
  CostModel costs_;
  std::optional<Duration> invoke_timeout_;
  std::uint32_t next_request_id_ = 1;
};

}  // namespace mead::orb

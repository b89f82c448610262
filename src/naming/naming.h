// CORBA Naming Service (simplified CosNaming): name -> IOR bindings, exposed
// as an ordinary CORBA object so clients resolve references exactly the way
// the paper's reactive schemes do (§5: "the client waited until it detected a
// server failure before contacting the CORBA Naming Service for the address
// of the next available server replica").
//
// Multi-binding semantics: a name may hold several IORs (one per replica).
// resolve() returns the first (oldest) binding; resolve_all() returns every
// binding — the cached-reference scheme uses it to prefetch all replicas.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "orb/orb.h"
#include "orb/servant.h"
#include "orb/server.h"
#include "orb/stub.h"

namespace mead::naming {

inline constexpr std::uint16_t kNamingPort = 2809;  // standard corbaloc port
inline constexpr const char* kNamingObjectPath = "NameService";

/// Server-side implementation.
class NamingServant final : public orb::Servant {
 public:
  /// `lookup_cost` is charged per resolve — the calibration knob behind the
  /// paper's ~8.4 ms first-resolve spike (TAO naming-service latency).
  explicit NamingServant(orb::Orb& orb, Duration lookup_cost = Duration{0})
      : orb_(orb), lookup_cost_(lookup_cost) {}

  [[nodiscard]] sim::Task<orb::DispatchResult> dispatch(
      std::string operation, Bytes args, giop::ByteOrder order) override;
  [[nodiscard]] std::string type_id() const override {
    return "IDL:omg.org/CosNaming/NamingContext:1.0";
  }

 private:
  orb::Orb& orb_;
  Duration lookup_cost_;
  std::map<std::string, std::vector<giop::IOR>> bindings_;
};

/// Convenience: a naming-service process = ORB server + servant. Returns the
/// service's IOR through `out_ior`.
struct NamingServerBundle {
  std::unique_ptr<orb::Orb> orb;
  std::unique_ptr<orb::OrbServer> server;
  giop::IOR ior;
};
NamingServerBundle start_naming_server(net::Process& proc,
                                       Duration lookup_cost = Duration{0},
                                       std::uint16_t port = kNamingPort);

/// Builds the well-known naming IOR from a host (corbaloc-style bootstrap —
/// clients know only the naming host, like -ORBInitRef NameService=...).
[[nodiscard]] giop::IOR naming_ior(const std::string& host,
                                   std::uint16_t port = kNamingPort);

/// Client-side typed wrapper over a Stub.
class NamingClient {
 public:
  NamingClient(orb::Orb& orb, giop::IOR naming_service)
      : stub_(orb, std::move(naming_service)) {}

  /// Appends a binding for `name` (replicas register side by side).
  [[nodiscard]] sim::Task<bool> bind(std::string name, giop::IOR ior);
  /// Replaces any previous binding under `name` from the same HOST (one
  /// replica per host; a relaunched replica supersedes its predecessor).
  [[nodiscard]] sim::Task<bool> rebind(std::string name, giop::IOR ior);
  /// Removes a specific binding (match by endpoint).
  [[nodiscard]] sim::Task<bool> unbind(std::string name, net::Endpoint endpoint);
  /// First binding for `name`.
  [[nodiscard]] sim::Task<Expected<giop::IOR, giop::SystemException>> resolve(
      std::string name);
  /// All bindings for `name`.
  [[nodiscard]] sim::Task<Expected<std::vector<giop::IOR>, giop::SystemException>>
  resolve_all(std::string name);

 private:
  orb::Stub stub_;
};

}  // namespace mead::naming

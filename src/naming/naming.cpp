#include "naming/naming.h"

#include <algorithm>

namespace mead::naming {

using giop::CdrReader;
using giop::CdrWriter;

namespace {

giop::SystemException bad_param() {
  return giop::SystemException{giop::SysExKind::kMarshal, 0,
                               giop::CompletionStatus::kNo};
}

giop::SystemException not_found() {
  // CosNaming raises NotFound (a user exception); the mini-ORB folds it into
  // OBJECT_NOT_EXIST which callers treat equivalently.
  return giop::SystemException{giop::SysExKind::kObjectNotExist, 0,
                               giop::CompletionStatus::kYes};
}

}  // namespace

sim::Task<orb::DispatchResult> NamingServant::dispatch(std::string operation,
                                                       Bytes args,
                                                       giop::ByteOrder order) {
  CdrReader r(args, order);
  if (operation == "bind" || operation == "rebind") {
    auto name = r.read_string();
    if (!name) co_return make_unexpected(bad_param());
    auto ior = giop::decode_ior(r);
    if (!ior) co_return make_unexpected(bad_param());
    auto& list = bindings_[name.value()];
    if (operation == "rebind") {
      // Deployment convention: one replica per host, so a re-registering
      // (relaunched) replica replaces its predecessor's binding on the same
      // host even though its port changed. This is what lets a reactive
      // client's fresh resolve find live addresses.
      std::erase_if(list, [&](const giop::IOR& existing) {
        return existing.endpoint.host == ior->endpoint.host;
      });
    }
    list.push_back(std::move(ior.value()));
    co_return Bytes{};
  }
  if (operation == "unbind") {
    auto name = r.read_string();
    if (!name) co_return make_unexpected(bad_param());
    auto host = r.read_string();
    if (!host) co_return make_unexpected(bad_param());
    auto port = r.read_u16();
    if (!port) co_return make_unexpected(bad_param());
    auto it = bindings_.find(name.value());
    if (it == bindings_.end()) co_return make_unexpected(not_found());
    const net::Endpoint target{host.value(), port.value()};
    std::erase_if(it->second, [&](const giop::IOR& existing) {
      return existing.endpoint == target;
    });
    co_return Bytes{};
  }
  if (operation == "resolve" || operation == "resolve_all") {
    // The paper's fail-over spikes are dominated by this lookup.
    {
      const bool alive = co_await orb_.charge(lookup_cost_);
      if (!alive) {
        co_return make_unexpected(giop::SystemException{
            giop::SysExKind::kInternal, 0, giop::CompletionStatus::kNo});
      }
    }
    auto name = r.read_string();
    if (!name) co_return make_unexpected(bad_param());
    auto it = bindings_.find(name.value());
    if (it == bindings_.end() || it->second.empty()) {
      co_return make_unexpected(not_found());
    }
    CdrWriter w;
    if (operation == "resolve") {
      w.write_u32(1);
      giop::encode_ior(w, it->second.front());
    } else {
      w.write_u32(static_cast<std::uint32_t>(it->second.size()));
      for (const auto& ior : it->second) giop::encode_ior(w, ior);
    }
    co_return w.take();
  }
  co_return make_unexpected(giop::SystemException{
      giop::SysExKind::kNoImplement, 0, giop::CompletionStatus::kNo});
}

giop::IOR naming_ior(const std::string& host, std::uint16_t port) {
  return giop::IOR{"IDL:omg.org/CosNaming/NamingContext:1.0",
                   net::Endpoint{host, port},
                   giop::ObjectKey::make_persistent(kNamingObjectPath)};
}

NamingServerBundle start_naming_server(net::Process& proc, Duration lookup_cost,
                                       std::uint16_t port) {
  NamingServerBundle bundle;
  bundle.orb = std::make_unique<orb::Orb>(proc);
  bundle.server = std::make_unique<orb::OrbServer>(*bundle.orb, port);
  auto servant = std::make_shared<NamingServant>(*bundle.orb, lookup_cost);
  bundle.ior =
      bundle.server->adapter().register_servant(kNamingObjectPath, servant);
  bundle.server->start();
  return bundle;
}

// ----------------------------------------------------------- NamingClient

sim::Task<bool> NamingClient::bind(std::string name, giop::IOR ior) {
  CdrWriter w;
  w.write_string(name);
  giop::encode_ior(w, ior);
  auto r = co_await stub_.invoke("bind", w.take());
  co_return r.ok();
}

sim::Task<bool> NamingClient::rebind(std::string name, giop::IOR ior) {
  CdrWriter w;
  w.write_string(name);
  giop::encode_ior(w, ior);
  auto r = co_await stub_.invoke("rebind", w.take());
  co_return r.ok();
}

sim::Task<bool> NamingClient::unbind(std::string name, net::Endpoint endpoint) {
  CdrWriter w;
  w.write_string(name);
  w.write_string(endpoint.host);
  w.write_u16(endpoint.port);
  auto r = co_await stub_.invoke("unbind", w.take());
  co_return r.ok();
}

sim::Task<Expected<giop::IOR, giop::SystemException>> NamingClient::resolve(
    std::string name) {
  CdrWriter w;
  w.write_string(name);
  auto r = co_await stub_.invoke("resolve", w.take());
  if (!r) co_return make_unexpected(r.error());
  CdrReader reader(r.value(), giop::ByteOrder::kLittleEndian);
  auto count = reader.read_u32();
  if (!count || count.value() < 1) {
    co_return make_unexpected(giop::SystemException{
        giop::SysExKind::kMarshal, 0, giop::CompletionStatus::kYes});
  }
  auto ior = giop::decode_ior(reader);
  if (!ior) {
    co_return make_unexpected(giop::SystemException{
        giop::SysExKind::kMarshal, 0, giop::CompletionStatus::kYes});
  }
  co_return ior.value();
}

sim::Task<Expected<std::vector<giop::IOR>, giop::SystemException>>
NamingClient::resolve_all(std::string name) {
  CdrWriter w;
  w.write_string(name);
  auto r = co_await stub_.invoke("resolve_all", w.take());
  if (!r) co_return make_unexpected(r.error());
  CdrReader reader(r.value(), giop::ByteOrder::kLittleEndian);
  auto count = reader.read_u32();
  if (!count) {
    co_return make_unexpected(giop::SystemException{
        giop::SysExKind::kMarshal, 0, giop::CompletionStatus::kYes});
  }
  std::vector<giop::IOR> iors;
  iors.reserve(count.value());
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto ior = giop::decode_ior(reader);
    if (!ior) {
      co_return make_unexpected(giop::SystemException{
          giop::SysExKind::kMarshal, 0, giop::CompletionStatus::kYes});
    }
    iors.push_back(std::move(ior.value()));
  }
  co_return iors;
}

}  // namespace mead::naming

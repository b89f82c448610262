// Object adapter (POA analogue): maps persistent object keys to servants and
// mints IORs for registered objects.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "giop/types.h"
#include "net/types.h"
#include "orb/servant.h"

namespace mead::orb {

class ObjectAdapter {
 public:
  /// `endpoint` is where the enclosing server listens — baked into IORs.
  explicit ObjectAdapter(net::Endpoint endpoint) : endpoint_(std::move(endpoint)) {}

  /// Registers a servant under a POA-style path ("TimeOfDayPOA/TimeService").
  /// The resulting object key is *persistent*: derived from the path only,
  /// so every replica/incarnation registering the same path produces the
  /// same key (§4: "persistent keys transcend the lifetime of a
  /// server-instance"). Returns the object's IOR.
  giop::IOR register_servant(const std::string& path,
                             std::shared_ptr<Servant> servant);

  [[nodiscard]] Servant* find(const giop::ObjectKey& key) const;
  [[nodiscard]] std::size_t object_count() const { return servants_.size(); }
  [[nodiscard]] const net::Endpoint& endpoint() const { return endpoint_; }

 private:
  net::Endpoint endpoint_;
  std::map<giop::ObjectKey, std::shared_ptr<Servant>> servants_;
};

}  // namespace mead::orb

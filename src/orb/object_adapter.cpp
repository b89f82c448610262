#include "orb/object_adapter.h"

namespace mead::orb {

giop::IOR ObjectAdapter::register_servant(const std::string& path,
                                          std::shared_ptr<Servant> servant) {
  giop::ObjectKey key = giop::ObjectKey::make_persistent(path);
  giop::IOR ior{servant->type_id(), endpoint_, key};
  servants_[std::move(key)] = std::move(servant);
  return ior;
}

Servant* ObjectAdapter::find(const giop::ObjectKey& key) const {
  auto it = servants_.find(key);
  return it == servants_.end() ? nullptr : it->second.get();
}

}  // namespace mead::orb

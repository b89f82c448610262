#include "core/read_set.h"

namespace mead::core {

ReadSetSubscriber::ReadSetSubscriber(net::Process& proc, std::string member,
                                     net::Endpoint daemon, std::string service,
                                     Callback cb)
    : proc_(proc), service_(std::move(service)), cb_(std::move(cb)) {
  gc_ = std::make_unique<gc::GcClient>(proc_, std::move(member),
                                       std::move(daemon));
}

sim::Task<bool> ReadSetSubscriber::start() {
  const bool connected = co_await gc_->connect();
  if (!connected) co_return false;
  (void)co_await gc_->join(read_set_group(service_));
  proc_.sim().spawn(pump());
  co_return true;
}

sim::Task<void> ReadSetSubscriber::pump() {
  for (;;) {
    auto ev = co_await gc_->next_event();
    if (!ev || !ev.value()) co_return;
    gc::Event& event = *ev.value();
    if (event.kind != gc::Event::Kind::kMessage) continue;
    if (event.group != read_set_group(service_)) continue;
    auto ctrl = decode_ctrl(event.payload);
    // kReadSet and kQuorumSet (a full set that additionally carries the
    // catching_up flags) both decode into CtrlMsg::read_set, so they
    // share the monotone-version update path.
    if (!ctrl || !ctrl->read_set) continue;
    if (ctrl->read_set->version <= last_version_) continue;  // stale
    last_version_ = ctrl->read_set->version;
    ++applied_;
    if (cb_) cb_(*ctrl->read_set);
  }
}

}  // namespace mead::core

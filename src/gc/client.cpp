#include "gc/client.h"

#include "gc/daemon.h"

namespace mead::gc {

namespace {
// Room for a whole frame, so each delivered chunk comes back uncopied.
constexpr std::size_t kReadChunk = 4 + kMaxFrameLen;
}

GcClient::GcClient(net::Process& proc, std::string member_name,
                   net::Endpoint daemon_endpoint)
    : proc_(proc), name_(std::move(member_name)), daemon_(std::move(daemon_endpoint)) {}

std::string GcClient::reply_group_of(const std::string& member) {
  return GcDaemon::reply_group_of(member);
}

sim::Task<bool> GcClient::connect() {
  auto fd = co_await proc_.api().connect(daemon_);
  if (!fd) co_return false;
  fd_ = fd.value();
  auto w = co_await proc_.api().writev(fd_, encode_hello(HelloMsg{name_}));
  co_return w.ok();
}

sim::Task<bool> GcClient::join(std::string group) {
  if (fd_ < 0) co_return false;
  auto w = co_await proc_.api().writev(fd_, encode_join(GroupMsg{std::move(group)}));
  co_return w.ok();
}

sim::Task<bool> GcClient::leave(std::string group) {
  if (fd_ < 0) co_return false;
  auto w = co_await proc_.api().writev(fd_, encode_leave(GroupMsg{std::move(group)}));
  co_return w.ok();
}

sim::Task<bool> GcClient::multicast(std::string group, Bytes payload) {
  if (fd_ < 0) co_return false;
  auto w = co_await proc_.api().writev(
      fd_, encode_mcast(McastMsg{std::move(group), std::move(payload)}));
  co_return w.ok();
}

sim::Task<bool> GcClient::send_to(const std::string& member, Bytes payload) {
  co_return co_await multicast(reply_group_of(member), std::move(payload));
}

void GcClient::decode_frames() {
  for (;;) {
    auto frame = framer_.next();
    if (!frame) break;
    switch (frame->op) {
      case Op::kDeliver: {
        auto m = decode_deliver(frame->payload);
        if (!m) break;
        Event ev;
        ev.kind = Event::Kind::kMessage;
        ev.group = m->group;
        ev.sender = m->sender;
        ev.seq = m->seq;
        ev.payload = m->payload;
        ev.frame = std::move(*frame);  // the bytes move, the view stays
        buffered_.push_back(std::move(ev));
        break;
      }
      case Op::kView: {
        auto m = decode_view(frame->payload);
        if (!m) break;
        Event ev;
        ev.kind = Event::Kind::kView;
        ev.group = m->group;
        ev.seq = m->view_id;
        ev.view = View{m->view_id, std::move(m->members)};
        buffered_.push_back(std::move(ev));
        break;
      }
      default:
        break;  // clients ignore daemon-mesh traffic
    }
  }
}

std::optional<Event> GcClient::pop_buffered() {
  if (buffered_.empty()) return std::nullopt;
  Event ev = std::move(buffered_.front());
  buffered_.pop_front();
  return ev;
}

sim::Task<Expected<std::size_t, net::NetErr>> GcClient::pump() {
  if (fd_ < 0) co_return make_unexpected(net::NetErr::kBadFd);
  auto data = co_await proc_.api().read(fd_, kReadChunk, Duration{0});
  if (!data) {
    if (data.error() == net::NetErr::kTimeout) co_return std::size_t{0};
    co_return make_unexpected(data.error());
  }
  if (data->empty()) co_return make_unexpected(net::NetErr::kPeerReset);
  framer_.feed(std::move(data.value()));
  const std::size_t before = buffered_.size();
  decode_frames();
  co_return buffered_.size() - before;
}

sim::Task<Expected<std::optional<Event>, net::NetErr>> GcClient::next_event(
    std::optional<Duration> timeout) {
  std::optional<TimePoint> deadline;
  if (timeout) deadline = proc_.sim().now() + *timeout;
  for (;;) {
    if (auto ev = pop_buffered()) co_return std::optional<Event>{std::move(*ev)};
    if (fd_ < 0) co_return make_unexpected(net::NetErr::kBadFd);
    std::optional<Duration> remaining;
    if (deadline) {
      if (proc_.sim().now() >= *deadline) co_return std::optional<Event>{};
      remaining = *deadline - proc_.sim().now();
    }
    auto data = co_await proc_.api().read(fd_, kReadChunk, remaining);
    if (!data) {
      if (data.error() == net::NetErr::kTimeout) co_return std::optional<Event>{};
      co_return make_unexpected(data.error());
    }
    if (data->empty()) co_return make_unexpected(net::NetErr::kPeerReset);
    framer_.feed(std::move(data.value()));
    decode_frames();
  }
}

sim::Task<std::optional<View>> GcClient::wait_for_view(const std::string& group,
                                                       Duration timeout) {
  const TimePoint deadline = proc_.sim().now() + timeout;
  // Events that aren't the view we want are set aside (NOT re-buffered
  // immediately — that would make next_event() pop them again in a spin)
  // and restored in order afterwards.
  std::deque<Event> skipped;
  std::optional<View> found;
  while (!found) {
    if (proc_.sim().now() >= deadline) break;
    auto ev = co_await next_event(deadline - proc_.sim().now());
    if (!ev || !ev.value()) break;  // error or timeout
    if (ev.value()->kind == Event::Kind::kView && ev.value()->group == group) {
      found = std::move(ev.value()->view);
    } else {
      skipped.push_back(std::move(*ev.value()));
    }
  }
  for (auto it = skipped.rbegin(); it != skipped.rend(); ++it) {
    buffered_.push_front(std::move(*it));
  }
  co_return found;
}

}  // namespace mead::gc

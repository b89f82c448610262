#include "orb/stub.h"

#include <cassert>

namespace mead::orb {

namespace {
constexpr std::size_t kReadChunk = 64 * 1024;
// A request may be forwarded/readdressed only so many times before the ORB
// gives up — guards against forwarding loops between replicas.
constexpr int kMaxAttempts = 8;
}  // namespace

void Stub::drop_connection() {
  if (fd_ >= 0) {
    (void)orb_.api().close(fd_);
    fd_ = -1;
    frames_ = giop::FrameBuffer{};
  }
}

void Stub::drop_pooled() {
  for (auto& [key, conn] : pool_) {
    if (conn.fd >= 0) (void)orb_.api().close(conn.fd);
  }
  pool_.clear();
}

void Stub::rebind(giop::IOR ior) {
  drop_connection();
  ior_ = std::move(ior);
}

void Stub::switch_to(const giop::IOR& ior) {
  if (ior.endpoint == ior_.endpoint) {
    ior_ = ior;  // same replica (possibly refreshed key): keep connection
    return;
  }
  if (fd_ >= 0) {
    auto& slot = pool_[net::to_string(ior_.endpoint)];
    if (slot.fd >= 0) (void)orb_.api().close(slot.fd);  // stale duplicate
    slot.fd = fd_;
    slot.frames = std::move(frames_);
    fd_ = -1;
    frames_ = giop::FrameBuffer{};
  }
  ior_ = ior;
  if (auto it = pool_.find(net::to_string(ior_.endpoint)); it != pool_.end()) {
    fd_ = it->second.fd;
    frames_ = std::move(it->second.frames);
    pool_.erase(it);
  }
  ++route_switches_;
  orb_.sim().obs().emit(obs::EventKind::kRouteSwitch, orb_.process().name(),
                        net::to_string(ior_.endpoint));
}

sim::Task<Expected<int, net::NetErr>> Stub::ensure_connected() {
  if (fd_ >= 0) co_return fd_;
  auto fd = co_await orb_.api().connect(ior_.endpoint);
  if (!fd) co_return make_unexpected(fd.error());
  // ORB connection machinery (transport registration, strategy setup, ...)
  // is charged on every fresh connection — this is the cost the MEAD
  // fail-over message scheme avoids by re-pointing the existing connection.
  const bool alive = co_await orb_.charge(orb_.costs().connection_setup);
  if (!alive) co_return make_unexpected(net::NetErr::kProcessDead);
  fd_ = fd.value();
  frames_ = giop::FrameBuffer{};
  co_return fd_;
}

sim::Task<InvokeResult> Stub::fail(giop::SysExKind kind,
                                   giop::CompletionStatus completed) {
  // Exception delivery costs real time at the client (the paper measures
  // ~1.1-1.8 ms for a COMM_FAILURE to "register", §5.2.3).
  (void)co_await orb_.charge(orb_.costs().exception_unwind);
  co_return make_unexpected(giop::SystemException{kind, 0, completed});
}

sim::Task<InvokeResult> Stub::invoke(std::string operation, Bytes args) {
  assert(!in_flight_ && "Stub::invoke is synchronous single-outstanding");
  in_flight_ = true;
  struct InFlightGuard {
    bool* flag;
    ~InFlightGuard() { *flag = false; }
  } guard{&in_flight_};

  // Routing happens before the request is built: the chosen replica's IOR
  // supplies the object key the request carries.
  if (router_ != nullptr) {
    if (const Router::Target* t = router_->route(operation); t != nullptr) {
      switch_to(t->ior);
    }
  }

  const std::uint32_t request_id = orb_.next_request_id();
  giop::RequestMessage request{request_id, true, ior_.key, std::move(operation),
                               std::move(args)};

  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    auto fd = co_await ensure_connected();
    if (!fd) {
      // No listener / node unknown: TAO raises TRANSIENT for a failed open
      // of a fresh connection (stale reference → the cache scheme's
      // TRANSIENT exceptions); a dead process' half-open port refuses too.
      co_return co_await fail(giop::SysExKind::kTransient,
                              giop::CompletionStatus::kNo);
    }

    {
      const bool alive = co_await orb_.charge(orb_.costs().request_marshal);
      if (!alive) {
        co_return co_await fail(giop::SysExKind::kInternal,
                                giop::CompletionStatus::kNo);
      }
    }
    auto wrote = co_await orb_.api().writev(fd.value(),
                                            giop::encode_request(request));
    if (!wrote) {
      drop_connection();
      co_return co_await fail(giop::SysExKind::kCommFailure,
                              giop::CompletionStatus::kNo);
    }

    // Await the matching reply on this connection.
    bool retransmit = false;
    while (!retransmit) {
      std::optional<giop::FrameBuffer::Frame> frame = frames_.next();
      if (!frame) {
        auto data =
            co_await orb_.api().read(fd_, kReadChunk, orb_.invoke_timeout());
        if (!data || data->empty()) {
          // EOF, reset, or reply deadline: the connection died under the
          // request (or, under a partition, might as well have).
          drop_connection();
          co_return co_await fail(giop::SysExKind::kCommFailure,
                                  giop::CompletionStatus::kMaybe);
        }
        frames_.feed(std::move(data.value()));
        if (frames_.corrupt()) {
          drop_connection();
          co_return co_await fail(giop::SysExKind::kMarshal,
                                  giop::CompletionStatus::kMaybe);
        }
        continue;
      }
      if (frame->header.magic != giop::Magic::kGiop) continue;
      if (frame->header.type == giop::MsgType::kCloseConnection) {
        drop_connection();
        retransmit = true;  // orderly close: safe to retry elsewhere
        break;
      }
      if (frame->header.type != giop::MsgType::kReply) continue;
      auto reply = giop::decode_reply(frame->data);
      if (!reply) {
        drop_connection();
        co_return co_await fail(giop::SysExKind::kMarshal,
                                giop::CompletionStatus::kMaybe);
      }
      if (reply->request_id != request_id) continue;  // stale reply: skip

      switch (reply->status) {
        case giop::ReplyStatus::kNoException: {
          {
            const bool alive = co_await orb_.charge(orb_.costs().reply_demarshal);
            if (!alive) {
              co_return co_await fail(giop::SysExKind::kInternal,
                                      giop::CompletionStatus::kYes);
            }
          }
          co_return std::move(reply->body);
        }
        case giop::ReplyStatus::kUserException:
        case giop::ReplyStatus::kSystemException: {
          auto ex = giop::reply_system_exception(reply.value());
          (void)co_await orb_.charge(orb_.costs().exception_unwind);
          if (!ex) {
            co_return make_unexpected(giop::SystemException{
                giop::SysExKind::kMarshal, 0, giop::CompletionStatus::kMaybe});
          }
          co_return make_unexpected(ex.value());
        }
        case giop::ReplyStatus::kLocationForward:
        case giop::ReplyStatus::kLocationForwardPerm: {
          auto fwd = giop::reply_forward_ior(reply.value());
          if (!fwd) {
            co_return co_await fail(giop::SysExKind::kMarshal,
                                    giop::CompletionStatus::kNo);
          }
          ++forwards_;
          forwards_followed_.add();
          orb_.sim().obs().emit(obs::EventKind::kForward,
                                orb_.process().name());
          rebind(std::move(fwd.value()));  // reconnect + retransmit
          retransmit = true;
          break;
        }
        case giop::ReplyStatus::kNeedsAddressingMode: {
          // Retransmit over the *current* connection: if MEAD re-pointed it
          // (dup2), the retry lands on the new replica transparently.
          ++readdress_;
          readdress_retries_.add();
          retransmit = true;
          break;
        }
      }
    }
  }
  // Forwarding loop: give up.
  co_return co_await fail(giop::SysExKind::kTransient,
                          giop::CompletionStatus::kNo);
}

}  // namespace mead::orb

#include "orb/server.h"

#include "common/log.h"
#include "giop/messages.h"

namespace mead::orb {

namespace {
constexpr std::size_t kReadChunk = 64 * 1024;
}

OrbServer::OrbServer(Orb& orb, std::uint16_t port) : orb_(orb) {
  auto fd = orb_.api().listen(port);
  if (!fd) {
    LogLine(orb_.sim().log(), LogLevel::kError, "orb")
        << "listen failed: " << net::to_string(fd.error());
    adapter_ = std::make_unique<ObjectAdapter>(net::Endpoint{});
    return;
  }
  listen_fd_ = fd.value();
  endpoint_ = orb_.api().local_endpoint(listen_fd_).value();
  adapter_ = std::make_unique<ObjectAdapter>(endpoint_);
}

void OrbServer::start() {
  if (listen_fd_ < 0) return;
  orb_.sim().spawn(accept_loop());
}

sim::Task<void> OrbServer::accept_loop() {
  for (;;) {
    auto fd = co_await orb_.api().accept(listen_fd_);
    if (!fd) co_return;  // server shutting down / killed
    orb_.sim().spawn(serve_connection(fd.value()));
  }
}

sim::Task<void> OrbServer::serve_connection(int fd) {
  giop::FrameBuffer frames;
  for (;;) {
    auto data = co_await orb_.api().read(fd, kReadChunk);
    if (!data || data->empty()) break;  // EOF / error / killed
    frames.feed(std::move(data.value()));
    for (;;) {
      auto frame = frames.next();
      if (!frame) break;
      if (frame->header.magic != giop::Magic::kGiop) continue;  // not ours
      switch (frame->header.type) {
        case giop::MsgType::kRequest:
          // Requests on one connection are handled in order (the test app
          // is a synchronous CORBA client).
          co_await handle_request(fd, std::move(frame->data));
          break;
        case giop::MsgType::kCloseConnection:
          (void)orb_.api().close(fd);
          co_return;
        default:
          break;  // Locate*/Cancel/Fragment unsupported in the mini-ORB
      }
    }
    if (frames.corrupt()) break;
  }
  (void)orb_.api().close(fd);
}

sim::Task<void> OrbServer::handle_request(int fd, Bytes frame) {
  {
    const bool alive_after_wait = co_await orb_.charge(orb_.costs().request_demarshal);
    if (!alive_after_wait) co_return;
  }
  auto req = giop::decode_request(frame);
  if (!req) {
    // Malformed request: GIOP says answer MessageError; we close instead
    // (simpler, and the client surfaces COMM_FAILURE either way).
    (void)orb_.api().close(fd);
    co_return;
  }

  giop::ReplyMessage reply;
  Servant* servant = adapter_->find(req->object_key);
  if (servant == nullptr) {
    reply = giop::make_system_exception_reply(
        req->request_id,
        giop::SystemException{giop::SysExKind::kObjectNotExist, 0,
                              giop::CompletionStatus::kNo});
  } else {
    {
      const bool alive_after_wait = co_await orb_.charge(orb_.costs().servant_default);
      if (!alive_after_wait) co_return;
    }
    auto result = co_await servant->dispatch(std::move(req->operation),
                                             std::move(req->args), req->order);
    if (result) {
      reply = giop::ReplyMessage{req->request_id, giop::ReplyStatus::kNoException,
                                 std::move(result.value())};
    } else {
      reply = giop::make_system_exception_reply(req->request_id, result.error());
    }
  }
  if (!req->response_expected) co_return;
  {
    const bool alive_after_wait = co_await orb_.charge(orb_.costs().reply_marshal);
    if (!alive_after_wait) co_return;
  }
  ++requests_served_;
  (void)co_await orb_.api().writev(fd, giop::encode_reply(reply));
}

}  // namespace mead::orb

#include "core/client_mead.h"

#include <utility>

#include "common/log.h"

namespace mead::core {

ClientMead::ClientMead(net::ProcessPtr proc, MeadConfig cfg)
    : proc_(std::move(proc)), cfg_(std::move(cfg)), inner_(proc_->api()),
      query_timeouts_(
          proc_->sim().obs().metrics().counter("client.query_timeouts")),
      masked_failures_(
          proc_->sim().obs().metrics().counter("client.masked_failures")),
      unmasked_eofs_(
          proc_->sim().obs().metrics().counter("client.unmasked_eofs")),
      mead_redirects_(
          proc_->sim().obs().metrics().counter("client.mead_redirects")) {
  if (cfg_.scheme == RecoveryScheme::kNeedsAddressing) {
    gc_ = std::make_unique<gc::GcClient>(*proc_, cfg_.member, cfg_.daemon);
  }
}

ClientMead::~ClientMead() = default;

sim::Task<bool> ClientMead::start() {
  if (!gc_) co_return true;
  co_return co_await gc_->connect();
}

// --------------------------------------------------------------- helpers

sim::Task<bool> ClientMead::redirect(int fd, net::Endpoint target) {
  // §4.3: "opening a new TCP socket, connecting to the new replica address,
  // and then using the UNIX dup2() call" — far cheaper than the ORB's own
  // connection machinery, hence the scheme's low fail-over time.
  auto nfd = co_await inner_.connect(target);
  if (!nfd) co_return false;
  if (!inner_.dup2(nfd.value(), fd).ok()) {
    (void)inner_.close(nfd.value());
    co_return false;
  }
  (void)inner_.close(nfd.value());
  const bool alive = co_await proc_->sleep(cfg_.costs.redirect_cost);
  co_return alive;
}

sim::Task<std::optional<Bytes>> ClientMead::mask_abrupt_failure(int fd) {
  if (!gc_ || !gc_->connected()) co_return std::nullopt;
  auto* conn = server_conns_.find(fd);
  if (conn == nullptr) co_return std::nullopt;
  const std::uint32_t request_id = conn->last_request_id;

  // Ask the server group who the next primary is (§4.2). The nonce keeps a
  // late answer to an earlier, timed-out query from masquerading as the
  // answer to this one.
  const std::uint64_t nonce = ++query_nonce_;
  (void)co_await gc_->multicast(
      replica_group(cfg_.service),
      encode_primary_query(PrimaryQuery{
          gc::GcClient::reply_group_of(cfg_.member), nonce}));

  const TimePoint deadline = proc_->sim().now() + query_timeout_;
  std::optional<PrimaryAnswer> answer;
  while (proc_->sim().now() < deadline) {
    auto ev = co_await gc_->next_event(deadline - proc_->sim().now());
    if (!ev) co_return std::nullopt;  // GC connection lost
    if (!ev.value()) break;           // timeout
    if (ev.value()->kind != gc::Event::Kind::kMessage) continue;
    auto ctrl = decode_ctrl(ev.value()->payload);
    if (ctrl && ctrl->kind == CtrlKind::kPrimaryAnswer &&
        ctrl->answer->nonce == nonce) {
      answer = std::move(ctrl->answer);
      break;
    }
  }
  if (!answer) {
    // "the blocking read() at the client times out, and a CORBA
    // COMM_FAILURE exception is propagated up" (§4.2).
    ++stats_.query_timeouts;
    query_timeouts_.add();
    proc_->sim().obs().emit(obs::EventKind::kQueryTimeout, cfg_.member);
    co_return std::nullopt;
  }
  const bool redirected = co_await redirect(fd, answer->endpoint);
  if (!redirected) co_return std::nullopt;
  ++stats_.masked_failures;
  masked_failures_.add();
  proc_->sim().obs().emit(obs::EventKind::kMaskedFailure, cfg_.member,
                          answer->member);
  // Fabricate a NEEDS_ADDRESSING_MODE reply: the ORB will retransmit its
  // last request over the (now re-pointed) connection.
  co_return giop::encode_reply(giop::make_needs_addressing_reply(request_id));
}

// ------------------------------------------------------------- SocketApi

net::Result<int> ClientMead::listen(std::uint16_t port) {
  return inner_.listen(port);
}

sim::Task<net::Result<int>> ClientMead::accept(int listen_fd) {
  co_return co_await inner_.accept(listen_fd);
}

sim::Task<net::Result<int>> ClientMead::connect(const net::Endpoint& remote) {
  auto fd = co_await inner_.connect(remote);
  if (fd && !infrastructure_port(remote.port)) {
    server_conns_.try_emplace(fd.value());
  }
  co_return fd;
}

sim::Task<net::Result<Bytes>> ClientMead::read(int fd, std::size_t max_bytes,
                                               std::optional<Duration> timeout) {
  auto* conn = server_conns_.find(fd);
  if (conn == nullptr) {
    co_return co_await inner_.read(fd, max_bytes, timeout);
  }

  for (;;) {
    conn = server_conns_.find(fd);
    if (conn == nullptr) {
      co_return make_unexpected(net::NetErr::kBadFd);
    }
    // Serve buffered clean GIOP bytes first.
    if (!conn->clean.empty()) {
      Bytes& clean = conn->clean;
      // All of it fits: hand the buffer over instead of copying it.
      if (clean.size() <= max_bytes) co_return std::exchange(clean, Bytes{});
      const auto n = static_cast<std::ptrdiff_t>(max_bytes);
      Bytes out(clean.begin(), clean.begin() + n);
      clean.erase(clean.begin(), clean.begin() + n);
      co_return out;
    }

    auto data = co_await inner_.read(fd, 64 * 1024, timeout);
    if (!data) co_return data;  // timeout or error: surface as-is
    if (data->empty()) {
      // Abrupt server failure (§4.2): only the NEEDS_ADDRESSING scheme
      // masks it; every other scheme lets the ORB see EOF.
      if (cfg_.scheme == RecoveryScheme::kNeedsAddressing) {
        auto fabricated = co_await mask_abrupt_failure(fd);
        if (fabricated) {
          co_return std::move(*fabricated);
        }
      }
      ++stats_.unmasked_eofs;
      unmasked_eofs_.add();
      co_return Bytes{};
    }

    // Filtering cost: the §4.2 client-side read filter, or the §4.3
    // piggyback check.
    Duration filter_cost{0};
    if (cfg_.scheme == RecoveryScheme::kNeedsAddressing) {
      filter_cost = cfg_.costs.na_read_filter;
    } else if (cfg_.scheme == RecoveryScheme::kMeadMessage) {
      filter_cost = cfg_.costs.mead_piggyback;
    }
    if (filter_cost > Duration{0}) {
      const bool alive = co_await proc_->sleep(filter_cost);
      if (!alive) co_return make_unexpected(net::NetErr::kProcessDead);
    }

    conn = server_conns_.find(fd);
    if (conn == nullptr) {
      co_return make_unexpected(net::NetErr::kBadFd);
    }
    conn->splitter.feed(std::move(data.value()));
    std::optional<net::Endpoint> redirect_to;
    std::string redirect_member;
    for (;;) {
      auto frame = conn->splitter.next();
      if (!frame) break;
      if (frame->header.magic == giop::Magic::kMead) {
        auto failover = decode_failover_frame(frame->data);
        if (failover) {
          redirect_to = failover->target;
          redirect_member = failover->member;
        }
        continue;  // stripped: the ORB never sees MEAD frames
      }
      if (conn->clean.empty()) {
        conn->clean = std::move(frame->data);
      } else {
        append_bytes(conn->clean, frame->data);
      }
    }
    if (redirect_to) {
      LogLine(proc_->sim().log(), LogLevel::kInfo, "mead")
          << "client redirecting to " << redirect_member << " at "
          << net::to_string(*redirect_to);
      const bool ok = co_await redirect(fd, *redirect_to);
      if (ok) {
        ++stats_.mead_redirects;
        mead_redirects_.add();
        proc_->sim().obs().emit(obs::EventKind::kRedirect, cfg_.member,
                                redirect_member);
      }
    }
    // Loop: either clean bytes are ready now, or we need more input.
  }
}

sim::Task<net::Result<std::size_t>> ClientMead::writev(int fd, Bytes data) {
  auto* conn = server_conns_.find(fd);
  if (conn != nullptr) {
    // Track the last request id so a fabricated NEEDS_ADDRESSING reply can
    // reference it. Header peek only (cheap — not full GIOP parsing).
    auto header = giop::decode_header(data);
    if (header && header->magic == giop::Magic::kGiop &&
        header->type == giop::MsgType::kRequest &&
        data.size() >= giop::kHeaderSize + 4) {
      giop::CdrReader r(data, header->order, giop::kHeaderSize);
      auto id = r.read_u32();
      if (id) conn->last_request_id = id.value();
    }
  }
  co_return co_await inner_.writev(fd, std::move(data));
}

sim::Task<net::Result<std::vector<int>>> ClientMead::select(
    std::vector<int> fds, std::optional<Duration> timeout) {
  co_return co_await inner_.select(std::move(fds), timeout);
}

net::Result<void> ClientMead::close(int fd) {
  server_conns_.erase(fd);
  return inner_.close(fd);
}

net::Result<void> ClientMead::dup2(int from_fd, int to_fd) {
  return inner_.dup2(from_fd, to_fd);
}

net::Result<net::Endpoint> ClientMead::local_endpoint(int fd) const {
  return inner_.local_endpoint(fd);
}

net::Result<net::Endpoint> ClientMead::peer_endpoint(int fd) const {
  return inner_.peer_endpoint(fd);
}

}  // namespace mead::core

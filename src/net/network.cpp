#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace mead::net {

// dup2 refuses targets at or past this, as past RLIMIT_NOFILE.
constexpr int kMaxFd = 1 << 16;

namespace detail {

void WaitSet::add(const WaiterPtr& w) {
  // Prune dead entries opportunistically so long-lived sockets with
  // repeated timeouts don't accumulate stale waiters. An entry is dead if
  // its waiter completed (done) or was recycled for a newer suspension
  // (epoch moved on).
  std::erase_if(waiters_, [](const Entry& e) {
    return e.w->done || e.w->epoch != e.epoch;
  });
  waiters_.push_back(Entry{w, w->epoch});
}

void WaitSet::wake_all(sim::Simulator& sim) {
  // Woken in place so the vector keeps its capacity for the next add():
  // schedule() only queues the resumes, so nothing re-enters the set here.
  for (auto& [w, epoch] : waiters_) {
    if (w->done || w->epoch != epoch) continue;
    w->done = true;
    sim.schedule(Duration{0}, [w] { w->handle.resume(); });
  }
  waiters_.clear();
}

}  // namespace detail

// ---------------------------------------------------------------- Process

Process::Process(Network& net, ProcessId id, NodeId node, std::string host,
                 std::string name)
    : net_(net), id_(id), node_(node), host_(std::move(host)),
      name_(std::move(name)) {
  api_ = std::make_unique<ProcessSocketApi>(*this);
}

SocketApi& Process::api() { return *api_; }

sim::Simulator& Process::sim() const { return net_.sim(); }

void Process::kill() {
  if (!alive_) return;
  alive_ = false;
  net_.crash_counter().add();
  net_.sim().obs().emit(obs::EventKind::kCrash, name_ + "@" + host_);
  net_.teardown_process_sockets(*this);
}

void Process::exit() {
  // Same observable effect as kill(): the process stops and peers see EOF —
  // but it is recorded as an intentional exit, not a crash.
  if (!alive_) return;
  alive_ = false;
  net_.exit_counter().add();
  net_.sim().obs().emit(obs::EventKind::kExit, name_ + "@" + host_);
  net_.teardown_process_sockets(*this);
}

int Process::install_fd(detail::FdEntry entry) {
  if (auto* ref = std::get_if<detail::ConnRef>(&entry)) ++ref->end().open_fds;
  while (fds_.find(next_fd_) != nullptr) ++next_fd_;
  const int fd = next_fd_++;
  fds_.try_emplace(fd, std::move(entry));
  return fd;
}

// ---------------------------------------------------------------- Network

Network::Network(sim::Simulator& sim) : sim_(sim) {
  // Hot-path counters are resolved once here; per-event emitters then pay
  // one integer add instead of a string-keyed registry lookup.
  auto& metrics = sim_.obs().metrics();
  total_bytes_ = &metrics.counter("net.bytes.total");
  process_crashes_ = &metrics.counter("net.process_crashes");
  process_exits_ = &metrics.counter("net.process_exits");
}

Network::~Network() = default;

NodeId Network::add_node(const std::string& name) {
  assert(!nodes_.contains(name));
  const NodeId id{next_node_++};
  nodes_.emplace(name, id);
  ephemeral_.emplace(id, 30000);
  return id;
}

bool Network::has_node(const std::string& name) const {
  return nodes_.contains(name);
}

NodeId Network::node_id(const std::string& host) const {
  auto it = nodes_.find(host);
  // An unknown host used to silently map to NodeId{0}; every internal call
  // site reaches here with a host that was added via add_node(), so a miss
  // is a logic error — loud in debug, explicit sentinel in release.
  assert(it != nodes_.end() && "node_id: unknown host");
  return it == nodes_.end() ? kInvalidNode : it->second;
}

ProcessPtr Network::spawn_process(const std::string& host, std::string proc_name) {
  assert(nodes_.contains(host));
  auto proc = ProcessPtr(new Process(*this, ProcessId{next_process_++},
                                     nodes_.at(host), host, std::move(proc_name)));
  processes_.push_back(proc);
  return proc;
}

void Network::crash_node(const std::string& host) {
  auto it = nodes_.find(host);
  assert(it != nodes_.end() && "crash_node: unknown host");
  if (it == nodes_.end()) return;  // nothing to kill, not "kill node 0"
  const NodeId id = it->second;
  crashed_nodes_.insert(id.value());
  for (auto& p : processes_) {
    if (p->node() == id && p->alive()) p->kill();
  }
  // Observers may unregister themselves (or others) while running; iterate
  // a snapshot of the handles and re-check membership per call.
  std::vector<std::uint64_t> handles;
  handles.reserve(crash_observers_.size());
  for (const auto& [h, fn] : crash_observers_) handles.push_back(h);
  for (std::uint64_t h : handles) {
    auto ob = crash_observers_.find(h);
    if (ob != crash_observers_.end()) ob->second(host);
  }
}

bool Network::node_alive(const std::string& host) const {
  auto it = nodes_.find(host);
  return it != nodes_.end() && !crashed_nodes_.contains(it->second.value());
}

std::uint64_t Network::add_crash_observer(NodeCrashObserver fn) {
  const std::uint64_t handle = next_observer_++;
  crash_observers_.emplace(handle, std::move(fn));
  return handle;
}

void Network::remove_crash_observer(std::uint64_t handle) {
  crash_observers_.erase(handle);
}

Duration Network::delivery_delay(NodeId from, NodeId to, const Endpoint& dst,
                                 std::size_t bytes) const {
  Duration d = (from == to) ? latency_.same_node : latency_.cross_node;
  d += Duration{static_cast<std::int64_t>(
      latency_.per_kilobyte.ns() * static_cast<double>(bytes) / 1024.0)};
  if (latency_.jitter) d += latency_.jitter(dst, bytes);
  return d;
}

void Network::set_link_partitioned(const std::string& host_a,
                                   const std::string& host_b,
                                   bool partitioned) {
  const std::uint64_t a = node_id(host_a).value();
  const std::uint64_t b = node_id(host_b).value();
  const std::uint64_t lo = std::min(a, b);
  const std::uint64_t hi = std::max(a, b);
  if (partitioned) {
    partitioned_.insert({lo, hi});
  } else {
    partitioned_.erase({lo, hi});
  }
}

void Network::set_node_isolated(const std::string& host, bool isolated) {
  for (const auto& [name, id] : nodes_) {
    if (name != host) set_link_partitioned(host, name, isolated);
  }
}

void Network::heal_partitions(const std::string& host) {
  const std::uint64_t id = node_id(host).value();
  std::erase_if(partitioned_, [id](const auto& pair) {
    return pair.first == id || pair.second == id;
  });
}

bool Network::link_partitioned(NodeId a, NodeId b) const {
  // NB: std::minmax over prvalues returns a pair of dangling references;
  // bind named values first.
  const std::uint64_t lo = std::min(a.value(), b.value());
  const std::uint64_t hi = std::max(a.value(), b.value());
  return partitioned_.contains({lo, hi});
}

TimePoint Network::reserve_arrival(detail::ConnEnd& dst, Duration delay) {
  TimePoint arrival = sim_.now() + delay;
  if (arrival < dst.earliest_arrival) arrival = dst.earliest_arrival;
  dst.earliest_arrival = arrival;
  return arrival;
}

std::uint64_t Network::bytes_for_service(std::uint16_t service_port) const {
  // The registry is the source of truth; this accessor remains for
  // convenience and for tests that predate the metrics layer.
  auto it = service_bytes_.find(service_port);
  return it == service_bytes_.end() ? 0 : it->second->value();
}

std::uint64_t Network::total_bytes_delivered() const {
  return sim_.obs().metrics().counter_value("net.bytes.total");
}

std::uint64_t Network::connections_established() const {
  return connections_established_;
}

void Network::bind_delivery_counters(detail::Conn& conn) {
  auto it = service_bytes_.find(conn.service_port);
  if (it == service_bytes_.end()) {
    it = service_bytes_
             .emplace(conn.service_port,
                      &sim_.obs().metrics().counter(
                          "net.bytes.service." +
                          std::to_string(conn.service_port)))
             .first;
  }
  conn.service_bytes = it->second;
  conn.total_bytes = total_bytes_;
}

detail::ListenerPtr Network::find_listener(const std::string& host,
                                           std::uint16_t port) {
  auto node = nodes_.find(host);
  if (node == nodes_.end()) return nullptr;
  auto it = listeners_.find({node->second.value(), port});
  return it == listeners_.end() ? nullptr : it->second;
}

Result<detail::ListenerPtr> Network::register_listener(Process& proc,
                                                       std::uint16_t port) {
  if (port == 0) port = next_ephemeral_port(proc.node());
  const auto key = std::pair{proc.node().value(), port};
  if (listeners_.contains(key)) return make_unexpected(NetErr::kPortInUse);
  auto listener = std::make_shared<detail::Listener>();
  listener->local = Endpoint{proc.host(), port};
  listener->node = proc.node();
  listeners_.emplace(key, listener);
  return listener;
}

void Network::remove_listener(const detail::ListenerPtr& listener) {
  listeners_.erase({listener->node.value(), listener->local.port});
}

std::uint16_t Network::next_ephemeral_port(NodeId node) {
  return ephemeral_[node]++;
}

void Network::teardown_process_sockets(Process& proc) {
  // Force-close every socket the process holds. Peers observe EOF after one
  // propagation delay — this is how both the client-side interceptor (§4.2)
  // and the GC daemons detect abrupt process failure.
  auto fds = std::exchange(proc.fds_, {});
  fds.for_each([&](int, detail::FdEntry& entry) {
    if (auto* ref = std::get_if<detail::ConnRef>(&entry)) {
      detail::ConnEnd& end = ref->end();
      end.open_fds = 0;  // all table references are gone at once
      if (end.local_closed) return;
      end.local_closed = true;
      end.readers.wake_all(sim_);
      detail::ConnEnd& peer = ref->peer();
      assert(end.node != kInvalidNode && peer.node != kInvalidNode);
      if (link_partitioned(end.node, peer.node)) {
        note_drop();  // RST lost: the remote peer hangs (detected by
        return;       // heartbeat timeout, not EOF)
      }
      auto conn = ref->conn;
      const int peer_side = 1 - ref->side;
      const Duration delay = delivery_delay(end.node, peer.node, peer.local, 0);
      const TimePoint arrival = reserve_arrival(peer, delay);
      sim_.schedule(arrival - sim_.now(), [this, conn, peer_side] {
        conn->ends[peer_side].eof = true;
        conn->ends[peer_side].readers.wake_all(sim_);
      });
    } else if (auto* lp = std::get_if<detail::ListenerPtr>(&entry)) {
      detail::Listener& listener = **lp;
      if (listener.closed) return;
      listener.closed = true;
      remove_listener(*lp);
      listener.acceptors.wake_all(sim_);
      for (auto& pending : listener.pending) {
        // Connections that were established but never accepted: the
        // initiator sees EOF.
        pending.end().local_closed = true;
        auto conn = pending.conn;
        const int peer_side = 1 - pending.side;
        const TimePoint arrival =
            reserve_arrival(conn->ends[peer_side], latency_.cross_node);
        sim_.schedule(arrival - sim_.now(), [this, conn, peer_side] {
          conn->ends[peer_side].eof = true;
          conn->ends[peer_side].readers.wake_all(sim_);
        });
      }
      listener.pending.clear();
    }
  });
}

// ------------------------------------------------------- ProcessSocketApi

auto ProcessSocketApi::suspend_waiter(sim::Simulator& sim, detail::WaiterPtr w,
                                      std::optional<TimePoint> deadline) {
  // Resumes when the waiter is woken (data/EOF/close) or the deadline timer
  // fires, whichever comes first. The timer closure is epoch-stamped so it
  // can never wake a recycled waiter, and await_resume hands the timer's
  // token back so the caller can cancel it once the wait is over instead of
  // leaving a dead closure to fire into a completed waiter.
  struct Awaiter {
    sim::Simulator* sim;
    detail::WaiterPtr w;
    std::optional<TimePoint> deadline;
    std::optional<sim::TimerToken> timer;
    [[nodiscard]] bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      w->handle = h;
      if (deadline) {
        timer = sim->schedule(*deadline - sim->now(),
                              [w = w, epoch = w->epoch] {
          if (w->epoch == epoch && !w->done) {
            w->done = true;
            w->handle.resume();
          }
        });
      }
    }
    std::optional<sim::TimerToken> await_resume() const noexcept {
      return timer;
    }
  };
  return Awaiter{&sim, std::move(w), deadline, std::nullopt};
}

Result<int> ProcessSocketApi::listen(std::uint16_t port) {
  if (!proc_.alive()) return make_unexpected(NetErr::kProcessDead);
  auto listener = net().register_listener(proc_, port);
  if (!listener) return make_unexpected(listener.error());
  return proc_.install_fd(detail::FdEntry{std::move(listener.value())});
}

sim::Task<Result<int>> ProcessSocketApi::accept(int listen_fd) {
  for (;;) {
    if (!proc_.alive()) co_return make_unexpected(NetErr::kProcessDead);
    auto* entry = proc_.fds_.find(listen_fd);
    if (entry == nullptr) co_return make_unexpected(NetErr::kBadFd);
    auto* lp = std::get_if<detail::ListenerPtr>(entry);
    if (lp == nullptr) co_return make_unexpected(NetErr::kNotListener);
    detail::Listener& listener = **lp;
    if (listener.closed) co_return make_unexpected(NetErr::kClosed);
    if (!listener.pending.empty()) {
      detail::ConnRef ref = std::move(listener.pending.front());
      listener.pending.pop_front();
      co_return proc_.install_fd(detail::FdEntry{std::move(ref)});
    }
    auto w = net().waiter_pool().acquire();
    listener.acceptors.add(w);
    co_await suspend_waiter(sim(), w, std::nullopt);
    net().waiter_pool().release(std::move(w));
  }
}

sim::Task<Result<int>> ProcessSocketApi::connect(const Endpoint& remote) {
  if (!proc_.alive()) co_return make_unexpected(NetErr::kProcessDead);
  if (!net().has_node(remote.host)) co_return make_unexpected(NetErr::kUnknownHost);

  const NodeId remote_node = net().node_id(remote.host);
  const Duration one_way =
      net().delivery_delay(proc_.node(), remote_node, remote, 0);

  if (net().link_partitioned(proc_.node(), remote_node)) {
    // SYN lost: TCP connect eventually times out.
    net().note_drop();
    co_await sim().sleep(milliseconds(100));
    co_return make_unexpected(NetErr::kTimeout);
  }

  auto listener = net().find_listener(remote.host, remote.port);
  if (listener == nullptr || listener->closed) {
    // Connection refused surfaces after a round trip (RST comes back).
    co_await sim().sleep(one_way * 2);
    co_return make_unexpected(NetErr::kConnRefused);
  }

  auto conn = std::make_shared<detail::Conn>();
  conn->service_port = remote.port;
  // Bind byte-accounting counters now: the acceptor side can start writing
  // as soon as the SYN lands, before this coroutine's handshake sleep ends.
  net().bind_delivery_counters(*conn);
  const Endpoint local{proc_.host(), net().next_ephemeral_port(proc_.node())};
  conn->ends[0].local = local;
  conn->ends[0].remote = remote;
  conn->ends[0].node = proc_.node();
  conn->ends[1].local = remote;
  conn->ends[1].remote = local;
  conn->ends[1].node = remote_node;

  // SYN arrives at the listener after one propagation delay.
  sim().schedule(one_way, [this, listener, conn] {
    if (listener->closed) {
      conn->refused = true;
      return;
    }
    listener->pending.push_back(detail::ConnRef{conn, 1});
    listener->acceptors.wake_all(sim());
  });

  co_await sim().sleep(one_way * 2);  // handshake round trip
  if (!proc_.alive()) co_return make_unexpected(NetErr::kProcessDead);
  if (conn->refused) co_return make_unexpected(NetErr::kConnRefused);
  net().note_connection();
  co_return proc_.install_fd(detail::FdEntry{detail::ConnRef{conn, 0}});
}

sim::Task<Result<Bytes>> ProcessSocketApi::read(int fd, std::size_t max_bytes,
                                                std::optional<Duration> timeout) {
  std::optional<TimePoint> deadline;
  if (timeout) deadline = sim().now() + *timeout;
  for (;;) {
    if (!proc_.alive()) co_return make_unexpected(NetErr::kProcessDead);
    auto* entry = proc_.fds_.find(fd);
    if (entry == nullptr) co_return make_unexpected(NetErr::kBadFd);
    auto* ref = std::get_if<detail::ConnRef>(entry);
    if (ref == nullptr) co_return make_unexpected(NetErr::kNotListener);
    detail::ConnEnd& end = ref->end();
    if (end.local_closed) co_return make_unexpected(NetErr::kClosed);
    if (!end.inbox.empty()) {
      // The stream's next bytes: a whole delivered chunk when one fits,
      // else a coalesced copy (ByteQueue::pop).
      co_return end.inbox.pop(max_bytes);
    }
    if (end.eof) co_return Bytes{};  // clean EOF
    if (deadline && sim().now() >= *deadline) {
      co_return make_unexpected(NetErr::kTimeout);
    }
    auto w = net().waiter_pool().acquire();
    end.readers.add(w);
    const auto timer = co_await suspend_waiter(sim(), w, deadline);
    if (timer) sim().cancel(*timer);
    net().waiter_pool().release(std::move(w));
  }
}

sim::Task<Result<std::size_t>> ProcessSocketApi::writev(int fd, Bytes data) {
  if (!proc_.alive()) co_return make_unexpected(NetErr::kProcessDead);
  auto* entry = proc_.fds_.find(fd);
  if (entry == nullptr) co_return make_unexpected(NetErr::kBadFd);
  auto* ref = std::get_if<detail::ConnRef>(entry);
  if (ref == nullptr) co_return make_unexpected(NetErr::kNotListener);
  detail::ConnEnd& end = ref->end();
  if (end.local_closed) co_return make_unexpected(NetErr::kClosed);
  detail::ConnEnd& peer = ref->peer();
  if (peer.local_closed) {
    // TCP semantics: a write onto a connection whose peer has gone succeeds
    // locally (the data is buffered/dropped; the RST arrives later). The
    // failure surfaces at the next read as EOF — which is exactly where the
    // paper's client-side interceptor detects abrupt server failure (§4.2).
    co_return data.size();
  }

  const std::size_t n = data.size();
  assert(end.node != kInvalidNode && peer.node != kInvalidNode);
  if (net().link_partitioned(end.node, peer.node)) {
    // Message-loss fault: the bytes vanish on the wire. The writer cannot
    // tell (TCP would buffer/retransmit); the reader simply never sees them.
    net().note_drop();
    co_return n;
  }
  auto conn = ref->conn;
  const int peer_side = 1 - ref->side;
  const Duration delay =
      net().delivery_delay(end.node, peer.node, peer.local, n);
  Network* network = &net();
  const TimePoint arrival = network->reserve_arrival(peer, delay);
  auto deliver = [network, conn, peer_side,
                  payload = std::move(data)]() mutable {
    detail::ConnEnd& dst = conn->ends[peer_side];
    if (dst.local_closed) return;  // delivered into a closed socket: dropped
    const std::size_t delivered = payload.size();
    dst.inbox.push(std::move(payload));  // chunk moves; no byte copy
    dst.bytes_received += delivered;
    conn->service_bytes->add(delivered);
    conn->total_bytes->add(delivered);
    dst.readers.wake_all(network->sim());
  };
  // Every write schedules one delivery: keep it off the heap.
  static_assert(sim::EventFn::fits_inline<decltype(deliver)>());
  sim().schedule(arrival - sim().now(), std::move(deliver));
  co_return n;
}

sim::Task<Result<std::vector<int>>> ProcessSocketApi::select(
    std::vector<int> fds, std::optional<Duration> timeout) {
  std::optional<TimePoint> deadline;
  if (timeout) deadline = sim().now() + *timeout;
  for (;;) {
    if (!proc_.alive()) co_return make_unexpected(NetErr::kProcessDead);
    std::vector<int> ready;
    for (int fd : fds) {
      auto* entry = proc_.fds_.find(fd);
      if (entry == nullptr) continue;
      if (auto* ref = std::get_if<detail::ConnRef>(entry)) {
        detail::ConnEnd& end = ref->end();
        if (!end.inbox.empty() || end.eof || end.local_closed) {
          ready.push_back(fd);
        }
      } else if (auto* lp = std::get_if<detail::ListenerPtr>(entry)) {
        if (!(*lp)->pending.empty() || (*lp)->closed) ready.push_back(fd);
      }
    }
    if (!ready.empty()) co_return ready;
    if (deadline && sim().now() >= *deadline) co_return std::vector<int>{};

    auto w = net().waiter_pool().acquire();
    for (int fd : fds) {
      auto* entry = proc_.fds_.find(fd);
      if (entry == nullptr) continue;
      if (auto* ref = std::get_if<detail::ConnRef>(entry)) {
        ref->end().readers.add(w);
      } else if (auto* lp = std::get_if<detail::ListenerPtr>(entry)) {
        (*lp)->acceptors.add(w);
      }
    }
    const auto timer = co_await suspend_waiter(sim(), w, deadline);
    if (timer) sim().cancel(*timer);
    net().waiter_pool().release(std::move(w));
  }
}

void ProcessSocketApi::real_close_conn(const detail::ConnRef& ref) {
  detail::ConnEnd& end = ref.end();
  if (end.local_closed) return;
  end.local_closed = true;
  end.readers.wake_all(sim());
  detail::ConnEnd& peer = ref.peer();
  assert(end.node != kInvalidNode && peer.node != kInvalidNode);
  if (net().link_partitioned(end.node, peer.node)) {
    net().note_drop();  // FIN lost: the peer hangs instead of seeing EOF
    return;
  }
  auto conn = ref.conn;
  const int peer_side = 1 - ref.side;
  const Duration delay = net().delivery_delay(end.node, peer.node, peer.local, 0);
  Network* network = &net();
  const TimePoint arrival = network->reserve_arrival(peer, delay);
  sim().schedule(arrival - sim().now(), [network, conn, peer_side] {
    conn->ends[peer_side].eof = true;
    conn->ends[peer_side].readers.wake_all(network->sim());
  });
}

void ProcessSocketApi::close_entry(detail::FdEntry entry) {
  if (auto* ref = std::get_if<detail::ConnRef>(&entry)) {
    // dup2 can alias one socket under several fds; only the last reference
    // performs the real close (POSIX file-description semantics). The end's
    // refcount replaces the former scan over the whole descriptor table.
    detail::ConnEnd& end = ref->end();
    if (end.open_fds > 0 && --end.open_fds > 0) return;
    real_close_conn(*ref);
  } else if (auto* lp = std::get_if<detail::ListenerPtr>(&entry)) {
    detail::Listener& listener = **lp;
    if (listener.closed) return;
    listener.closed = true;
    net().remove_listener(*lp);
    listener.acceptors.wake_all(sim());
  }
}

Result<void> ProcessSocketApi::close(int fd) {
  auto entry = proc_.fds_.take(fd);
  if (!entry) return make_unexpected(NetErr::kBadFd);
  close_entry(std::move(*entry));
  return {};
}

Result<void> ProcessSocketApi::dup2(int from_fd, int to_fd) {
  auto* from = proc_.fds_.find(from_fd);
  if (from == nullptr || to_fd < 0 || to_fd >= kMaxFd) {
    return make_unexpected(NetErr::kBadFd);
  }
  if (from_fd == to_fd) return {};
  detail::FdEntry copy = *from;
  if (auto* ref = std::get_if<detail::ConnRef>(&copy)) ++ref->end().open_fds;
  auto old = proc_.fds_.take(to_fd);
  proc_.fds_.try_emplace(to_fd, std::move(copy));
  if (old) close_entry(std::move(*old));
  return {};
}

Result<Endpoint> ProcessSocketApi::local_endpoint(int fd) const {
  const auto* entry = proc_.fds_.find(fd);
  if (entry == nullptr) return make_unexpected(NetErr::kBadFd);
  if (const auto* ref = std::get_if<detail::ConnRef>(entry)) {
    return ref->end().local;
  }
  return std::get<detail::ListenerPtr>(*entry)->local;
}

Result<Endpoint> ProcessSocketApi::peer_endpoint(int fd) const {
  const auto* entry = proc_.fds_.find(fd);
  if (entry == nullptr) return make_unexpected(NetErr::kBadFd);
  if (const auto* ref = std::get_if<detail::ConnRef>(entry)) {
    return ref->end().remote;
  }
  return make_unexpected(NetErr::kNotListener);
}

}  // namespace mead::net

// Virtual network and process model.
//
// Network owns a set of named nodes (the paper uses five Emulab hosts),
// TCP-like connections between processes on those nodes, and the per-port
// byte accounting used to reproduce Figure 5 (group-communication bandwidth
// vs. rejuvenation threshold).
//
// Semantics implemented to match what MEAD's interception layer relies on:
//  * byte-stream connections with FIFO in-order delivery and a propagation
//    delay per message,
//  * EOF at the peer after close() or process crash (how the client-side
//    interceptor detects abrupt server failure, §4.2),
//  * dup2-style fd redirection (how the MEAD fail-over message scheme
//    re-points a live connection at a new replica, §4.3),
//  * select() over arbitrary fd sets (how the interceptor multiplexes the
//    group-communication socket with application sockets, §3.1).
#pragma once

#include <coroutine>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/expected.h"
#include "common/types.h"
#include "net/byte_queue.h"
#include "net/fd_table.h"
#include "net/socket_api.h"
#include "net/types.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace mead::net {

class Network;
class Process;
class ProcessSocketApi;
using ProcessPtr = std::shared_ptr<Process>;

namespace detail {

/// One suspended coroutine waiting for a condition. `done` guards against
/// double-resume when several wake sources race (data vs. timeout); `epoch`
/// distinguishes reuses of a pooled waiter, so stale references held by
/// wait sets from an earlier suspension can never wake the new occupant.
struct Waiter {
  std::coroutine_handle<> handle;
  bool done = false;
  std::uint64_t epoch = 0;
};
using WaiterPtr = std::shared_ptr<Waiter>;

/// Free list of Waiter allocations. Every read/select/accept suspension
/// used to make_shared a fresh Waiter; the pool recycles them, so steady
/// state socket traffic does no waiter allocation at all.
class WaiterPool {
 public:
  [[nodiscard]] WaiterPtr acquire() {
    if (free_.empty()) return std::make_shared<Waiter>();
    WaiterPtr w = std::move(free_.back());
    free_.pop_back();
    ++w->epoch;
    w->done = false;
    w->handle = nullptr;
    return w;
  }
  /// The caller must guarantee no live wake source still targets this
  /// waiter's current epoch (its timer cancelled or fired, its wake
  /// delivered); stale wait-set entries are fine — they are epoch-checked.
  void release(WaiterPtr w) { free_.push_back(std::move(w)); }

 private:
  std::vector<WaiterPtr> free_;
};

/// A set of waiters attached to one wakeable condition (readability of a
/// connection end, pending accepts on a listener). Entries record the
/// waiter's epoch at registration; a waiter that has since completed and
/// been recycled is treated as gone.
class WaitSet {
 public:
  void add(const WaiterPtr& w);
  /// Schedules resumption of all still-current, not-yet-done waiters and
  /// clears the set.
  void wake_all(sim::Simulator& sim);

 private:
  struct Entry {
    WaiterPtr w;
    std::uint64_t epoch;
  };
  std::vector<Entry> waiters_;
};

/// One direction-endpoint of a connection.
struct ConnEnd {
  Endpoint local;
  Endpoint remote;
  /// Node of the owning process (`local.host`), resolved once at connect
  /// so writes, closes and crash teardown never look the host up again.
  NodeId node = kInvalidNode;
  ByteQueue inbox;
  bool eof = false;           // peer closed; surfaced after inbox drains
  bool local_closed = false;  // this side closed (or its process died)
  std::uint64_t bytes_received = 0;
  /// Number of fd-table entries in the owning process that reference this
  /// end (dup2 aliasing); the real close happens when it reaches zero.
  int open_fds = 0;
  /// FIFO floor: no delivery into this end may be scheduled earlier than
  /// this, so a small/zero-byte message (e.g. a FIN) can never overtake
  /// larger data written before it.
  TimePoint earliest_arrival{0};
  WaitSet readers;
};

/// A full-duplex connection. Side 0 initiated (client), side 1 accepted
/// (server). `service_port` is the acceptor's listening port, used for
/// traffic accounting by service.
struct Conn {
  ConnEnd ends[2];
  std::uint16_t service_port = 0;
  bool refused = false;  // listener vanished before the SYN arrived
  /// Byte-accounting counters, resolved once at establishment so each
  /// delivery is two integer adds instead of two string-keyed map lookups.
  obs::Counter* service_bytes = nullptr;
  obs::Counter* total_bytes = nullptr;
};
using ConnPtr = std::shared_ptr<Conn>;

/// A process-fd's view of a connection: the shared Conn plus which side.
struct ConnRef {
  ConnPtr conn;
  int side = 0;
  [[nodiscard]] ConnEnd& end() const { return conn->ends[side]; }
  [[nodiscard]] ConnEnd& peer() const { return conn->ends[1 - side]; }
};

struct Listener {
  Endpoint local;
  NodeId node;
  bool closed = false;
  std::deque<ConnRef> pending;  // acceptor-side refs awaiting accept()
  WaitSet acceptors;
};
using ListenerPtr = std::shared_ptr<Listener>;

using FdEntry = std::variant<ConnRef, ListenerPtr>;

}  // namespace detail

/// Propagation-delay configuration. `jitter` (optional) is added per
/// delivery; the experiment harness uses it to model the OS noise the paper
/// attributes to file-system journaling (§5.2.5).
struct LatencyConfig {
  Duration same_node = microseconds(20);
  Duration cross_node = microseconds(100);
  Duration per_kilobyte = microseconds(2);
  /// Extra delay per delivered message; default none.
  std::function<Duration(const Endpoint& dst, std::size_t bytes)> jitter;
};

/// A simulated OS process: owner of a descriptor table and the unit that
/// crash faults kill. Application logic runs as detached coroutines that use
/// this process' SocketApi and sleep().
class Process : public std::enable_shared_from_this<Process> {
 public:
  [[nodiscard]] ProcessId id() const { return id_; }
  [[nodiscard]] NodeId node() const { return node_; }
  [[nodiscard]] const std::string& host() const { return host_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool alive() const { return alive_; }

  /// The raw (un-intercepted) socket API bound to this process.
  [[nodiscard]] SocketApi& api();

  [[nodiscard]] sim::Simulator& sim() const;

  /// Waits `d` as one resume event, then yields alive(); with `ready`
  /// it neither suspends nor schedules anything.
  struct SleepAwaiter {
    Process* proc;
    Duration d;
    bool ready = false;
    [[nodiscard]] bool await_ready() const noexcept { return ready; }
    void await_suspend(std::coroutine_handle<> h) const {
      proc->sim().schedule(d, [h] { h.resume(); });
    }
    [[nodiscard]] bool await_resume() const noexcept { return proc->alive_; }
  };
  /// Sleeps `d` of virtual time; yields false if the process was killed
  /// while sleeping (callers must then unwind).
  [[nodiscard]] SleepAwaiter sleep(Duration d) { return SleepAwaiter{this, d}; }

  /// The world this process lives in (fault controllers and supervisors
  /// use it to query node liveness and register crash observers).
  [[nodiscard]] Network& network() const { return net_; }

  /// Abruptly kills this process: all its sockets reset, peers see EOF.
  void kill();

  /// Graceful exit: identical socket teardown, but flagged as intentional.
  /// (Used for rejuvenation restarts; peers still observe EOF.)
  void exit();

 private:
  friend class Network;
  friend class ProcessSocketApi;

  Process(Network& net, ProcessId id, NodeId node, std::string host,
          std::string name);

  /// Installs `entry` at the next fd that no dup2 has claimed.
  int install_fd(detail::FdEntry entry);

  Network& net_;
  ProcessId id_;
  NodeId node_;
  std::string host_;
  std::string name_;
  bool alive_ = true;
  int next_fd_ = 3;
  FdTable<detail::FdEntry> fds_;
  std::unique_ptr<ProcessSocketApi> api_;
};

/// The world: nodes, processes, connections, delays, accounting.
class Network {
 public:
  explicit Network(sim::Simulator& sim);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;
  ~Network();

  [[nodiscard]] sim::Simulator& sim() { return sim_; }

  /// Adds a host. Names must be unique (e.g. "node1".."node5").
  NodeId add_node(const std::string& name);
  [[nodiscard]] bool has_node(const std::string& name) const;

  /// Creates a process on `host`. The process starts alive with no fds.
  ProcessPtr spawn_process(const std::string& host, std::string proc_name);

  /// Kills every live process on `host` (node crash-fault), marks the node
  /// dead for node_alive(), and notifies crash observers. Data already in
  /// flight toward the node is dropped, never delivered: the teardown closes
  /// the victim ends before the scheduled deliveries land, and deliveries
  /// into a closed end are discarded without byte accounting.
  void crash_node(const std::string& host);

  /// True while `host` exists and has not been taken down by crash_node().
  [[nodiscard]] bool node_alive(const std::string& host) const;

  /// Whole-node-crash notifications (e.g. the Recovery Manager releases
  /// launch slots reserved on dead workers through these). Observers run
  /// after the node's processes are killed. Returns a handle for remove.
  using NodeCrashObserver = std::function<void(const std::string& host)>;
  std::uint64_t add_crash_observer(NodeCrashObserver fn);
  void remove_crash_observer(std::uint64_t handle);

  [[nodiscard]] LatencyConfig& latency() { return latency_; }

  /// Message-loss fault injection (the paper's fault model, §3): while a
  /// link is partitioned, every delivery between the two hosts — data, FIN,
  /// SYN — is silently dropped. Connections hang rather than reset, which
  /// is what makes heartbeat-based failure detection necessary.
  void set_link_partitioned(const std::string& host_a,
                            const std::string& host_b, bool partitioned);
  [[nodiscard]] bool link_partitioned(NodeId a, NodeId b) const;
  [[nodiscard]] std::uint64_t messages_dropped() const { return dropped_; }

  /// Partitions (isolated=true) or heals (false) every link between `host`
  /// and the rest of the cluster in one call — the whole-node-isolation
  /// fault a chaos schedule's bare `partition <node>` event injects.
  void set_node_isolated(const std::string& host, bool isolated);
  /// Heals every partition involving `host`.
  void heal_partitions(const std::string& host);
  /// Heals every partition in the world.
  void heal_all_partitions() { partitioned_.clear(); }

  /// Propagation delay from `from` to `to` for a payload of `bytes`.
  [[nodiscard]] Duration delivery_delay(NodeId from, NodeId to,
                                        const Endpoint& dst,
                                        std::size_t bytes) const;

  // ---- Traffic accounting (Figure 5) ----
  // Byte counts live in the simulation's metrics registry (counters
  // "net.bytes.service.<port>" and "net.bytes.total"); these accessors are
  // registry reads kept for convenience.
  /// Total payload bytes delivered over connections whose acceptor listened
  /// on `service_port` (both directions).
  [[nodiscard]] std::uint64_t bytes_for_service(std::uint16_t service_port) const;
  [[nodiscard]] std::uint64_t total_bytes_delivered() const;
  /// Number of connections ever established.
  [[nodiscard]] std::uint64_t connections_established() const;

  // ---- Internals used by ProcessSocketApi / Process ----
  /// Computes the FIFO-respecting arrival instant for a delivery into `dst`
  /// that would nominally take `delay`, and advances the end's FIFO floor.
  TimePoint reserve_arrival(detail::ConnEnd& dst, Duration delay);

  detail::ListenerPtr find_listener(const std::string& host, std::uint16_t port);
  Result<detail::ListenerPtr> register_listener(Process& proc, std::uint16_t port);
  void remove_listener(const detail::ListenerPtr& listener);
  std::uint16_t next_ephemeral_port(NodeId node);
  /// Looks up a host added with add_node(). Asserts on unknown hosts in
  /// debug builds and returns kInvalidNode (which matches no real node —
  /// ids start at 1) in release builds; callers must not treat the result
  /// as a real node without checking. Unknown-host paths that are reachable
  /// by construction (connect) check has_node() first.
  [[nodiscard]] NodeId node_id(const std::string& host) const;
  /// Resolves the per-service and total byte counters for an established
  /// connection (cached on the Conn; see detail::Conn).
  void bind_delivery_counters(detail::Conn& conn);
  void note_connection() { ++connections_established_; }
  void note_drop() { ++dropped_; }
  void teardown_process_sockets(Process& proc);
  [[nodiscard]] detail::WaiterPool& waiter_pool() { return waiter_pool_; }
  [[nodiscard]] obs::Counter& crash_counter() { return *process_crashes_; }
  [[nodiscard]] obs::Counter& exit_counter() { return *process_exits_; }

 private:
  sim::Simulator& sim_;
  LatencyConfig latency_;
  std::map<std::string, NodeId> nodes_;
  std::uint64_t next_node_ = 1;
  std::uint64_t next_process_ = 1;
  std::map<NodeId, std::uint16_t> ephemeral_;
  std::map<std::pair<std::uint64_t, std::uint16_t>, detail::ListenerPtr> listeners_;
  std::vector<ProcessPtr> processes_;
  /// Cached registry counters, one per service port (plus the total and
  /// the process lifecycle counters, resolved at construction).
  std::map<std::uint16_t, obs::Counter*> service_bytes_;
  obs::Counter* total_bytes_ = nullptr;
  obs::Counter* process_crashes_ = nullptr;
  obs::Counter* process_exits_ = nullptr;
  detail::WaiterPool waiter_pool_;
  std::set<std::pair<std::uint64_t, std::uint64_t>> partitioned_;  // a<b
  std::set<std::uint64_t> crashed_nodes_;
  std::map<std::uint64_t, NodeCrashObserver> crash_observers_;
  std::uint64_t next_observer_ = 1;
  std::uint64_t dropped_ = 0;
  std::uint64_t connections_established_ = 0;
};

/// Concrete SocketApi bound to one Process — the "real system calls" that
/// the MEAD interceptor wraps.
class ProcessSocketApi final : public SocketApi {
 public:
  explicit ProcessSocketApi(Process& proc) : proc_(proc) {}

  Result<int> listen(std::uint16_t port) override;
  sim::Task<Result<int>> accept(int listen_fd) override;
  sim::Task<Result<int>> connect(const Endpoint& remote) override;
  sim::Task<Result<Bytes>> read(int fd, std::size_t max_bytes,
                                std::optional<Duration> timeout) override;
  sim::Task<Result<std::size_t>> writev(int fd, Bytes data) override;
  sim::Task<Result<std::vector<int>>> select(
      std::vector<int> fds, std::optional<Duration> timeout) override;
  Result<void> close(int fd) override;
  Result<void> dup2(int from_fd, int to_fd) override;
  Result<Endpoint> local_endpoint(int fd) const override;
  Result<Endpoint> peer_endpoint(int fd) const override;

 private:
  [[nodiscard]] sim::Simulator& sim() const { return proc_.sim(); }
  [[nodiscard]] Network& net() const { return proc_.net_; }

  /// Suspends until `w` is woken; arms a timer for `deadline` if given.
  [[nodiscard]] static auto suspend_waiter(sim::Simulator& sim,
                                           detail::WaiterPtr w,
                                           std::optional<TimePoint> deadline);

  /// Closes one fd-table reference; performs the real socket close when the
  /// last reference in this process goes away (dup2 aliasing, tracked by
  /// the end's open_fds refcount).
  void close_entry(detail::FdEntry entry);
  void real_close_conn(const detail::ConnRef& ref);

  Process& proc_;
};

}  // namespace mead::net

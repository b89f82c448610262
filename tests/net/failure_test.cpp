// Crash-fault semantics: the behaviours MEAD's detection paths depend on.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "net/network.h"
#include "sim/simulator.h"

namespace mead::net {
namespace {

Bytes to_bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

class FailureTest : public ::testing::Test {
 protected:
  FailureTest() : net_(sim_) {
    net_.add_node("node1");
    net_.add_node("node2");
  }

  sim::Simulator sim_;
  Network net_;
};

TEST_F(FailureTest, KillDeliversEofToPeer) {
  auto server = net_.spawn_process("node1", "server");
  auto client = net_.spawn_process("node2", "client");
  bool eof_seen = false;
  TimePoint eof_at;

  auto server_main = [](Process& p) -> sim::Task<void> {
    auto lfd = p.api().listen(5000);
    (void)co_await p.api().accept(lfd.value());
    // then hangs until killed
  };
  auto client_main = [](Process& p, bool& eof, TimePoint& t) -> sim::Task<void> {
    auto fd = co_await p.api().connect(Endpoint{"node1", 5000});
    auto r = co_await p.api().read(fd.value(), 4096);  // blocks
    eof = r.ok() && r->empty();
    t = p.sim().now();
  };
  sim_.spawn(server_main(*server));
  sim_.spawn(client_main(*client, eof_seen, eof_at));
  sim_.schedule(milliseconds(50), [&] { server->kill(); });
  sim_.run();
  EXPECT_TRUE(eof_seen);
  EXPECT_GE(eof_at.ms(), 50.0);
  EXPECT_LT(eof_at.ms(), 51.0);  // EOF arrives after one propagation delay
}

TEST_F(FailureTest, KilledProcessOperationsFail) {
  auto proc = net_.spawn_process("node1", "victim");
  bool listen_failed = false;
  auto main = [](Process& p, bool& flag) -> sim::Task<void> {
    const bool alive = co_await p.sleep(milliseconds(10));
    if (!alive) {
      // died while sleeping: verify the API also refuses
      auto r = p.api().listen(5000);
      flag = !r.ok() && r.error() == NetErr::kProcessDead;
      co_return;
    }
    flag = false;
  };
  sim_.spawn(main(*proc, listen_failed));
  sim_.schedule(milliseconds(5), [&] { proc->kill(); });
  sim_.run();
  EXPECT_TRUE(listen_failed);
}

TEST_F(FailureTest, SleepReportsDeath) {
  auto proc = net_.spawn_process("node1", "victim");
  bool reported_dead = false;
  auto main = [](Process& p, bool& flag) -> sim::Task<void> {
    const bool alive = co_await p.sleep(milliseconds(10));
    flag = !alive;
  };
  sim_.spawn(main(*proc, reported_dead));
  sim_.schedule(milliseconds(3), [&] { proc->kill(); });
  sim_.run();
  EXPECT_TRUE(reported_dead);
}

// Process::sleep is one resume event at its deadline, like
// Simulator::sleep: a kill mid-sleep does not wake it early, and it then
// yields false.
TEST_F(FailureTest, KilledMidSleepWakesOnceAtItsDeadlineWithFalse) {
  auto proc = net_.spawn_process("node1", "victim");
  struct Seen {
    bool alive = true;
    std::uint64_t events = 0;
    TimePoint at;
  } seen;
  auto main = [](Process& p, Seen& out) -> sim::Task<void> {
    const std::uint64_t before = p.sim().events_processed();
    out.alive = co_await p.sleep(milliseconds(10));
    out.events = p.sim().events_processed() - before;
    out.at = p.sim().now();
  };
  sim_.spawn(main(*proc, seen));
  sim_.schedule(milliseconds(3), [&] { proc->kill(); });
  sim_.run();
  EXPECT_FALSE(seen.alive);
  EXPECT_EQ(seen.events, 2u);  // the kill, then the one resume
  EXPECT_EQ(seen.at, TimePoint{0} + milliseconds(10));
}

TEST_F(FailureTest, BlockedReadOnOwnSocketWakesWithErrorOnKill) {
  auto server = net_.spawn_process("node1", "server");
  auto client = net_.spawn_process("node2", "client");
  bool saw_dead = false;

  auto server_main = [](Process& p) -> sim::Task<void> {
    auto lfd = p.api().listen(5000);
    (void)co_await p.api().accept(lfd.value());
  };
  auto client_main = [](Process& p, bool& flag) -> sim::Task<void> {
    auto fd = co_await p.api().connect(Endpoint{"node1", 5000});
    auto r = co_await p.api().read(fd.value(), 4096);
    // The *client* was killed while blocked: read fails.
    flag = !r.ok() && (r.error() == NetErr::kProcessDead ||
                       r.error() == NetErr::kClosed ||
                       r.error() == NetErr::kBadFd);
  };
  sim_.spawn(server_main(*server));
  sim_.spawn(client_main(*client, saw_dead));
  sim_.schedule(milliseconds(10), [&] { client->kill(); });
  sim_.run();
  EXPECT_TRUE(saw_dead);
}

TEST_F(FailureTest, ConnectToKilledServerRefused) {
  auto server = net_.spawn_process("node1", "server");
  auto client = net_.spawn_process("node2", "client");
  bool refused = false;

  auto server_main = [](Process& p) -> sim::Task<void> {
    auto lfd = p.api().listen(5000);
    (void)co_await p.api().accept(lfd.value());
  };
  auto client_main = [](Process& p, bool& flag) -> sim::Task<void> {
    co_await p.sim().sleep(milliseconds(20));  // after server death
    auto fd = co_await p.api().connect(Endpoint{"node1", 5000});
    flag = !fd.ok() && fd.error() == NetErr::kConnRefused;
  };
  sim_.spawn(server_main(*server));
  sim_.spawn(client_main(*client, refused));
  sim_.schedule(milliseconds(5), [&] { server->kill(); });
  sim_.run();
  EXPECT_TRUE(refused);
}

TEST_F(FailureTest, CrashNodeKillsAllItsProcesses) {
  auto p1 = net_.spawn_process("node1", "a");
  auto p2 = net_.spawn_process("node1", "b");
  auto p3 = net_.spawn_process("node2", "c");
  net_.crash_node("node1");
  EXPECT_FALSE(p1->alive());
  EXPECT_FALSE(p2->alive());
  EXPECT_TRUE(p3->alive());
}

TEST_F(FailureTest, KillIsIdempotent) {
  auto p = net_.spawn_process("node1", "a");
  p->kill();
  p->kill();
  EXPECT_FALSE(p->alive());
}

TEST_F(FailureTest, ListenerPortFreedAfterKill) {
  auto first = net_.spawn_process("node1", "first");
  ASSERT_TRUE(first->api().listen(5000).ok());
  first->kill();
  auto second = net_.spawn_process("node1", "second");
  EXPECT_TRUE(second->api().listen(5000).ok());
}

TEST_F(FailureTest, ExitBehavesLikeKillForPeers) {
  auto server = net_.spawn_process("node1", "server");
  auto client = net_.spawn_process("node2", "client");
  bool eof_seen = false;

  auto server_main = [](Process& p) -> sim::Task<void> {
    auto lfd = p.api().listen(5000);
    (void)co_await p.api().accept(lfd.value());
    co_await p.sim().sleep(milliseconds(5));
    p.exit();
  };
  auto client_main = [](Process& p, bool& eof) -> sim::Task<void> {
    auto fd = co_await p.api().connect(Endpoint{"node1", 5000});
    auto r = co_await p.api().read(fd.value(), 4096);
    eof = r.ok() && r->empty();
  };
  sim_.spawn(server_main(*server));
  sim_.spawn(client_main(*client, eof_seen));
  sim_.run();
  EXPECT_TRUE(eof_seen);
}

TEST_F(FailureTest, InFlightDataStillDeliveredBeforeEof) {
  // TCP-like: data written before the crash propagates ahead of the FIN.
  auto server = net_.spawn_process("node1", "server");
  auto client = net_.spawn_process("node2", "client");
  std::string got;
  bool eof_after = false;

  auto server_main = [](Process& p) -> sim::Task<void> {
    auto lfd = p.api().listen(5000);
    auto cfd = co_await p.api().accept(lfd.value());
    (void)co_await p.api().writev(cfd.value(), to_bytes("last-words"));
    p.kill();  // immediately after write
  };
  auto client_main = [](Process& p, std::string& out, bool& eof) -> sim::Task<void> {
    auto fd = co_await p.api().connect(Endpoint{"node1", 5000});
    auto d1 = co_await p.api().read(fd.value(), 4096);
    if (d1.ok()) out.assign(d1->begin(), d1->end());
    auto d2 = co_await p.api().read(fd.value(), 4096);
    eof = d2.ok() && d2->empty();
  };
  sim_.spawn(server_main(*server));
  sim_.spawn(client_main(*client, got, eof_after));
  sim_.run();
  EXPECT_EQ(got, "last-words");
  EXPECT_TRUE(eof_after);
}

TEST_F(FailureTest, WriteAfterPeerDeathSucceedsLocallyThenEofOnRead) {
  // TCP semantics: the first write onto a dead-peer connection is buffered
  // locally (no error); the failure surfaces at the next read as EOF. The
  // paper's client-side interceptor depends on failures funneling through
  // read() (S4.2).
  auto server = net_.spawn_process("node1", "server");
  auto client = net_.spawn_process("node2", "client");
  bool write_ok = false;
  bool eof_seen = false;

  auto server_main = [](Process& p) -> sim::Task<void> {
    auto lfd = p.api().listen(5000);
    (void)co_await p.api().accept(lfd.value());
  };
  auto client_main = [](Process& p, bool& wok, bool& eof) -> sim::Task<void> {
    auto fd = co_await p.api().connect(Endpoint{"node1", 5000});
    co_await p.sim().sleep(milliseconds(10));  // server dies at 5ms
    auto w = co_await p.api().writev(fd.value(), to_bytes("into-the-void"));
    wok = w.ok();
    auto r = co_await p.api().read(fd.value(), 4096);
    eof = r.ok() && r->empty();
  };
  sim_.spawn(server_main(*server));
  sim_.spawn(client_main(*client, write_ok, eof_seen));
  sim_.schedule(milliseconds(5), [&] { server->kill(); });
  sim_.run();
  EXPECT_TRUE(write_ok);
  EXPECT_TRUE(eof_seen);
}

TEST_F(FailureTest, NodeCrashDeliversEofToRemotePeers) {
  auto server = net_.spawn_process("node1", "server");
  auto bystander = net_.spawn_process("node1", "bystander");
  auto client = net_.spawn_process("node2", "client");
  bool eof_seen = false;

  auto server_main = [](Process& p) -> sim::Task<void> {
    auto lfd = p.api().listen(5000);
    (void)co_await p.api().accept(lfd.value());
  };
  auto client_main = [](Process& p, bool& eof) -> sim::Task<void> {
    auto fd = co_await p.api().connect(Endpoint{"node1", 5000});
    auto r = co_await p.api().read(fd.value(), 4096);
    eof = r.ok() && r->empty();
  };
  sim_.spawn(server_main(*server));
  sim_.spawn(client_main(*client, eof_seen));
  sim_.schedule(milliseconds(10), [&] { net_.crash_node("node1"); });
  sim_.run();
  EXPECT_TRUE(eof_seen);
  EXPECT_FALSE(server->alive());
  EXPECT_FALSE(bystander->alive());
  EXPECT_TRUE(client->alive());
}

TEST_F(FailureTest, InFlightDataToCrashedNodeDroppedWithEof) {
  // The reverse of InFlightDataStillDeliveredBeforeEof: a whole-node crash
  // takes the destination down while bytes are still on the wire. The bytes
  // must vanish (never counted against the listener's service port) and the
  // writer's next read must see EOF — exactly what the chaos engine's
  // crash_node fault relies on.
  auto server = net_.spawn_process("node1", "server");
  auto client = net_.spawn_process("node2", "client");
  bool write_ok = false;
  bool eof_seen = false;

  auto server_main = [](Process& p) -> sim::Task<void> {
    auto lfd = p.api().listen(5000);
    auto cfd = co_await p.api().accept(lfd.value());
    for (;;) {
      auto d = co_await p.api().read(cfd.value(), 4096);
      if (!d.ok() || d->empty()) co_return;
    }
  };
  auto client_main = [](Process& p, bool& wok, bool& eof) -> sim::Task<void> {
    auto fd = co_await p.api().connect(Endpoint{"node1", 5000});
    co_await p.sim().sleep(milliseconds(5));
    auto w = co_await p.api().writev(fd.value(), to_bytes("doomed"));
    wok = w.ok();
    auto r = co_await p.api().read(fd.value(), 4096);
    eof = r.ok() && r->empty();
  };
  sim_.spawn(server_main(*server));
  sim_.spawn(client_main(*client, write_ok, eof_seen));
  const auto bytes0 = net_.bytes_for_service(5000);
  // Cross-node propagation is 100us: the write leaves node2 at t=5ms and
  // would land at t=5.1ms. Crash the destination at t=5.05ms — mid-flight.
  sim_.schedule(milliseconds(5) + microseconds(50),
                [&] { net_.crash_node("node1"); });
  sim_.run();
  EXPECT_TRUE(write_ok);  // the local write had already succeeded
  EXPECT_TRUE(eof_seen);
  EXPECT_FALSE(net_.node_alive("node1"));
  // The in-flight payload was dropped, not delivered post-mortem.
  EXPECT_EQ(net_.bytes_for_service(5000), bytes0);
}

TEST_F(FailureTest, EphemeralPortsNeverCollide) {
  auto client = net_.spawn_process("node2", "client");
  auto server = net_.spawn_process("node1", "server");
  std::vector<std::uint16_t> local_ports;

  auto server_main = [](Process& p) -> sim::Task<void> {
    auto lfd = p.api().listen(5000);
    for (;;) {
      auto fd = co_await p.api().accept(lfd.value());
      if (!fd) co_return;
    }
  };
  auto client_main = [](Process& p, std::vector<std::uint16_t>& ports)
      -> sim::Task<void> {
    for (int i = 0; i < 20; ++i) {
      auto fd = co_await p.api().connect(Endpoint{"node1", 5000});
      if (!fd) co_return;
      ports.push_back(p.api().local_endpoint(fd.value())->port);
    }
  };
  sim_.spawn(server_main(*server));
  sim_.spawn(client_main(*client, local_ports));
  sim_.run_for(milliseconds(100));
  ASSERT_EQ(local_ports.size(), 20u);
  std::sort(local_ports.begin(), local_ports.end());
  EXPECT_EQ(std::adjacent_find(local_ports.begin(), local_ports.end()),
            local_ports.end());
}

TEST_F(FailureTest, ChainedDup2RedirectsFollowTheLatestTarget) {
  // A connection redirected twice (replica A -> B -> C) must end up at C —
  // the repeated-rejuvenation path of the MEAD scheme.
  auto a = net_.spawn_process("node1", "a");
  auto b = net_.spawn_process("node1", "b");
  auto c = net_.spawn_process("node1", "c");
  auto client = net_.spawn_process("node2", "client");
  std::string c_got;

  auto sink = [](Process& p, std::uint16_t port, std::string* out)
      -> sim::Task<void> {
    auto lfd = p.api().listen(port);
    auto cfd = co_await p.api().accept(lfd.value());
    for (;;) {
      auto d = co_await p.api().read(cfd.value(), 4096);
      if (!d.ok() || d->empty()) co_return;
      if (out != nullptr) out->append(d->begin(), d->end());
    }
  };
  auto client_main = [](Process& p, std::string& out) -> sim::Task<void> {
    (void)out;
    auto fd = co_await p.api().connect(Endpoint{"node1", 6001});
    for (std::uint16_t port : {6002, 6003}) {
      auto nfd = co_await p.api().connect(Endpoint{"node1", port});
      EXPECT_TRUE(nfd.ok());
      EXPECT_TRUE(p.api().dup2(nfd.value(), fd.value()).ok());
      EXPECT_TRUE(p.api().close(nfd.value()).ok());
    }
    (void)co_await p.api().writev(fd.value(), to_bytes("final"));
    co_await p.sim().sleep(milliseconds(2));
  };
  sim_.spawn(sink(*a, 6001, nullptr));
  sim_.spawn(sink(*b, 6002, nullptr));
  sim_.spawn(sink(*c, 6003, &c_got));
  sim_.spawn(client_main(*client, c_got));
  sim_.run_for(milliseconds(50));
  EXPECT_EQ(c_got, "final");
}

// Connections resolve both ends' nodes once, at connect. A partition that
// starts later must still cut them: these open the connection first, then
// partition, and check that data, the FIN and a crash's reset are all lost.

/// What the server side of a partitioned connection observed.
struct PartitionedServer {
  std::string got;
  bool hung = false;  // a read timed out: no data, no EOF
};

/// Accepts one connection on node1:5000 and reads until EOF, error, or
/// 100 ms of silence.
sim::Task<void> partitioned_server(Process& p, PartitionedServer& out) {
  auto lfd = p.api().listen(5000);
  auto fd = co_await p.api().accept(lfd.value());
  for (;;) {
    auto r = co_await p.api().read(fd.value(), 4096, milliseconds(100));
    if (!r) {
      out.hung = r.error() == NetErr::kTimeout;
      co_return;
    }
    if (r->empty()) co_return;  // EOF
    out.got.append(r->begin(), r->end());
  }
}

/// Connects, optionally aliases the fd with dup2, writes "before", then
/// partitions the link and writes "after" and closes through the alias (and
/// the original fd).
sim::Task<void> write_across_partition(Process& p, Network& net,
                                       bool via_alias) {
  auto fd = co_await p.api().connect(Endpoint{"node1", 5000});
  if (!fd) co_return;
  int use = fd.value();
  if (via_alias) {
    use = 42;
    EXPECT_TRUE(p.api().dup2(fd.value(), use).ok());
  }
  (void)co_await p.api().writev(use, to_bytes("before"));
  co_await p.sim().sleep(milliseconds(5));
  net.set_link_partitioned("node1", "node2", true);
  (void)co_await p.api().writev(use, to_bytes("after"));
  if (via_alias) {
    EXPECT_TRUE(p.api().close(fd.value()).ok());
  }
  EXPECT_TRUE(p.api().close(use).ok());
}

TEST_F(FailureTest, PartitionAfterConnectDropsWritesAndTheFin) {
  auto server = net_.spawn_process("node1", "server");
  auto client = net_.spawn_process("node2", "client");
  PartitionedServer seen;
  sim_.spawn(partitioned_server(*server, seen));
  sim_.spawn(write_across_partition(*client, net_, /*via_alias=*/false));
  sim_.run_for(milliseconds(300));
  EXPECT_EQ(seen.got, "before");
  EXPECT_TRUE(seen.hung) << "the FIN crossed the partition";
  EXPECT_EQ(net_.messages_dropped(), 2u);  // "after" and the FIN
}

TEST_F(FailureTest, Dup2AliasOfAPartitionedConnectionDropsToo) {
  auto server = net_.spawn_process("node1", "server");
  auto client = net_.spawn_process("node2", "client");
  PartitionedServer seen;
  sim_.spawn(partitioned_server(*server, seen));
  sim_.spawn(write_across_partition(*client, net_, /*via_alias=*/true));
  sim_.run_for(milliseconds(300));
  EXPECT_EQ(seen.got, "before");
  EXPECT_TRUE(seen.hung) << "the FIN crossed the partition";
  // Closing the original fd is no real close while the alias holds the
  // socket; the alias's close sends the one FIN, which is lost.
  EXPECT_EQ(net_.messages_dropped(), 2u);
}

TEST_F(FailureTest, CrashAcrossAPartitionLosesTheReset) {
  auto server = net_.spawn_process("node1", "server");
  auto client = net_.spawn_process("node2", "client");
  PartitionedServer seen;
  auto client_main = [](Process& p) -> sim::Task<void> {
    auto fd = co_await p.api().connect(Endpoint{"node1", 5000});
    if (fd) (void)co_await p.api().writev(fd.value(), to_bytes("before"));
    (void)co_await p.sleep(seconds(1));
  };
  sim_.spawn(partitioned_server(*server, seen));
  sim_.spawn(client_main(*client));
  sim_.schedule(milliseconds(10), [&] {
    net_.set_link_partitioned("node1", "node2", true);
    client->kill();
  });
  sim_.run_for(milliseconds(300));
  EXPECT_EQ(seen.got, "before");
  EXPECT_TRUE(seen.hung) << "the reset crossed the partition";
  EXPECT_EQ(net_.messages_dropped(), 1u);
}

}  // namespace
}  // namespace mead::net

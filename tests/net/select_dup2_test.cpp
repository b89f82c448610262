// select() multiplexing and dup2() redirection — the two primitives the MEAD
// interceptor builds on (§3.1 select with the GC socket; §4.3 dup2 fail-over).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/network.h"
#include "sim/simulator.h"

namespace mead::net {
namespace {

Bytes to_bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }
std::string to_str(const Bytes& b) { return std::string(b.begin(), b.end()); }

class SelectDup2Test : public ::testing::Test {
 protected:
  SelectDup2Test() : net_(sim_) {
    net_.add_node("node1");
    net_.add_node("node2");
    net_.add_node("node3");
  }

  sim::Simulator sim_;
  Network net_;
};

TEST_F(SelectDup2Test, SelectReturnsReadableFd) {
  auto server = net_.spawn_process("node1", "server");
  auto client = net_.spawn_process("node2", "client");
  std::vector<int> ready_fds;
  int data_fd = -1;

  auto server_main = [](Process& p) -> sim::Task<void> {
    auto lfd = p.api().listen(5000);
    auto cfd = co_await p.api().accept(lfd.value());
    co_await p.sim().sleep(milliseconds(5));
    (void)co_await p.api().writev(cfd.value(), to_bytes("hi"));
  };
  auto client_main = [](Process& p, std::vector<int>& ready, int& dfd) -> sim::Task<void> {
    auto fd1 = co_await p.api().connect(Endpoint{"node1", 5000});
    dfd = fd1.value();
    std::vector<int> watched{fd1.value()};
    auto r = co_await p.api().select(watched);
    ready = r.value();
  };
  sim_.spawn(server_main(*server));
  sim_.spawn(client_main(*client, ready_fds, data_fd));
  sim_.run();
  ASSERT_EQ(ready_fds.size(), 1u);
  EXPECT_EQ(ready_fds[0], data_fd);
}

TEST_F(SelectDup2Test, SelectTimesOutWithEmptySet) {
  auto server = net_.spawn_process("node1", "server");
  auto client = net_.spawn_process("node2", "client");
  bool empty = false;
  TimePoint when;

  auto server_main = [](Process& p) -> sim::Task<void> {
    auto lfd = p.api().listen(5000);
    (void)co_await p.api().accept(lfd.value());
  };
  auto client_main = [](Process& p, bool& flag, TimePoint& t) -> sim::Task<void> {
    auto fd = co_await p.api().connect(Endpoint{"node1", 5000});
    std::vector<int> watched{fd.value()};
    auto r = co_await p.api().select(watched, milliseconds(8));
    flag = r.ok() && r->empty();
    t = p.sim().now();
  };
  sim_.spawn(server_main(*server));
  sim_.spawn(client_main(*client, empty, when));
  sim_.run();
  EXPECT_TRUE(empty);
  EXPECT_GE(when.ms(), 8.0);
}

TEST_F(SelectDup2Test, SelectMultiplexesTwoSources) {
  // The interceptor pattern: one app socket + one GC socket; whichever has
  // traffic becomes readable.
  auto server_a = net_.spawn_process("node1", "a");
  auto server_b = net_.spawn_process("node3", "b");
  auto client = net_.spawn_process("node2", "client");
  std::vector<std::string> arrivals;

  auto serve_after = [](Process& p, std::uint16_t port, Duration delay,
                        std::string tag) -> sim::Task<void> {
    auto lfd = p.api().listen(port);
    auto cfd = co_await p.api().accept(lfd.value());
    co_await p.sim().sleep(delay);
    (void)co_await p.api().writev(cfd.value(), to_bytes(tag));
  };
  auto client_main = [](Process& p, std::vector<std::string>& out) -> sim::Task<void> {
    auto fd_a = co_await p.api().connect(Endpoint{"node1", 5000});
    auto fd_b = co_await p.api().connect(Endpoint{"node3", 5001});
    for (int i = 0; i < 2; ++i) {
      std::vector<int> watched{fd_a.value(), fd_b.value()};
      auto ready = co_await p.api().select(watched);
      for (int fd : ready.value()) {
        auto d = co_await p.api().read(fd, 4096);
        out.push_back(to_str(d.value()));
      }
    }
  };
  sim_.spawn(serve_after(*server_a, 5000, milliseconds(10), "slow"));
  sim_.spawn(serve_after(*server_b, 5001, milliseconds(2), "fast"));
  sim_.spawn(client_main(*client, arrivals));
  sim_.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], "fast");
  EXPECT_EQ(arrivals[1], "slow");
}

TEST_F(SelectDup2Test, SelectSeesEofAsReadable) {
  auto server = net_.spawn_process("node1", "server");
  auto client = net_.spawn_process("node2", "client");
  bool readable_on_eof = false;

  auto server_main = [](Process& p) -> sim::Task<void> {
    auto lfd = p.api().listen(5000);
    auto cfd = co_await p.api().accept(lfd.value());
    co_await p.sim().sleep(milliseconds(3));
    (void)p.api().close(cfd.value());
  };
  auto client_main = [](Process& p, bool& flag) -> sim::Task<void> {
    auto fd = co_await p.api().connect(Endpoint{"node1", 5000});
    std::vector<int> watched{fd.value()};
    auto ready = co_await p.api().select(watched);
    if (ready.ok() && !ready->empty()) {
      auto d = co_await p.api().read(fd.value(), 4096);
      flag = d.ok() && d->empty();  // EOF
    }
  };
  sim_.spawn(server_main(*server));
  sim_.spawn(client_main(*client, readable_on_eof));
  sim_.run();
  EXPECT_TRUE(readable_on_eof);
}

TEST_F(SelectDup2Test, SelectOnListenerSeesPendingAccept) {
  auto server = net_.spawn_process("node1", "server");
  auto client = net_.spawn_process("node2", "client");
  bool listener_ready = false;

  auto server_main = [](Process& p, bool& flag) -> sim::Task<void> {
    auto lfd = p.api().listen(5000);
    std::vector<int> watched{lfd.value()};
    auto ready = co_await p.api().select(watched);
    flag = ready.ok() && ready->size() == 1;
  };
  auto client_main = [](Process& p) -> sim::Task<void> {
    (void)co_await p.api().connect(Endpoint{"node1", 5000});
  };
  sim_.spawn(server_main(*server, listener_ready));
  sim_.spawn(client_main(*client));
  sim_.run();
  EXPECT_TRUE(listener_ready);
}

TEST_F(SelectDup2Test, Dup2RedirectsSubsequentTraffic) {
  // The §4.3 move: client talks to replica1 on `fd`; the interceptor
  // connects to replica2 and dup2s the new socket over `fd`. Subsequent
  // writes on `fd` reach replica2.
  auto replica1 = net_.spawn_process("node1", "replica1");
  auto replica2 = net_.spawn_process("node3", "replica2");
  auto client = net_.spawn_process("node2", "client");
  std::string r1_got;
  std::string r2_got;

  auto serve = [](Process& p, std::uint16_t port, std::string& out) -> sim::Task<void> {
    auto lfd = p.api().listen(port);
    auto cfd = co_await p.api().accept(lfd.value());
    for (;;) {
      auto d = co_await p.api().read(cfd.value(), 4096);
      if (!d.ok() || d->empty()) break;
      out += to_str(d.value());
    }
  };
  auto client_main = [](Process& p) -> sim::Task<void> {
    auto fd = co_await p.api().connect(Endpoint{"node1", 5000});
    (void)co_await p.api().writev(fd.value(), to_bytes("one"));
    co_await p.sim().sleep(milliseconds(2));
    // redirect: connect to replica2, alias it over the original fd
    auto nfd = co_await p.api().connect(Endpoint{"node3", 5001});
    EXPECT_TRUE(nfd.ok());
    EXPECT_TRUE(p.api().dup2(nfd.value(), fd.value()).ok());
    EXPECT_TRUE(p.api().close(nfd.value()).ok());  // drop the extra alias
    (void)co_await p.api().writev(fd.value(), to_bytes("two"));
    co_await p.sim().sleep(milliseconds(2));
    (void)p.api().close(fd.value());
  };
  sim_.spawn(serve(*replica1, 5000, r1_got));
  sim_.spawn(serve(*replica2, 5001, r2_got));
  sim_.spawn(client_main(*client));
  sim_.run();
  EXPECT_EQ(r1_got, "one");
  EXPECT_EQ(r2_got, "two");
}

TEST_F(SelectDup2Test, Dup2ClosesPreviousTarget) {
  auto replica1 = net_.spawn_process("node1", "replica1");
  auto replica2 = net_.spawn_process("node3", "replica2");
  auto client = net_.spawn_process("node2", "client");
  bool r1_saw_eof = false;

  auto serve_eof = [](Process& p, std::uint16_t port, bool& eof) -> sim::Task<void> {
    auto lfd = p.api().listen(port);
    auto cfd = co_await p.api().accept(lfd.value());
    auto d = co_await p.api().read(cfd.value(), 4096);
    eof = d.ok() && d->empty();
  };
  auto serve_sink = [](Process& p, std::uint16_t port) -> sim::Task<void> {
    auto lfd = p.api().listen(port);
    (void)co_await p.api().accept(lfd.value());
  };
  auto client_main = [](Process& p) -> sim::Task<void> {
    auto fd = co_await p.api().connect(Endpoint{"node1", 5000});
    auto nfd = co_await p.api().connect(Endpoint{"node3", 5001});
    EXPECT_TRUE(p.api().dup2(nfd.value(), fd.value()).ok());
  };
  sim_.spawn(serve_eof(*replica1, 5000, r1_saw_eof));
  sim_.spawn(serve_sink(*replica2, 5001));
  sim_.spawn(client_main(*client));
  sim_.run();
  EXPECT_TRUE(r1_saw_eof);  // old connection torn down by dup2
}

TEST_F(SelectDup2Test, Dup2AliasKeepsSocketOpenUntilLastClose) {
  // POSIX file-description semantics: closing one alias must not close the
  // shared socket.
  auto server = net_.spawn_process("node1", "server");
  auto client = net_.spawn_process("node2", "client");
  std::string got;

  auto serve = [](Process& p, std::string& out) -> sim::Task<void> {
    auto lfd = p.api().listen(5000);
    auto cfd = co_await p.api().accept(lfd.value());
    for (;;) {
      auto d = co_await p.api().read(cfd.value(), 4096);
      if (!d.ok() || d->empty()) break;
      out += to_str(d.value());
    }
  };
  auto client_main = [](Process& p) -> sim::Task<void> {
    auto fd = co_await p.api().connect(Endpoint{"node1", 5000});
    const int alias = 99;
    EXPECT_TRUE(p.api().dup2(fd.value(), alias).ok());
    EXPECT_TRUE(p.api().close(fd.value()).ok());  // one alias remains
    (void)co_await p.api().writev(alias, to_bytes("still-open"));
    co_await p.sim().sleep(milliseconds(2));
    (void)p.api().close(alias);
  };
  sim_.spawn(serve(*server, got));
  sim_.spawn(client_main(*client));
  sim_.run();
  EXPECT_EQ(got, "still-open");
}

TEST_F(SelectDup2Test, BlockedReadFollowsDup2Redirect) {
  // A reader blocked on fd continues on the *new* connection after dup2 —
  // the property that lets MEAD redirect beneath an ORB mid-read.
  auto replica1 = net_.spawn_process("node1", "replica1");
  auto replica2 = net_.spawn_process("node3", "replica2");
  auto client = net_.spawn_process("node2", "client");
  std::string got;

  auto silent = [](Process& p, std::uint16_t port) -> sim::Task<void> {
    auto lfd = p.api().listen(port);
    (void)co_await p.api().accept(lfd.value());
  };
  auto talkative = [](Process& p, std::uint16_t port) -> sim::Task<void> {
    auto lfd = p.api().listen(port);
    auto cfd = co_await p.api().accept(lfd.value());
    co_await p.sim().sleep(milliseconds(2));
    (void)co_await p.api().writev(cfd.value(), to_bytes("from-new"));
  };
  auto reader = [](Process& p, int fd, std::string& out) -> sim::Task<void> {
    auto d = co_await p.api().read(fd, 4096);
    if (d.ok() && !d->empty()) out.assign(d->begin(), d->end());
  };
  auto client_main = [&reader](Process& p, std::string& out) -> sim::Task<void> {
    auto fd = co_await p.api().connect(Endpoint{"node1", 5000});
    p.sim().spawn(reader(p, fd.value(), out));  // blocks: replica1 is silent
    co_await p.sim().sleep(milliseconds(5));
    auto nfd = co_await p.api().connect(Endpoint{"node3", 5001});
    EXPECT_TRUE(p.api().dup2(nfd.value(), fd.value()).ok());
    EXPECT_TRUE(p.api().close(nfd.value()).ok());
  };
  sim_.spawn(silent(*replica1, 5000));
  sim_.spawn(talkative(*replica2, 5001));
  sim_.spawn(client_main(*client, got));
  sim_.run();
  EXPECT_EQ(got, "from-new");
}

TEST_F(SelectDup2Test, Dup2BadFdFails) {
  auto client = net_.spawn_process("node1", "client");
  EXPECT_FALSE(client->api().dup2(77, 78).ok());
}

TEST_F(SelectDup2Test, Dup2OntoANegativeOrHugeFdFails) {
  auto server = net_.spawn_process("node1", "server");
  auto lfd = server->api().listen(5000);
  ASSERT_TRUE(lfd.ok());
  for (int to : {-1, -7, 1 << 30}) {
    auto r = server->api().dup2(lfd.value(), to);
    ASSERT_FALSE(r.ok()) << to;
    EXPECT_EQ(r.error(), NetErr::kBadFd) << to;
  }
  EXPECT_TRUE(server->api().local_endpoint(lfd.value()).ok());
}

TEST_F(SelectDup2Test, ConnectSkipsAnFdClaimedByDup2) {
  // dup2 onto a number no socket has been given yet: the next connect must
  // get a fresh fd, not that number — handing it out again would leave the
  // new fd aliasing the old socket and leak the new connection's fd count.
  auto first = net_.spawn_process("node1", "first");
  auto second = net_.spawn_process("node3", "second");
  auto client = net_.spawn_process("node2", "client");
  bool first_saw_eof = false;
  std::string second_got;

  auto serve_first = [](Process& p, bool& eof) -> sim::Task<void> {
    auto lfd = p.api().listen(5000);
    auto cfd = co_await p.api().accept(lfd.value());
    auto d = co_await p.api().read(cfd.value(), 4096);
    eof = d.ok() && d->empty();
  };
  auto serve_second = [](Process& p, std::string& out) -> sim::Task<void> {
    auto lfd = p.api().listen(5001);
    auto cfd = co_await p.api().accept(lfd.value());
    auto d = co_await p.api().read(cfd.value(), 4096);
    if (d.ok()) out = to_str(d.value());
  };
  auto client_main = [](Process& p) -> sim::Task<void> {
    auto fd = co_await p.api().connect(Endpoint{"node1", 5000});
    const int alias = fd.value() + 1;  // not yet allocated
    EXPECT_TRUE(p.api().dup2(fd.value(), alias).ok());
    auto nfd = co_await p.api().connect(Endpoint{"node3", 5001});
    EXPECT_TRUE(nfd.ok());
    if (!nfd.ok()) co_return;
    EXPECT_EQ(nfd.value(), alias + 1);
    EXPECT_EQ(p.api().peer_endpoint(nfd.value())->port, 5001);
    EXPECT_EQ(p.api().peer_endpoint(alias)->port, 5000);
    (void)co_await p.api().writev(nfd.value(), to_bytes("new"));
    // Both references to the first connection go: its server sees EOF.
    EXPECT_TRUE(p.api().close(fd.value()).ok());
    EXPECT_TRUE(p.api().close(alias).ok());
  };
  sim_.spawn(serve_first(*first, first_saw_eof));
  sim_.spawn(serve_second(*second, second_got));
  sim_.spawn(client_main(*client));
  sim_.run();
  EXPECT_TRUE(first_saw_eof);
  EXPECT_EQ(second_got, "new");
}

TEST_F(SelectDup2Test, Dup2OntoAHighFd) {
  // A high dup2 target works like any other fd and does not move the
  // allocator: the next socket still gets the next low number.
  auto server = net_.spawn_process("node1", "server");
  auto client = net_.spawn_process("node2", "client");
  std::string got;

  auto serve = [](Process& p, std::string& out) -> sim::Task<void> {
    auto lfd = p.api().listen(5000);
    auto cfd = co_await p.api().accept(lfd.value());
    for (;;) {
      auto d = co_await p.api().read(cfd.value(), 4096);
      if (!d.ok() || d->empty()) break;
      out += to_str(d.value());
    }
  };
  auto client_main = [](Process& p) -> sim::Task<void> {
    auto fd = co_await p.api().connect(Endpoint{"node1", 5000});
    const int high = 4096;
    EXPECT_TRUE(p.api().dup2(fd.value(), high).ok());
    EXPECT_TRUE(p.api().close(fd.value()).ok());
    (void)co_await p.api().writev(high, to_bytes("high"));
    auto next = p.api().listen(6000);
    EXPECT_EQ(next.value_or(-1), fd.value() + 1);
    co_await p.sim().sleep(milliseconds(2));
    EXPECT_TRUE(p.api().close(high).ok());
  };
  sim_.spawn(serve(*server, got));
  sim_.spawn(client_main(*client));
  sim_.run();
  EXPECT_EQ(got, "high");
}

}  // namespace
}  // namespace mead::net

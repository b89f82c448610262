// Message-loss faults (the paper's fault model, §3): network partitions
// drop traffic silently, so failure detection must come from heartbeat
// timeouts rather than EOF.
#include <gtest/gtest.h>

#include <algorithm>

#include "gc_fixture.h"

namespace mead::gc {
namespace {

/// Three-node world with fast heartbeats so partition detection fits in a
/// short test.
class PartitionWorld : public ::testing::Test {
 protected:
  explicit PartitionWorld(PlaneOptions plane = {}) : net_(sim_) {
    for (int i = 1; i <= 3; ++i) {
      hosts_.push_back("node" + std::to_string(i));
      net_.add_node(hosts_.back());
    }
    for (std::size_t i = 0; i < hosts_.size(); ++i) {
      DaemonConfig cfg;
      cfg.daemon_hosts = hosts_;
      cfg.self_index = i;
      cfg.heartbeat_interval = milliseconds(20);
      cfg.plane = plane;
      auto proc = net_.spawn_process(hosts_[i], "gc-daemon");
      daemons_.push_back(std::make_unique<GcDaemon>(proc, cfg));
      daemons_.back()->start();
    }
    sim_.run_for(milliseconds(10));
  }

  struct ClientHandle {
    net::ProcessPtr proc;
    std::unique_ptr<GcClient> gc;
  };

  ClientHandle make_member(const std::string& host, const std::string& name) {
    ClientHandle h;
    h.proc = net_.spawn_process(host, name);
    h.gc = std::make_unique<GcClient>(*h.proc, name,
                                      net::Endpoint{host, kDefaultDaemonPort});
    auto boot = [](GcClient& c) -> sim::Task<void> {
      const bool ok = co_await c.connect();
      if (ok) (void)co_await c.join("grp");
    };
    sim_.spawn(boot(*h.gc));
    sim_.run_for(milliseconds(10));
    return h;
  }

  /// Isolates node3 until the mesh expels its daemon (and member "c"),
  /// heals, and checks the expelled daemon rejoins through a state sync
  /// that re-enters "c" under a new view. Then a multicast from "a" reaches
  /// "c", and killing "c", whose home is the rejoined daemon, takes it out
  /// of every daemon's view.
  void expelled_daemon_rejoins_after_heal();

  sim::Simulator sim_{17};
  net::Network net_;
  std::vector<std::string> hosts_;
  std::vector<std::unique_ptr<GcDaemon>> daemons_;
};

/// The same world on the scaled plane (sharded stampers, interest scoping,
/// batching).
class ScaledPartitionWorld : public PartitionWorld {
 protected:
  ScaledPartitionWorld() : PartitionWorld(PlaneOptions::scaled()) {}
};

TEST_F(PartitionWorld, PartitionDropsMessagesSilently) {
  auto a = make_member("node1", "a");
  auto b = make_member("node2", "b");
  const auto dropped0 = net_.messages_dropped();

  net_.set_link_partitioned("node1", "node2", true);
  auto talk = [](GcClient& gc) -> sim::Task<void> {
    Bytes msg{'x'};
    (void)co_await gc.multicast("grp", msg);
  };
  sim_.spawn(talk(*a.gc));
  sim_.run_for(milliseconds(30));
  // The multicast travels a->daemon1 (same node, fine); daemon1 is the
  // sequencer, its broadcast to daemon2 crosses the partition: dropped.
  EXPECT_GT(net_.messages_dropped(), dropped0);
}

TEST_F(PartitionWorld, HeartbeatTimeoutExpelsSilencedDaemonsMembers) {
  auto a = make_member("node1", "a");
  auto c = make_member("node3", "c");
  ASSERT_EQ(daemons_[0]->group_members("grp"),
            (std::vector<std::string>{"a", "c"}));

  // node3 falls silent to EVERYONE (full partition, no process death).
  net_.set_link_partitioned("node1", "node3", true);
  net_.set_link_partitioned("node2", "node3", true);
  // 3x heartbeat interval (20ms) + slack for the leave to propagate.
  sim_.run_for(milliseconds(200));

  // The sequencer (daemon0) expelled node3's member even though no EOF
  // ever arrived.
  EXPECT_EQ(daemons_[0]->group_members("grp"),
            (std::vector<std::string>{"a"}));
  EXPECT_EQ(daemons_[1]->group_members("grp"),
            (std::vector<std::string>{"a"}));
  // c's process is still alive — it is partitioned, not dead.
  EXPECT_TRUE(c.proc->alive());
  (void)a;
}

TEST_F(PartitionWorld, SurvivingMajorityKeepsOperating) {
  auto a = make_member("node1", "a");
  auto b = make_member("node2", "b");
  auto c = make_member("node3", "c");
  net_.set_link_partitioned("node1", "node3", true);
  net_.set_link_partitioned("node2", "node3", true);
  sim_.run_for(milliseconds(200));

  // a and b still exchange totally-ordered messages.
  std::vector<std::string> got;
  auto recv = [](GcClient& gc, std::vector<std::string>& out) -> sim::Task<void> {
    for (;;) {
      auto ev = co_await gc.next_event(milliseconds(50));
      if (!ev || !ev.value()) co_return;
      if (ev.value()->kind == Event::Kind::kMessage) {
        out.emplace_back(ev.value()->payload.begin(), ev.value()->payload.end());
      }
    }
  };
  auto send = [](GcClient& gc) -> sim::Task<void> {
    Bytes msg{'o', 'k'};
    (void)co_await gc.multicast("grp", msg);
  };
  sim_.spawn(recv(*b.gc, got));
  sim_.spawn(send(*a.gc));
  sim_.run_for(milliseconds(200));
  ASSERT_GE(got.size(), 1u);
  EXPECT_EQ(got[0], "ok");
  (void)c;
}

TEST_F(PartitionWorld, HealedLinkStopsDropping) {
  const auto before = net_.messages_dropped();
  net_.set_link_partitioned("node1", "node2", true);
  net_.set_link_partitioned("node1", "node2", false);
  auto a = make_member("node1", "a2");
  auto b = make_member("node2", "b2");
  sim_.run_for(milliseconds(50));
  // Views propagated across the healed link; nothing dropped after healing.
  EXPECT_EQ(net_.messages_dropped(), before);
  EXPECT_EQ(daemons_[1]->group_members("grp"),
            (std::vector<std::string>{"a2", "b2"}));
  (void)a;
  (void)b;
}

void PartitionWorld::expelled_daemon_rejoins_after_heal() {
  auto a = make_member("node1", "a");
  auto c = make_member("node3", "c");
  const std::uint64_t v0 = daemons_[0]->view_id("grp");

  // Isolate node3 until the mesh expels its daemon (and member "c")...
  net_.set_link_partitioned("node1", "node3", true);
  net_.set_link_partitioned("node2", "node3", true);
  sim_.run_for(milliseconds(200));
  const std::uint64_t v1 = daemons_[0]->view_id("grp");
  ASSERT_EQ(daemons_[0]->group_members("grp"),
            (std::vector<std::string>{"a"}));
  EXPECT_GT(v1, v0);

  // ...then heal. The expelled daemon's probe loop re-dials the sequencer,
  // rejoins, receives a state sync, and resubmits its local member.
  net_.set_link_partitioned("node1", "node3", false);
  net_.set_link_partitioned("node2", "node3", false);
  sim_.run_for(milliseconds(400));  // probe backoff base 20ms, capped

  EXPECT_GE(daemons_[2]->rejoins(), 1u);
  EXPECT_EQ(daemons_[0]->group_members("grp"),
            (std::vector<std::string>{"a", "c"}));
  EXPECT_EQ(daemons_[2]->group_members("grp"),
            (std::vector<std::string>{"a", "c"}));
  // The rejoin produced a genuinely new view, not a replay of an old one.
  const std::uint64_t v2 = daemons_[0]->view_id("grp");
  EXPECT_GT(v2, v1);

  // Later traffic reaches the adopted group state, not the discarded one.
  std::vector<std::string> got_c;
  auto recv = [](GcClient& gc, std::vector<std::string>& out) -> sim::Task<void> {
    for (;;) {
      auto ev = co_await gc.next_event(milliseconds(100));
      if (!ev || !ev.value()) co_return;
      if (ev.value()->kind == Event::Kind::kMessage) {
        out.emplace_back(ev.value()->payload.begin(), ev.value()->payload.end());
      }
    }
  };
  auto send = [](GcClient& gc) -> sim::Task<void> {
    Bytes msg{'h', 'i'};
    (void)co_await gc.multicast("grp", msg);
  };
  sim_.spawn(recv(*c.gc, got_c));
  sim_.spawn(send(*a.gc));
  sim_.run_for(milliseconds(200));
  EXPECT_EQ(got_c, (std::vector<std::string>{"hi"}));

  // "c" is homed at the rejoined daemon, whose group state the state sync
  // replaced: the client's death still submits its leave there.
  c.proc->kill();
  sim_.run_for(milliseconds(50));
  for (const auto& d : daemons_) {
    EXPECT_EQ(d->group_members("grp"), (std::vector<std::string>{"a"}))
        << "daemon " << d->id();
  }
}

TEST_F(PartitionWorld, ExpelledDaemonRejoinsAfterHeal) {
  expelled_daemon_rejoins_after_heal();
}

TEST_F(ScaledPartitionWorld, ExpelledDaemonRejoinsAfterHeal) {
  // The state sync replaces the rejoiner's whole group table while its
  // interned group slots point into it; later traffic must reach the
  // adopted state, not the discarded one.
  expelled_daemon_rejoins_after_heal();
}

TEST_F(PartitionWorld, RejoinProbesBackOff) {
  auto a = make_member("node1", "a");
  auto c = make_member("node3", "c");
  // Permanent full isolation: node3's daemon keeps probing but never gets
  // through. Probe spacing must grow (exponential backoff, capped), so a
  // long outage costs O(log) probes, not a probe per heartbeat.
  net_.set_link_partitioned("node1", "node3", true);
  net_.set_link_partitioned("node2", "node3", true);
  sim_.run_for(milliseconds(800));

  const auto& probes = daemons_[2]->rejoin_probe_times();
  ASSERT_GE(probes.size(), 3u);
  Duration prev = probes[1] - probes[0];
  for (std::size_t i = 2; i < probes.size(); ++i) {
    const Duration gap = probes[i] - probes[i - 1];
    EXPECT_GE(gap, prev) << "probe " << i;
    prev = gap;
  }
  EXPECT_GT(probes.back() - probes[probes.size() - 2], probes[1] - probes[0]);
  EXPECT_EQ(daemons_[2]->rejoins(), 0u);
  (void)a;
  (void)c;
}

TEST_F(PartitionWorld, ThreeWaySplitFullHealQuiesces) {
  auto a = make_member("node1", "a");
  auto b = make_member("node2", "b");
  auto c = make_member("node3", "c");
  ASSERT_EQ(daemons_[0]->group_members("grp"),
            (std::vector<std::string>{"a", "b", "c"}));

  // Split the mesh into three singleton islands; each daemon expels the
  // other two and shrinks "grp" to its local member.
  net_.set_link_partitioned("node1", "node2", true);
  net_.set_link_partitioned("node1", "node3", true);
  net_.set_link_partitioned("node2", "node3", true);
  sim_.run_for(milliseconds(300));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(daemons_[i]->group_members("grp").size(), 1u) << "daemon " << i;
  }

  // Heal everything at once. Rejoin arbitration used to converge only
  // pairwise; the heal loop must now iterate until all three daemons share
  // one view again.
  net_.set_link_partitioned("node1", "node2", false);
  net_.set_link_partitioned("node1", "node3", false);
  net_.set_link_partitioned("node2", "node3", false);
  sim_.run_for(milliseconds(1500));

  const auto members = daemons_[0]->group_members("grp");
  EXPECT_EQ(members.size(), 3u);
  for (const char* name : {"a", "b", "c"}) {
    EXPECT_NE(std::find(members.begin(), members.end(), name), members.end())
        << name;
  }
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_EQ(daemons_[i]->group_members("grp"), members) << "daemon " << i;
    EXPECT_EQ(daemons_[i]->view_id("grp"), daemons_[0]->view_id("grp"))
        << "daemon " << i;
  }
  // Every link healed for real: nobody is left running bridged.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(daemons_[i]->missing_links().empty()) << "daemon " << i;
  }
  (void)a;
  (void)b;
  (void)c;
}

TEST_F(PartitionWorld, ThreeWayChainHealBridgesUnreachableIsland) {
  auto a = make_member("node1", "a");
  auto b = make_member("node2", "b");
  auto c = make_member("node3", "c");
  net_.set_link_partitioned("node1", "node2", true);
  net_.set_link_partitioned("node1", "node3", true);
  net_.set_link_partitioned("node2", "node3", true);
  sim_.run_for(milliseconds(300));

  // Heal only the chain node1-node2 and node2-node3; node1-node3 stays
  // cut. The sequencer (daemon 0) cannot reach daemon 2 directly, yet all
  // three views must converge: daemon 1 bridges ordered traffic.
  net_.set_link_partitioned("node1", "node2", false);
  net_.set_link_partitioned("node2", "node3", false);
  sim_.run_for(milliseconds(2500));

  const auto members = daemons_[0]->group_members("grp");
  EXPECT_EQ(members.size(), 3u);
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_EQ(daemons_[i]->group_members("grp"), members) << "daemon " << i;
    EXPECT_EQ(daemons_[i]->view_id("grp"), daemons_[0]->view_id("grp"))
        << "daemon " << i;
  }
  // The endpoints of the still-cut link run bridged through daemon 1.
  EXPECT_TRUE(daemons_[2]->missing_links().contains(0));
  EXPECT_TRUE(daemons_[1]->bridging_for(2));

  // End-to-end total order across the bridge: a (sequencer island) and c
  // (bridged island) both multicast; both receive both messages.
  std::vector<std::string> got_a;
  std::vector<std::string> got_c;
  auto recv = [](GcClient& gc, std::vector<std::string>& out) -> sim::Task<void> {
    for (;;) {
      auto ev = co_await gc.next_event(milliseconds(100));
      if (!ev || !ev.value()) co_return;
      if (ev.value()->kind == Event::Kind::kMessage) {
        out.emplace_back(ev.value()->payload.begin(), ev.value()->payload.end());
      }
    }
  };
  auto send = [](GcClient& gc, const char* text) -> sim::Task<void> {
    Bytes msg(text, text + 2);
    (void)co_await gc.multicast("grp", msg);
  };
  sim_.spawn(recv(*a.gc, got_a));
  sim_.spawn(recv(*c.gc, got_c));
  sim_.spawn(send(*a.gc, "m1"));
  sim_.spawn(send(*c.gc, "m2"));
  sim_.run_for(milliseconds(400));
  EXPECT_EQ(got_a.size(), 2u);
  EXPECT_EQ(got_c.size(), 2u);
  EXPECT_EQ(got_a, got_c);  // same total order on both sides of the cut
  (void)b;
}

TEST_F(PartitionWorld, ConnectAcrossPartitionTimesOut) {
  net_.set_link_partitioned("node1", "node2", true);
  auto proc = net_.spawn_process("node1", "dialer");
  bool timed_out = false;
  auto dial = [](net::Process& p, bool& flag) -> sim::Task<void> {
    auto fd = co_await p.api().connect(net::Endpoint{"node2", kDefaultDaemonPort});
    flag = !fd.ok() && fd.error() == net::NetErr::kTimeout;
  };
  sim_.spawn(dial(*proc, timed_out));
  sim_.run_for(milliseconds(200));
  EXPECT_TRUE(timed_out);
}

}  // namespace
}  // namespace mead::gc

// Scaled-GC-plane suite (ctest -L scale): sharded sequencers, interest-
// scoped delivery, and batched mesh writes, exercised through the same
// client-visible API the legacy plane serves. The total-order contract is
// per group — every member of a group delivers the same messages in the
// same order — and must hold across shard-owner crashes and takeovers.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "gc_fixture.h"

namespace mead::gc {
namespace {

struct Delivery {
  std::string sender;
  std::string body;
  std::uint64_t seq;
};

/// Joins `group`, waits for `barrier` members, sends `messages` multicasts
/// interleaved with receives, then drains (same shape as ordering_test).
sim::Task<void> chatty_member(net::Process& proc, GcClient& gc,
                              std::string group, int barrier, int messages,
                              std::vector<Delivery>& log) {
  (void)co_await gc.join(group);
  std::size_t view_size = 0;
  auto handle = [&](Event& ev) {
    if (ev.kind == Event::Kind::kMessage && ev.group == group) {
      log.push_back(Delivery{ev.sender,
                             std::string(ev.payload.begin(), ev.payload.end()),
                             ev.seq});
    } else if (ev.kind == Event::Kind::kView && ev.group == group) {
      view_size = ev.view.members.size();
    }
  };
  while (view_size < static_cast<std::size_t>(barrier)) {
    auto ev = co_await gc.next_event(milliseconds(200));
    if (!ev || !ev.value()) co_return;
    handle(*ev.value());
  }
  for (int i = 0; i < messages; ++i) {
    std::string body = gc.name() + "#" + std::to_string(i);
    (void)co_await gc.multicast(group, Bytes(body.begin(), body.end()));
    auto ev = co_await gc.next_event(Duration{0});
    while (ev && ev.value()) {
      handle(*ev.value());
      ev = co_await gc.next_event(Duration{0});
    }
    if (!ev) co_return;
    if (!proc.alive()) co_return;
  }
  for (;;) {
    auto ev = co_await gc.next_event(milliseconds(200));
    if (!ev || !ev.value()) co_return;
    handle(*ev.value());
  }
}

/// Asserts two members of one group saw identical (body, per-group order).
void expect_same_order(const std::vector<Delivery>& a,
                       const std::vector<Delivery>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    ASSERT_EQ(a[k].body, b[k].body) << "divergence at position " << k;
  }
}

/// FNV-1a of a group name reduced over the full 5-daemon alive set: the
/// stamper every daemon computes while none has died.
std::size_t stamper_of(const std::string& group) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : group) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h % 5);
}

class ShardedWorld : public GcWorld {
 protected:
  ShardedWorld() : GcWorld(5, 99, PlaneOptions::scaled()) {}

  [[nodiscard]] std::uint64_t counter(const std::string& name) const {
    return sim_.obs().metrics().counter_value(name);
  }
};

TEST_F(ShardedWorld, StampingSpreadsAcrossDaemons) {
  // Enough distinct groups that FNV-1a lands on more than one daemon.
  constexpr int kGroups = 12;
  std::vector<ClientHandle> clients;
  std::vector<std::vector<Delivery>> logs(kGroups);
  for (int g = 0; g < kGroups; ++g) {
    const std::string group = "shard-g" + std::to_string(g);
    clients.push_back(make_client(hosts_[static_cast<std::size_t>(g) % 5],
                                  "m" + std::to_string(g)));
    sim_.spawn(chatty_member(*clients.back().proc, *clients.back().gc, group,
                             1, 5, logs[static_cast<std::size_t>(g)]));
  }
  sim_.run_for(seconds(5));
  std::uint64_t stamped_total = 0;
  int stampers = 0;
  for (int d = 0; d < 5; ++d) {
    const std::uint64_t n =
        counter("gc.shard." + std::to_string(d) + ".stamped");
    stamped_total += n;
    if (n > 0) ++stampers;
  }
  // Every group's join + leave-free traffic was stamped somewhere, and the
  // hash spread the stamping role past a single daemon.
  EXPECT_GT(stamped_total, 0u);
  EXPECT_GT(stampers, 1) << "all groups hashed onto one stamper";
  for (int g = 0; g < kGroups; ++g) {
    EXPECT_EQ(logs[static_cast<std::size_t>(g)].size(), 5u) << "group " << g;
  }
}

TEST_F(ShardedWorld, SameTotalOrderPerGroup) {
  constexpr int kMembers = 5;
  constexpr int kMessages = 20;
  std::vector<ClientHandle> clients;
  std::vector<std::vector<Delivery>> logs(kMembers);
  for (int i = 0; i < kMembers; ++i) {
    clients.push_back(make_client(hosts_[static_cast<std::size_t>(i)],
                                  "m" + std::to_string(i)));
  }
  for (int i = 0; i < kMembers; ++i) {
    sim_.spawn(chatty_member(*clients[static_cast<std::size_t>(i)].proc,
                             *clients[static_cast<std::size_t>(i)].gc, "room",
                             kMembers, kMessages,
                             logs[static_cast<std::size_t>(i)]));
  }
  sim_.run_for(seconds(10));
  const std::size_t expected = kMembers * kMessages;
  ASSERT_EQ(logs[0].size(), expected);
  for (int i = 1; i < kMembers; ++i) {
    expect_same_order(logs[static_cast<std::size_t>(i)], logs[0]);
  }
}

TEST_F(ShardedWorld, ShardOwnerCrashKeepsPerGroupOrderContinuous) {
  // Find a group whose stamper is NOT daemon 0 by name search, then crash
  // that owner mid-stream: the hash reassigns the group, the watermark
  // floor keeps new stamps above old ones, and both surviving members
  // still deliver every message exactly once in one order.
  std::string group;
  std::size_t owner = 0;
  for (int i = 0;; ++i) {
    group = "crashy-" + std::to_string(i);
    owner = stamper_of(group);
    if (owner != 0) break;  // keep daemon 0 (and its clients) alive
  }
  // Clients on daemons != owner so they survive the crash.
  const std::string host_a = hosts_[owner == 1 ? 2 : 1];
  const std::string host_b = hosts_[owner == 3 ? 4 : 3];
  auto a = make_client(host_a, "a");
  auto b = make_client(host_b, "b");
  std::vector<Delivery> log_a;
  std::vector<Delivery> log_b;
  sim_.spawn(chatty_member(*a.proc, *a.gc, group, 2, 15, log_a));
  sim_.spawn(chatty_member(*b.proc, *b.gc, group, 2, 15, log_b));
  sim_.schedule(milliseconds(30), [&] { daemon_procs_[owner]->kill(); });
  sim_.run_for(seconds(10));

  // No loss, no duplicates, identical per-group order on both members.
  ASSERT_EQ(log_a.size(), 30u);
  expect_same_order(log_a, log_b);
  std::set<std::string> bodies;
  for (const auto& d : log_a) EXPECT_TRUE(bodies.insert(d.body).second)
      << "duplicate delivery " << d.body;
  // Sender FIFO held through the takeover.
  int last_a = -1;
  for (const auto& d : log_a) {
    if (d.sender != "a") continue;
    const int idx = std::stoi(d.body.substr(d.body.find('#') + 1));
    EXPECT_GT(idx, last_a);
    last_a = idx;
  }
  EXPECT_EQ(last_a, 14);
}

TEST_F(ShardedWorld, BatchingCoalescesMeshWrites) {
  auto a = make_client("node1", "a");
  auto b = make_client("node2", "b");
  std::vector<Delivery> log_a;
  std::vector<Delivery> log_b;
  sim_.spawn(chatty_member(*a.proc, *a.gc, "room", 2, 25, log_a));
  sim_.spawn(chatty_member(*b.proc, *b.gc, "room", 2, 25, log_b));
  sim_.run_for(seconds(5));
  ASSERT_EQ(log_a.size(), 50u);
  expect_same_order(log_a, log_b);
  // The mesh carried batched frames and some of them coalesced >1 frame
  // into one wire write.
  EXPECT_GT(counter("gc.batch.frames"), 0u);
  EXPECT_GT(counter("gc.batch.coalesced"), 0u);
}

/// Joins every group in `groups`, then drains events until 300 ms pass
/// with none, logging each delivered body per group.
sim::Task<void> multi_group_member(GcClient& gc, std::vector<std::string> groups,
                                   std::map<std::string, std::vector<std::string>>& log) {
  for (const auto& g : groups) (void)co_await gc.join(g);
  for (;;) {
    auto ev = co_await gc.next_event(milliseconds(300));
    if (!ev || !ev.value()) co_return;
    if (ev.value()->kind == Event::Kind::kMessage) {
      log[ev.value()->group].emplace_back(ev.value()->payload.begin(),
                                          ev.value()->payload.end());
    }
  }
}

TEST_F(ShardedWorld, CrossGroupMessagesFromOneOriginAreEachDeliveredOnce) {
  // The sender's daemon stamps "near" itself, while "far" is stamped by
  // another daemon: a near message takes one hop to the receivers, the far
  // message submitted just before it takes two (plus a batch delay). So the
  // origin's msg ids arrive inverted across the two groups, and a single
  // per-origin high-water mark would drop the older far message.
  constexpr std::size_t kSender = 1;
  constexpr int kRounds = 20;
  std::string near;
  std::string far;
  for (int i = 0; near.empty() || far.empty(); ++i) {
    const std::string g = "pair-" + std::to_string(i);
    const std::size_t owner = stamper_of(g);
    if (owner == kSender && near.empty()) near = g;
    if (owner != kSender && owner != 0 && far.empty()) far = g;
  }
  const std::size_t receiver_host = stamper_of(far) == 4 ? 3 : 4;
  auto s = make_client(hosts_[kSender], "s");
  auto r = make_client(hosts_[receiver_host], "r");
  std::map<std::string, std::vector<std::string>> log_s;
  std::map<std::string, std::vector<std::string>> log_r;
  sim_.spawn(multi_group_member(*s.gc, {near, far}, log_s));
  sim_.spawn(multi_group_member(*r.gc, {near, far}, log_r));
  sim_.run_for(milliseconds(50));
  ASSERT_EQ(daemons_[receiver_host]->group_members(far).size(), 2u);

  // Alternate far, near, far, near, ... back to back, never waiting for a
  // delivery in between.
  auto blast = [](GcClient& gc, std::string far_g,
                  std::string near_g) -> sim::Task<void> {
    for (int i = 0; i < kRounds; ++i) {
      for (const auto& g : {far_g, near_g}) {
        const std::string body = g + "#" + std::to_string(i);
        (void)co_await gc.multicast(g, Bytes(body.begin(), body.end()));
      }
    }
  };
  sim_.spawn(blast(*s.gc, far, near));
  sim_.run_for(milliseconds(200));

  for (const auto* log : {&log_s, &log_r}) {
    for (const auto& g : {near, far}) {
      const auto it = log->find(g);
      ASSERT_NE(it, log->end()) << g;
      std::vector<std::string> want;
      for (int i = 0; i < kRounds; ++i) want.push_back(g + "#" + std::to_string(i));
      EXPECT_EQ(it->second, want) << g << " lost, duplicated or reordered";
    }
  }

  // Inject kOrdered frames straight into the receiver's daemon. A fresh id
  // is delivered once; the same frame again is a duplicate and dropped, as
  // is a stale id. A lower id than the one just applied to `far` is still
  // fresh in `near`: the marks are per (group, origin).
  //
  // Ordered frames are accepted only on peer links, so the injector poses
  // as daemon 0: it stamps neither group and hosts no member, so killing it
  // first orders nothing, and the receiver takes the impostor's hello as
  // daemon 0 coming back rather than superseding a live link.
  daemon_procs_[0]->kill();
  sim_.run_for(milliseconds(20));
  auto inject = [](net::Process& p, std::string host,
                   std::vector<OrderedMsg> msgs) -> sim::Task<void> {
    auto fd = co_await p.api().connect(net::Endpoint{host, kDefaultDaemonPort});
    if (!fd) co_return;
    (void)co_await p.api().writev(fd.value(), encode_peer_hello(PeerHelloMsg{0}));
    for (const auto& m : msgs) {
      (void)co_await p.api().writev(fd.value(), encode_ordered(m));
    }
  };
  auto ordered = [&](const std::string& group, std::uint64_t msg_id,
                     const std::string& body) {
    OrderedMsg m;
    m.seq = 1u << 20;
    m.origin = kSender;
    m.msg_id = msg_id;
    m.group = group;
    m.member = "s";
    m.payload = Bytes(body.begin(), body.end());
    return m;
  };
  const std::uint64_t applied_before =
      daemons_[receiver_host]->messages_delivered();
  auto injector = net_.spawn_process(hosts_[receiver_host], "injector");
  sim_.spawn(inject(*injector, hosts_[receiver_host],
                    {ordered(far, 1'000'000, "fresh"),
                     ordered(far, 1'000'000, "duplicate"),
                     ordered(far, 1, "stale"),
                     ordered(near, 999'999, "other-group"),
                     ordered(near, 999'999, "duplicate")}));
  sim_.run_for(milliseconds(200));
  EXPECT_EQ(daemons_[receiver_host]->messages_delivered(), applied_before + 2);
  ASSERT_EQ(log_r[far].size(), kRounds + 1u);
  EXPECT_EQ(log_r[far].back(), "fresh");
  ASSERT_EQ(log_r[near].size(), kRounds + 1u);
  EXPECT_EQ(log_r[near].back(), "other-group");
}

// A standalone (non-TEST_F) world so one test can run the same workload on
// both planes and compare them. GcWorld is a gtest fixture, so give it the
// TestBody the macro would normally supply.
struct ComparableWorld : GcWorld {
  explicit ComparableWorld(PlaneOptions plane) : GcWorld(5, 7, plane) {}
  void TestBody() override {}

  [[nodiscard]] const GcDaemon& daemon(std::size_t i) const {
    return *daemons_[i];
  }

  /// Two-member group "duo" on node1/node2, 30 messages each; returns
  /// gc.frames moved.
  std::uint64_t run_duo() {
    auto a = make_client("node1", "a");
    auto b = make_client("node2", "b");
    std::vector<Delivery> log_a;
    std::vector<Delivery> log_b;
    sim_.spawn(chatty_member(*a.proc, *a.gc, "duo", 2, 30, log_a));
    sim_.spawn(chatty_member(*b.proc, *b.gc, "duo", 2, 30, log_b));
    sim_.run_for(seconds(5));
    EXPECT_EQ(log_a.size(), 60u);
    expect_same_order(log_a, log_b);
    return sim_.obs().metrics().counter_value("gc.frames");
  }
};

TEST(InterestScopingTest, CutsFramesVsBroadcastForSameWorkload) {
  // Interest scoping pays off when daemons host nobody from the group:
  // a 5-daemon world where only two daemons have members. Same seed and
  // workload on both planes; the scaled plane must move fewer daemon wire
  // frames while delivering the same messages in the same order.
  ComparableWorld scaled(PlaneOptions::scaled());
  ComparableWorld legacy({});
  const std::uint64_t scaled_frames = scaled.run_duo();
  const std::uint64_t bcast_frames = legacy.run_duo();
  EXPECT_LT(scaled_frames, bcast_frames)
      << "the scaled plane moved no fewer frames than full broadcast";
  // Batching cuts frames too, so check the scoping itself: a daemon that
  // hosts no member of duo and does not stamp it applies every membership
  // frame (it knows the view) and none of the 60 data messages. The legacy
  // plane applies everything everywhere.
  ASSERT_EQ(scaled.daemon(0).group_members("duo").size(), 2u);
  for (std::size_t d = 2; d < 5; ++d) {
    if (d == stamper_of("duo")) continue;
    EXPECT_EQ(scaled.daemon(d).group_members("duo"),
              scaled.daemon(0).group_members("duo"));
    EXPECT_EQ(scaled.daemon(d).messages_delivered() + 60,
              scaled.daemon(0).messages_delivered())
        << "daemon " << d;
    EXPECT_EQ(legacy.daemon(d).messages_delivered(),
              legacy.daemon(0).messages_delivered())
        << "daemon " << d;
  }
}

}  // namespace
}  // namespace mead::gc

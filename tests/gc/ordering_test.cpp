// Property tests for the total-order guarantee: every member of a group
// delivers the same messages in the same order, regardless of which node
// each sender/receiver sits on.
#include <gtest/gtest.h>

#include <map>
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

class OrderingWorld : public GcWorld {
 protected:
  OrderingWorld() : GcWorld(5, 99) {}  // five nodes, like the paper's testbed
};

/// Joins "room", waits until the view holds `barrier` members, then sends
/// `messages` multicasts while logging every delivered message. Keeps
/// draining until a long quiet period.
sim::Task<void> chatty_member(net::Process& proc, GcClient& gc, int barrier,
                              int messages, std::vector<Delivery>& log) {
  (void)co_await gc.join("room");
  std::size_t view_size = 0;
  auto handle = [&](Event& ev) {
    if (ev.kind == Event::Kind::kMessage && ev.group == "room") {
      log.push_back(Delivery{
          ev.sender, std::string(ev.payload.begin(), ev.payload.end()), ev.seq});
    } else if (ev.kind == Event::Kind::kView && ev.group == "room") {
      view_size = ev.view.members.size();
    }
  };
  // Barrier: wait for full membership.
  while (view_size < static_cast<std::size_t>(barrier)) {
    auto ev = co_await gc.next_event(milliseconds(200));
    if (!ev || !ev.value()) co_return;  // error/timeout: bail (test will fail)
    handle(*ev.value());
  }
  // Send phase, interleaved with receives.
  for (int i = 0; i < messages; ++i) {
    std::string body = gc.name() + "#" + std::to_string(i);
    (void)co_await gc.multicast("room", Bytes(body.begin(), body.end()));
    auto ev = co_await gc.next_event(Duration{0});
    while (ev && ev.value()) {
      handle(*ev.value());
      ev = co_await gc.next_event(Duration{0});
    }
    if (!ev) co_return;
    if (!proc.alive()) co_return;
  }
  // Drain phase.
  for (;;) {
    auto ev = co_await gc.next_event(milliseconds(200));
    if (!ev || !ev.value()) co_return;
    handle(*ev.value());
  }
}

TEST_F(OrderingWorld, AllMembersDeliverSameTotalOrder) {
  constexpr int kMembers = 5;
  constexpr int kMessages = 20;
  std::vector<ClientHandle> clients;
  std::vector<std::vector<Delivery>> logs(kMembers);
  for (int i = 0; i < kMembers; ++i) {
    std::string name = "m";  // appended: GCC 12 warns on "m" + string
    name += std::to_string(i);
    clients.push_back(make_client(hosts_[static_cast<std::size_t>(i)], name));
  }
  for (int i = 0; i < kMembers; ++i) {
    sim_.spawn(chatty_member(*clients[static_cast<std::size_t>(i)].proc,
                             *clients[static_cast<std::size_t>(i)].gc, kMembers,
                             kMessages, logs[static_cast<std::size_t>(i)]));
  }
  sim_.run_for(seconds(10));

  // Everyone joined before anyone sent, so every member delivers all
  // kMembers * kMessages messages in the same global order.
  const std::size_t expected = kMembers * kMessages;
  ASSERT_EQ(logs[0].size(), expected);
  for (int i = 1; i < kMembers; ++i) {
    const auto& log = logs[static_cast<std::size_t>(i)];
    ASSERT_EQ(log.size(), expected) << "member " << i;
    for (std::size_t k = 0; k < expected; ++k) {
      ASSERT_EQ(log[k].body, logs[0][k].body)
          << "divergence at position " << k << " for member " << i;
      ASSERT_EQ(log[k].seq, logs[0][k].seq);
    }
  }
}

TEST_F(OrderingWorld, SequenceNumbersStrictlyIncreasePerReceiver) {
  auto a = make_client("node1", "a");
  auto b = make_client("node2", "b");
  std::vector<Delivery> log_a;
  std::vector<Delivery> log_b;
  sim_.spawn(chatty_member(*a.proc, *a.gc, 2, 30, log_a));
  sim_.spawn(chatty_member(*b.proc, *b.gc, 2, 30, log_b));
  sim_.run_for(seconds(5));
  ASSERT_EQ(log_a.size(), 60u);
  for (std::size_t i = 1; i < log_a.size(); ++i) {
    EXPECT_GT(log_a[i].seq, log_a[i - 1].seq);
  }
}

TEST_F(OrderingWorld, SenderFifoPreserved) {
  auto a = make_client("node1", "a");
  auto b = make_client("node5", "b");
  std::vector<Delivery> log_a;
  std::vector<Delivery> log_b;
  sim_.spawn(chatty_member(*a.proc, *a.gc, 2, 25, log_a));
  sim_.spawn(chatty_member(*b.proc, *b.gc, 2, 0, log_b));
  sim_.run_for(seconds(5));
  // b received a's messages in a's send order.
  int last = -1;
  for (const auto& d : log_b) {
    if (d.sender != "a") continue;
    const int idx = std::stoi(d.body.substr(d.body.find('#') + 1));
    EXPECT_GT(idx, last);
    last = idx;
  }
  EXPECT_EQ(last, 24);
}

TEST_F(OrderingWorld, LateJoinerMissesEarlierMessages) {
  // View changes are totally ordered with messages: a member that joins
  // later must not see messages ordered before its join.
  auto a = make_client("node1", "early");
  std::vector<Delivery> early_log;
  sim_.spawn(chatty_member(*a.proc, *a.gc, 1, 10, early_log));
  sim_.run_for(milliseconds(500));

  auto b = make_client("node2", "late");
  std::vector<Delivery> late_log;
  sim_.spawn(chatty_member(*b.proc, *b.gc, 1, 0, late_log));
  sim_.run_for(seconds(1));
  for (const auto& d : late_log) {
    EXPECT_NE(d.sender, "early");
  }
}

TEST_F(OrderingWorld, TotalOrderSurvivesNonSequencerDaemonCrash) {
  auto a = make_client("node2", "a");
  auto b = make_client("node3", "b");
  std::vector<Delivery> log_a;
  std::vector<Delivery> log_b;
  sim_.spawn(chatty_member(*a.proc, *a.gc, 2, 15, log_a));
  sim_.spawn(chatty_member(*b.proc, *b.gc, 2, 15, log_b));
  // Crash an uninvolved daemon mid-run.
  sim_.schedule(milliseconds(20), [&] { daemon_procs_[4]->kill(); });
  sim_.run_for(seconds(5));
  ASSERT_EQ(log_a.size(), 30u);
  ASSERT_EQ(log_b.size(), 30u);
  for (std::size_t k = 0; k < log_a.size(); ++k) {
    EXPECT_EQ(log_a[k].body, log_b[k].body);
  }
}

}  // namespace
}  // namespace mead::gc

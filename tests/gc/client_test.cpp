// GcClient API surface: pump() after select() readiness (the paper's §3.1
// integration pattern), buffered events, reply-group addressing, error
// surfacing on daemon loss.
#include <gtest/gtest.h>

#include "gc_fixture.h"

namespace mead::gc {
namespace {

class GcClientTest : public GcWorld {};

TEST_F(GcClientTest, SelectPlusPumpDrainsEventsWithoutBlocking) {
  // The §3.1 pattern: the interceptor adds the GC socket to select() and
  // drains it with a non-blocking pump when readable.
  auto a = make_client("node1", "selector");
  auto b = make_client("node2", "talker");
  std::vector<std::string> seen;

  auto selector = [](net::Process& p, GcClient& gc,
                     std::vector<std::string>& out) -> sim::Task<void> {
    (void)co_await gc.join("grp");
    for (int rounds = 0; rounds < 50; ++rounds) {
      std::vector<int> watched{gc.fd()};
      auto ready = co_await p.api().select(watched, milliseconds(10));
      if (!ready) co_return;
      if (ready->empty()) continue;  // timeout tick
      auto pumped = co_await gc.pump();
      if (!pumped) co_return;
      while (auto ev = gc.pop_buffered()) {
        if (ev->kind == Event::Kind::kMessage) {
          out.emplace_back(ev->payload.begin(), ev->payload.end());
        }
      }
      if (!out.empty()) co_return;
    }
  };
  auto talker = [](net::Process& p, GcClient& gc) -> sim::Task<void> {
    const bool alive = co_await p.sleep(milliseconds(15));
    if (!alive) co_return;
    Bytes msg{'v', 'i', 'a', '-', 's', 'e', 'l', 'e', 'c', 't'};
    (void)co_await gc.multicast("grp", std::move(msg));
  };
  sim_.spawn(selector(*a.proc, *a.gc, seen));
  sim_.spawn(talker(*b.proc, *b.gc));
  sim_.run_for(milliseconds(500));
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "via-select");
}

TEST_F(GcClientTest, PumpWithNothingPendingReturnsZero) {
  auto a = make_client("node1", "idle");
  std::size_t pumped = 1;
  auto run = [](GcClient& gc, std::size_t& out) -> sim::Task<void> {
    // Drain whatever arrived during connect (reply-group view), then pump
    // an idle socket.
    for (;;) {
      auto n = co_await gc.pump();
      if (!n) co_return;
      while (gc.pop_buffered()) {
      }
      if (n.value() == 0) break;
    }
    auto n = co_await gc.pump();
    if (n) out = n.value();
  };
  sim_.spawn(run(*a.gc, pumped));
  sim_.run_for(milliseconds(50));
  EXPECT_EQ(pumped, 0u);
}

TEST_F(GcClientTest, NextEventSurfacesErrorWhenDaemonDies) {
  auto a = make_client("node1", "orphan");
  bool error_seen = false;
  auto run = [](GcClient& gc, bool& out) -> sim::Task<void> {
    for (;;) {
      auto ev = co_await gc.next_event(milliseconds(200));
      if (!ev) {
        out = true;  // daemon connection lost
        co_return;
      }
      if (!ev.value()) co_return;  // timeout (should not happen first)
    }
  };
  sim_.spawn(run(*a.gc, error_seen));
  sim_.schedule(milliseconds(20), [&] { daemon_procs_[0]->kill(); });
  sim_.run_for(milliseconds(300));
  EXPECT_TRUE(error_seen);
}

TEST_F(GcClientTest, SendToUnknownMemberIsSilentlyDropped) {
  auto a = make_client("node1", "sender");
  bool sent = false;
  auto run = [](GcClient& gc, bool& out) -> sim::Task<void> {
    Bytes msg{'?'};
    out = co_await gc.send_to("nobody-home", std::move(msg));
  };
  sim_.spawn(run(*a.gc, sent));
  sim_.run_for(milliseconds(50));
  EXPECT_TRUE(sent);  // fire-and-forget succeeds; nobody receives it
}

TEST_F(GcClientTest, WaitForViewSetsAsideOtherEvents) {
  auto a = make_client("node1", "m1");
  auto b = make_client("node2", "m2");
  std::optional<View> view;
  std::vector<std::string> messages_after;

  auto run = [](GcClient& gc, std::optional<View>& v,
                std::vector<std::string>& msgs) -> sim::Task<void> {
    (void)co_await gc.join("grp");
    // m2's message may arrive before grp's view: wait_for_view must stash
    // it, not lose it.
    v = co_await gc.wait_for_view("grp", milliseconds(200));
    for (;;) {
      auto ev = co_await gc.next_event(milliseconds(100));
      if (!ev || !ev.value()) co_return;
      if (ev.value()->kind == Event::Kind::kMessage) {
        msgs.emplace_back(ev.value()->payload.begin(), ev.value()->payload.end());
      }
    }
  };
  auto chat = [](GcClient& gc) -> sim::Task<void> {
    (void)co_await gc.join("grp");
    Bytes msg{'h', 'i'};
    (void)co_await gc.multicast("grp", std::move(msg));
  };
  sim_.spawn(run(*a.gc, view, messages_after));
  sim_.spawn(chat(*b.gc));
  sim_.run_for(milliseconds(500));
  ASSERT_TRUE(view.has_value());
  EXPECT_TRUE(view->contains("m1"));
  ASSERT_EQ(messages_after.size(), 1u);
  EXPECT_EQ(messages_after[0], "hi");
}

TEST_F(GcClientTest, EventPayloadOutlivesRefeedsAndTheClient) {
  // A message event views the frame it arrived in, so its payload stays
  // valid while the client's framer is refed with later traffic, and after
  // the client itself is gone.
  auto a = make_client("node1", "keeper");
  auto b = make_client("node2", "sender");
  Bytes big(100'000);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::uint8_t>(i * 7);
  std::vector<Event> kept;

  auto keep = [](GcClient& gc, std::vector<Event>& out) -> sim::Task<void> {
    (void)co_await gc.join("grp");
    for (;;) {
      auto ev = co_await gc.next_event(milliseconds(100));
      if (!ev || !ev.value()) co_return;
      if (ev.value()->kind == Event::Kind::kMessage) out.push_back(std::move(*ev.value()));
    }
  };
  auto send = [](net::Process& p, GcClient& gc, Bytes payload) -> sim::Task<void> {
    (void)co_await gc.join("grp");
    const bool alive = co_await p.sleep(milliseconds(10));
    if (!alive) co_return;
    (void)co_await gc.multicast("grp", payload);
    for (std::uint8_t i = 0; i < 20; ++i) {
      (void)co_await gc.multicast("grp", Bytes(1, i));
    }
  };
  sim_.spawn(keep(*a.gc, kept));
  sim_.spawn(send(*b.proc, *b.gc, big));
  sim_.run_for(milliseconds(300));
  a.gc.reset();  // the client, its framer and its buffered events go
  ASSERT_EQ(kept.size(), 21u);
  EXPECT_EQ(kept[0].payload, big);
  ASSERT_TRUE(kept[0].frame.has_value());
  EXPECT_TRUE(kept[0].payload.data() >= kept[0].frame->wire().data() &&
              kept[0].payload.data() + kept[0].payload.size() <=
                  kept[0].frame->wire().data() + kept[0].frame->wire().size());
  for (std::uint8_t i = 0; i < 20; ++i) EXPECT_EQ(kept[1 + i].payload, (Bytes{i}));
  // Moving an event keeps its payload on the moved frame.
  const std::uint8_t* at = kept[0].payload.data();
  Event moved = std::move(kept[0]);
  kept.clear();
  EXPECT_EQ(moved.payload.data(), at);
  EXPECT_EQ(moved.payload, big);
  EXPECT_EQ(moved.sender, "sender");
}

}  // namespace
}  // namespace mead::gc

#include <gtest/gtest.h>

#include "orb_fixture.h"

namespace mead::orb {
namespace {

class OrbTest : public OrbWorld {};

TEST_F(OrbTest, InvokeEchoRoundTrip) {
  auto server = make_echo_server("node1", 5000);
  auto client = make_client("node2");
  std::string got;

  auto run = [](Orb& orb, giop::IOR ior, std::string& out) -> sim::Task<void> {
    Stub stub(orb, std::move(ior));
    auto r = co_await stub.invoke("echo", str_bytes("hello-corba"));
    if (r) out = bytes_str(r.value());
  };
  sim_.spawn(run(*client.orb, server.ior, got));
  sim_.run();
  EXPECT_EQ(got, "hello-corba");
  EXPECT_EQ(server.servant->calls(), 1);
  EXPECT_EQ(server.server->requests_served(), 1u);
}

TEST_F(OrbTest, RepeatedInvocationsReuseConnection) {
  auto server = make_echo_server("node1", 5000);
  auto client = make_client("node2");
  int ok = 0;

  auto run = [](Orb& orb, giop::IOR ior, int& count) -> sim::Task<void> {
    Stub stub(orb, std::move(ior));
    for (int i = 0; i < 50; ++i) {
      auto r = co_await stub.invoke("echo", str_bytes(std::to_string(i)));
      if (r && bytes_str(r.value()) == std::to_string(i)) ++count;
    }
  };
  sim_.spawn(run(*client.orb, server.ior, ok));
  sim_.run();
  EXPECT_EQ(ok, 50);
  EXPECT_EQ(net_.connections_established(), 1u);  // one TCP connection total
}

TEST_F(OrbTest, SystemExceptionPropagates) {
  auto server = make_echo_server("node1", 5000);
  auto client = make_client("node2");
  std::optional<giop::SystemException> ex;

  auto run = [](Orb& orb, giop::IOR ior,
                std::optional<giop::SystemException>& out) -> sim::Task<void> {
    Stub stub(orb, std::move(ior));
    auto r = co_await stub.invoke("fail", {});
    if (!r) out = r.error();
  };
  sim_.spawn(run(*client.orb, server.ior, ex));
  sim_.run();
  ASSERT_TRUE(ex.has_value());
  EXPECT_EQ(ex->kind, giop::SysExKind::kInternal);
  EXPECT_EQ(ex->minor, 42u);
}

TEST_F(OrbTest, UnknownObjectKeyRaisesObjectNotExist) {
  auto server = make_echo_server("node1", 5000);
  auto client = make_client("node2");
  std::optional<giop::SystemException> ex;

  auto run = [](Orb& orb, giop::IOR ior,
                std::optional<giop::SystemException>& out) -> sim::Task<void> {
    ior.key = giop::ObjectKey::make_persistent("NoSuchPOA/nothing");
    Stub stub(orb, std::move(ior));
    auto r = co_await stub.invoke("echo", {});
    if (!r) out = r.error();
  };
  sim_.spawn(run(*client.orb, server.ior, ex));
  sim_.run();
  ASSERT_TRUE(ex.has_value());
  EXPECT_EQ(ex->kind, giop::SysExKind::kObjectNotExist);
}

TEST_F(OrbTest, DeadServerYieldsCommFailure) {
  auto server = make_echo_server("node1", 5000);
  auto client = make_client("node2");
  std::optional<giop::SystemException> ex;

  auto run = [](net::Process& p, Orb& orb, giop::IOR ior,
                std::optional<giop::SystemException>& out) -> sim::Task<void> {
    Stub stub(orb, std::move(ior));
    (void)co_await stub.invoke("echo", str_bytes("warm-up"));
    {
      const bool alive_after_wait = co_await p.sleep(milliseconds(10));
      if (!alive_after_wait) co_return;
    }
    auto r = co_await stub.invoke("echo", str_bytes("doomed"));
    if (!r) out = r.error();
  };
  sim_.spawn(run(*client.proc, *client.orb, server.ior, ex));
  sim_.schedule(milliseconds(5), [&] { server.proc->kill(); });
  sim_.run();
  ASSERT_TRUE(ex.has_value());
  EXPECT_EQ(ex->kind, giop::SysExKind::kCommFailure);
}

TEST_F(OrbTest, NeverStartedServerYieldsTransient) {
  auto client = make_client("node2");
  std::optional<giop::SystemException> ex;

  auto run = [](Orb& orb, std::optional<giop::SystemException>& out)
      -> sim::Task<void> {
    giop::IOR bogus{"IDL:x:1.0", net::Endpoint{"node1", 6666},
                    giop::ObjectKey::make_persistent("X/y")};
    Stub stub(orb, std::move(bogus));
    auto r = co_await stub.invoke("echo", {});
    if (!r) out = r.error();
  };
  sim_.spawn(run(*client.orb, ex));
  sim_.run();
  ASSERT_TRUE(ex.has_value());
  EXPECT_EQ(ex->kind, giop::SysExKind::kTransient);
}

TEST_F(OrbTest, CostModelChargesRoundTripTime) {
  CostModel server_costs;
  server_costs.request_demarshal = microseconds(80);
  server_costs.servant_default = microseconds(50);
  server_costs.reply_marshal = microseconds(80);
  CostModel client_costs;
  client_costs.request_marshal = microseconds(80);
  client_costs.reply_demarshal = microseconds(80);

  auto server = make_echo_server("node1", 5000, "EchoPOA/obj", server_costs);
  auto client = make_client("node2", client_costs);
  Duration rtt{};

  auto run = [](Orb& orb, giop::IOR ior, Duration& out) -> sim::Task<void> {
    Stub stub(orb, std::move(ior));
    (void)co_await stub.invoke("echo", {});  // connection setup excluded
    const TimePoint start = orb.sim().now();
    (void)co_await stub.invoke("echo", {});
    out = orb.sim().now() - start;
  };
  sim_.spawn(run(*client.orb, server.ior, rtt));
  sim_.run();
  // 2x100us network + 370us CPU charges + per-KB cost: between 0.55 and 1 ms.
  EXPECT_GE(rtt.us(), 550.0);
  EXPECT_LT(rtt.us(), 1000.0);
}

TEST_F(OrbTest, TwoClientsInterleave) {
  auto server = make_echo_server("node1", 5000);
  auto c1 = make_client("node2");
  auto c2 = make_client("node3");
  int ok1 = 0;
  int ok2 = 0;

  auto run = [](Orb& orb, giop::IOR ior, int& count) -> sim::Task<void> {
    Stub stub(orb, std::move(ior));
    for (int i = 0; i < 20; ++i) {
      auto r = co_await stub.invoke("echo", str_bytes("x"));
      if (r) ++count;
    }
  };
  sim_.spawn(run(*c1.orb, server.ior, ok1));
  sim_.spawn(run(*c2.orb, server.ior, ok2));
  sim_.run();
  EXPECT_EQ(ok1, 20);
  EXPECT_EQ(ok2, 20);
}

TEST_F(OrbTest, LargePayloadRoundTrip) {
  auto server = make_echo_server("node1", 5000);
  auto client = make_client("node2");
  std::size_t got = 0;

  auto run = [](Orb& orb, giop::IOR ior, std::size_t& out) -> sim::Task<void> {
    Stub stub(orb, std::move(ior));
    Bytes big(100 * 1024, 0x7E);
    auto r = co_await stub.invoke("echo", std::move(big));
    if (r) out = r->size();
  };
  sim_.spawn(run(*client.orb, server.ior, got));
  sim_.run();
  EXPECT_EQ(got, 100u * 1024u);
}

TEST_F(OrbTest, ServerHandlesLocationForwardReplyFromServant) {
  // A servant can't send LOCATION_FORWARD itself in this mini-ORB (that is
  // the interceptor's job), but the Stub must follow one if it arrives.
  // Simulate: a raw "forwarder" process that answers every request with
  // LOCATION_FORWARD to the real server.
  auto real = make_echo_server("node1", 5001);
  auto forwarder_proc = net_.spawn_process("node3", "forwarder");
  auto client = make_client("node2");
  std::string got;
  std::uint64_t forwards = 0;

  auto forwarder = [](net::Process& p, giop::IOR target) -> sim::Task<void> {
    auto lfd = p.api().listen(5000);
    auto cfd = co_await p.api().accept(lfd.value());
    giop::FrameBuffer frames;
    for (;;) {
      auto data = co_await p.api().read(cfd.value(), 65536);
      if (!data || data->empty()) co_return;
      frames.feed(data.value());
      while (auto frame = frames.next()) {
        auto req = giop::decode_request(frame->data);
        if (!req) continue;
        (void)co_await p.api().writev(
            cfd.value(), giop::encode_reply(giop::make_location_forward_reply(
                             req->request_id, target)));
      }
    }
  };
  auto run = [](Orb& orb, giop::IOR first, std::string& out,
                std::uint64_t& fwd) -> sim::Task<void> {
    Stub stub(orb, std::move(first));
    auto r = co_await stub.invoke("echo", str_bytes("follow-me"));
    if (r) out = bytes_str(r.value());
    fwd = stub.forwards_followed();
  };

  giop::IOR first = real.ior;
  first.endpoint = net::Endpoint{"node3", 5000};  // point at the forwarder
  sim_.spawn(forwarder(*forwarder_proc, real.ior));
  sim_.spawn(run(*client.orb, first, got, forwards));
  sim_.run();
  EXPECT_EQ(got, "follow-me");
  EXPECT_EQ(forwards, 1u);
}

TEST_F(OrbTest, ForwardLoopGivesUp) {
  // Forwarder that points every request back at itself.
  auto proc = net_.spawn_process("node1", "loop-forwarder");
  auto client = make_client("node2");
  std::optional<giop::SystemException> ex;

  auto forwarder = [](net::Process& p) -> sim::Task<void> {
    auto lfd = p.api().listen(5000);
    giop::IOR self{"IDL:x:1.0", net::Endpoint{"node1", 5000},
                   giop::ObjectKey::make_persistent("X/y")};
    for (;;) {
      auto cfd = co_await p.api().accept(lfd.value());
      if (!cfd) co_return;
      giop::FrameBuffer frames;
      auto data = co_await p.api().read(cfd.value(), 65536);
      if (!data || data->empty()) continue;
      frames.feed(data.value());
      while (auto frame = frames.next()) {
        auto req = giop::decode_request(frame->data);
        if (!req) continue;
        (void)co_await p.api().writev(
            cfd.value(), giop::encode_reply(giop::make_location_forward_reply(
                             req->request_id, self)));
      }
    }
  };
  auto run = [](Orb& orb, std::optional<giop::SystemException>& out)
      -> sim::Task<void> {
    giop::IOR start{"IDL:x:1.0", net::Endpoint{"node1", 5000},
                    giop::ObjectKey::make_persistent("X/y")};
    Stub stub(orb, std::move(start));
    auto r = co_await stub.invoke("echo", {});
    if (!r) out = r.error();
  };
  sim_.spawn(forwarder(*proc));
  sim_.spawn(run(*client.orb, ex));
  sim_.run_for(seconds(2));
  ASSERT_TRUE(ex.has_value());
  EXPECT_EQ(ex->kind, giop::SysExKind::kTransient);
}

// Orb::charge is the CPU cost of every marshal and dispatch step, so it
// is an awaiter: a zero charge completes inline and a positive one is one
// resume event.
TEST_F(OrbTest, ZeroChargeSchedulesNothingAndYieldsAlive) {
  auto client = make_client("node2");
  struct Seen {
    bool alive = false;
    std::uint64_t events = 0;
    TimePoint start, at;
  } seen;
  auto run = [](Orb& orb, Seen& out) -> sim::Task<void> {
    const std::uint64_t before = orb.sim().events_processed();
    out.start = orb.sim().now();
    out.alive = co_await orb.charge(Duration{0});
    out.events = orb.sim().events_processed() - before;
    out.at = orb.sim().now();
  };
  sim_.spawn(run(*client.orb, seen));
  sim_.run();
  EXPECT_TRUE(seen.alive);
  EXPECT_EQ(seen.events, 0u);
  EXPECT_EQ(seen.at, seen.start);
}

TEST_F(OrbTest, ZeroChargeOnADeadProcessYieldsFalse) {
  auto client = make_client("node2");
  client.proc->kill();
  bool alive = true;
  auto run = [](Orb& orb, bool& out) -> sim::Task<void> {
    out = co_await orb.charge(Duration{0});
  };
  sim_.spawn(run(*client.orb, alive));
  sim_.run();
  EXPECT_FALSE(alive);
}

TEST_F(OrbTest, ChargeFiresExactlyOneEventAtNowPlusD) {
  auto client = make_client("node2");
  struct Seen {
    bool alive = false;
    std::uint64_t events = 0;
    TimePoint start, at;
  } seen;
  auto run = [](Orb& orb, Seen& out) -> sim::Task<void> {
    co_await orb.sim().sleep(microseconds(7));  // start off time zero
    const std::uint64_t before = orb.sim().events_processed();
    out.start = orb.sim().now();
    out.alive = co_await orb.charge(microseconds(250));
    out.events = orb.sim().events_processed() - before;
    out.at = orb.sim().now();
  };
  sim_.spawn(run(*client.orb, seen));
  sim_.run();
  EXPECT_TRUE(seen.alive);
  EXPECT_EQ(seen.events, 1u);
  EXPECT_EQ(seen.at, seen.start + microseconds(250));
}

}  // namespace
}  // namespace mead::orb

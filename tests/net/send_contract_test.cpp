// The synchronous write contract: ProcessSocketApi::send is writev's whole
// body, so on every branch it returns what writev returns, and what it
// writes arrives when writev's bytes would.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <optional>

#include "net/network.h"
#include "sim/simulator.h"

namespace mead::net {
namespace {

enum class Branch {
  kDelivered,
  kDeadProcess,
  kBadFd,
  kListenerFd,
  kLocalClose,
  kPeerClose,
  kPartitioned,
};

struct Outcome {
  bool ok = false;
  std::size_t written = 0;
  NetErr err = NetErr::kBadFd;
  /// When the reader got the bytes, if it did.
  std::optional<TimePoint> arrived;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t drops = 0;

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

constexpr std::size_t kPayload = 100;

/// A client on node2 connected to a server on node1. At 1 ms the branch's
/// precondition is set up and one 100-byte write is made, through send()
/// from a plain event or through writev() from a spawned coroutine; the
/// server reads for 5 ms.
Outcome write_once(Branch branch, bool use_send) {
  sim::Simulator sim;
  Network net(sim);
  net.add_node("node1");
  net.add_node("node2");
  auto server = net.spawn_process("node1", "server");
  auto client = net.spawn_process("node2", "client");
  const int lfd = server->api().listen(5000).value();
  int sfd = -1;
  int cfd = -1;
  auto accept = [](Process& p, int l, int& out) -> sim::Task<void> {
    auto fd = co_await p.api().accept(l);
    if (fd) out = fd.value();
  };
  auto connect = [](Process& p, int& out) -> sim::Task<void> {
    auto fd = co_await p.api().connect(Endpoint{"node1", 5000});
    if (fd) out = fd.value();
  };
  sim.spawn(accept(*server, lfd, sfd));
  sim.spawn(connect(*client, cfd));
  sim.run_for(milliseconds(1));
  EXPECT_GE(sfd, 0);
  EXPECT_GE(cfd, 0);

  Process* writer = client.get();
  int fd = cfd;
  switch (branch) {
    case Branch::kDelivered:
      break;
    case Branch::kDeadProcess:
      client->kill();
      break;
    case Branch::kBadFd:
      fd = 999;
      break;
    case Branch::kListenerFd:
      writer = server.get();
      fd = lfd;
      break;
    case Branch::kLocalClose:
      EXPECT_TRUE(client->api().close(cfd).ok());
      break;
    case Branch::kPeerClose:
      EXPECT_TRUE(server->api().close(sfd).ok());
      break;
    case Branch::kPartitioned:
      net.set_link_partitioned("node1", "node2", true);
      break;
  }

  Outcome out;
  auto reader = [](Process& p, int rfd, sim::Simulator& s,
                   std::optional<TimePoint>& at) -> sim::Task<void> {
    auto data = co_await p.api().read(rfd, 4096, milliseconds(5));
    if (data && !data->empty()) at = s.now();
  };
  if (branch != Branch::kPeerClose) {
    sim.spawn(reader(*server, sfd, sim, out.arrived));
  }
  const std::uint64_t bytes0 = net.total_bytes_delivered();
  const std::uint64_t drops0 = net.messages_dropped();
  std::optional<Result<std::size_t>> result;
  ProcessSocketApi& api = writer->api();
  if (use_send) {
    sim.schedule(Duration{0}, [&api, fd, &result] {
      result = api.send(fd, Bytes(kPayload, 0x42));
    });
  } else {
    auto write = [](ProcessSocketApi& a, int wfd,
                    std::optional<Result<std::size_t>>& r) -> sim::Task<void> {
      r = co_await a.writev(wfd, Bytes(kPayload, 0x42));
    };
    sim.spawn(write(api, fd, result));
  }
  sim.run_for(milliseconds(10));
  EXPECT_TRUE(result.has_value());
  if (result && *result) {
    out.ok = true;
    out.written = result->value();
  } else if (result) {
    out.err = result->error();
  }
  out.bytes_delivered = net.total_bytes_delivered() - bytes0;
  out.drops = net.messages_dropped() - drops0;
  return out;
}

/// send() and writev() agree on `branch`; returns their common outcome.
Outcome expect_same(Branch branch) {
  const Outcome via_writev = write_once(branch, /*use_send=*/false);
  EXPECT_EQ(write_once(branch, /*use_send=*/true), via_writev);
  return via_writev;
}

TEST(SendContractTest, DeliveredAtTheSameTime) {
  const Outcome o = expect_same(Branch::kDelivered);
  EXPECT_TRUE(o.ok);
  EXPECT_EQ(o.written, kPayload);
  ASSERT_TRUE(o.arrived.has_value());
  EXPECT_GT(*o.arrived, TimePoint{0} + milliseconds(1));
  EXPECT_EQ(o.bytes_delivered, kPayload);
  EXPECT_EQ(o.drops, 0u);
}

TEST(SendContractTest, DeadProcessFails) {
  const Outcome o = expect_same(Branch::kDeadProcess);
  EXPECT_FALSE(o.ok);
  EXPECT_EQ(o.err, NetErr::kProcessDead);
  EXPECT_FALSE(o.arrived.has_value());
  EXPECT_EQ(o.bytes_delivered, 0u);
}

TEST(SendContractTest, BadFdFails) {
  const Outcome o = expect_same(Branch::kBadFd);
  EXPECT_FALSE(o.ok);
  EXPECT_EQ(o.err, NetErr::kBadFd);
  EXPECT_EQ(o.bytes_delivered, 0u);
}

TEST(SendContractTest, ListenerFdFails) {
  const Outcome o = expect_same(Branch::kListenerFd);
  EXPECT_FALSE(o.ok);
  EXPECT_EQ(o.err, NetErr::kNotListener);
  EXPECT_EQ(o.bytes_delivered, 0u);
}

TEST(SendContractTest, WriteAfterLocalCloseFindsNoFd) {
  const Outcome o = expect_same(Branch::kLocalClose);
  EXPECT_FALSE(o.ok);
  EXPECT_EQ(o.err, NetErr::kBadFd);
  EXPECT_EQ(o.bytes_delivered, 0u);
}

TEST(SendContractTest, PeerCloseReturnsTheSizeAndDeliversNothing) {
  const Outcome o = expect_same(Branch::kPeerClose);
  EXPECT_TRUE(o.ok);
  EXPECT_EQ(o.written, kPayload);
  EXPECT_EQ(o.bytes_delivered, 0u);
  EXPECT_EQ(o.drops, 0u);
}

TEST(SendContractTest, PartitionedLinkCountsADrop) {
  const Outcome o = expect_same(Branch::kPartitioned);
  EXPECT_TRUE(o.ok);
  EXPECT_EQ(o.written, kPayload);
  EXPECT_FALSE(o.arrived.has_value());
  EXPECT_EQ(o.bytes_delivered, 0u);
  EXPECT_EQ(o.drops, 1u);
}

}  // namespace
}  // namespace mead::net

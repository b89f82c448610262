// The stream-read contract: a read that starts at a delivery boundary
// returns that one delivered buffer, uncopied, when it fits; a smaller cap
// gets exactly that many bytes; a read resuming a partly read buffer
// coalesces it with the buffers behind it, in stream order.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/byte_queue.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace mead::net {
namespace {

Bytes to_bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }
std::string to_str(const Bytes& b) { return std::string(b.begin(), b.end()); }

TEST(ByteQueueTest, ReadWithRoomForTheFrontChunkReturnsThatChunk) {
  ByteQueue q;
  Bytes first = to_bytes("alpha");
  const std::uint8_t* const first_data = first.data();
  q.push(std::move(first));
  q.push(to_bytes("beta"));
  const Bytes out = q.pop(1 << 20);
  EXPECT_EQ(out.data(), first_data);  // moved out, not copied
  EXPECT_EQ(to_str(out), "alpha");    // and not joined with "beta"
  EXPECT_EQ(q.size(), 4u);
}

TEST(ByteQueueTest, SmallerCapReturnsExactlyTheCap) {
  ByteQueue q;
  q.push(to_bytes("abcdef"));
  q.push(to_bytes("gh"));
  EXPECT_EQ(to_str(q.pop(4)), "abcd");
  EXPECT_EQ(q.size(), 4u);
}

TEST(ByteQueueTest, ResumedChunkIsCoalescedWithTheChunksBehindIt) {
  ByteQueue q;
  q.push(to_bytes("abcdef"));
  q.push(to_bytes("gh"));
  q.push(to_bytes("ijk"));
  EXPECT_EQ(to_str(q.pop(2)), "ab");
  EXPECT_EQ(to_str(q.pop(7)), "cdefghi");  // across two boundaries
  EXPECT_EQ(to_str(q.pop(100)), "jk");
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(q.pop(100).empty());
}

TEST(ByteQueueTest, FrontChunkExactlyTheCapIsMovedOut) {
  ByteQueue q;
  Bytes chunk = to_bytes("wxyz");
  const std::uint8_t* const data = chunk.data();
  q.push(std::move(chunk));
  q.push(to_bytes("!"));
  const Bytes out = q.pop(4);
  EXPECT_EQ(out.data(), data);
  EXPECT_EQ(to_str(out), "wxyz");
}

class ReadContractTest : public ::testing::Test {
 protected:
  ReadContractTest() : net_(sim_) {
    net_.add_node("node1");
    net_.add_node("node2");
  }

  sim::Simulator sim_;
  Network net_;
};

struct Observed {
  std::vector<std::string> reads;
  bool whole_chunk_uncopied = false;
  bool eof = false;
  bool timed_out = false;
};

TEST_F(ReadContractTest, ReadsFollowDeliveryBoundariesThenCoalesce) {
  auto server = net_.spawn_process("node1", "server");
  auto client = net_.spawn_process("node2", "client");
  const std::uint8_t* first_written = nullptr;
  Observed seen;

  auto server_main = [](Process& p, const std::uint8_t*& first) -> sim::Task<void> {
    auto lfd = p.api().listen(5000);
    auto cfd = co_await p.api().accept(lfd.value());
    Bytes a = to_bytes("first-delivery");
    first = a.data();
    (void)co_await p.api().writev(cfd.value(), std::move(a));
    (void)co_await p.api().writev(cfd.value(), to_bytes("second"));
    (void)co_await p.api().writev(cfd.value(), to_bytes("third"));
    co_await p.sim().sleep(milliseconds(20));
    (void)p.api().close(cfd.value());
  };
  auto client_main = [](Process& p, const std::uint8_t*& first,
                        Observed& out) -> sim::Task<void> {
    auto fd = co_await p.api().connect(Endpoint{"node1", 5000});
    // Nothing is there yet: a zero-wait read times out as before.
    auto none = co_await p.api().read(fd.value(), 4096, Duration{0});
    out.timed_out = !none.ok() && none.error() == NetErr::kTimeout;
    co_await p.sim().sleep(milliseconds(10));  // all three deliveries land
    auto a = co_await p.api().read(fd.value(), 1 << 20);
    out.whole_chunk_uncopied = a.ok() && a->data() == first;
    out.reads.push_back(to_str(a.value()));
    auto b = co_await p.api().read(fd.value(), 3);  // smaller than "second"
    out.reads.push_back(to_str(b.value()));
    auto c = co_await p.api().read(fd.value(), 1 << 20);  // resumes "second"
    out.reads.push_back(to_str(c.value()));
    auto end = co_await p.api().read(fd.value(), 4096);  // blocks until FIN
    out.eof = end.ok() && end->empty();
  };
  sim_.spawn(server_main(*server, first_written));
  sim_.spawn(client_main(*client, first_written, seen));
  sim_.run();
  EXPECT_TRUE(seen.timed_out);
  EXPECT_TRUE(seen.whole_chunk_uncopied);
  EXPECT_EQ(seen.reads, (std::vector<std::string>{"first-delivery", "sec", "ondthird"}));
  EXPECT_TRUE(seen.eof);
}

}  // namespace
}  // namespace mead::net

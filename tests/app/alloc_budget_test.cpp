// Heap allocations per invocation: a deterministic guard on the host cost
// of the invocation path. Global operator new/delete are replaced with
// counting versions, so this suite must not be built with ASan, which
// supplies its own.
//
// The count covers launch_client() and run_to_completion(), the part of a
// run whose cost grows with the invocation count; start() (world bring-up)
// is excluded. A simulation is deterministic, so the count repeats exactly
// for a given build. Large allocations (64 KiB and up) are also counted
// apart: those are the checkpoint buffers that cross the GC plane. So are
// buffers of 4 KiB and up, counted as operator new calls plus the blocks
// the large-buffer cache hands back instead of one: each copy of a
// checkpoint payload into a buffer of its own takes one.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "app/experiment.h"

namespace {

constexpr std::size_t kLargeAllocation = 64 * 1024;
constexpr std::size_t kPayloadAllocation = 4 * 1024;

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_large_allocations{0};
std::atomic<std::uint64_t> g_payload_allocations{0};

}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (n >= kLargeAllocation) {
    g_large_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (n >= kPayloadAllocation) {
    g_payload_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// Not inlined: GCC 12 at -O3 otherwise sees free() applied to the result
// of operator new in callers and reports -Wmismatched-new-delete.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace mead::app {
namespace {

// The ceiling per completed invocation. These schemes make 9-10 now that
// the GIOP and GC framers take delivered buffers whole, 12-14 with only
// awaiter-based CPU charges, pooled coroutine frames and one-buffer GIOP
// encoding, and 49-55 when each charge, wait and task takes a heap frame.
constexpr double kMaxAllocationsPerInvocation = 30;
constexpr int kInvocations = 2000;

double allocations_per_invocation(core::RecoveryScheme scheme) {
  ExperimentSpec spec;
  spec.scheme = scheme;
  spec.seed = 2004;
  spec.invocations = kInvocations;
  Experiment exp(spec);
  EXPECT_TRUE(exp.start());
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  exp.launch_client();
  exp.run_to_completion();
  const std::uint64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - before;
  const std::uint64_t completed = exp.collect().total_invocations();
  EXPECT_EQ(completed, static_cast<std::uint64_t>(kInvocations));
  return completed == 0 ? 0
                        : static_cast<double>(allocations) /
                              static_cast<double>(completed);
}

TEST(AllocBudgetTest, ReactiveNoCacheStaysUnderBudget) {
  const double per_invocation =
      allocations_per_invocation(core::RecoveryScheme::kReactiveNoCache);
  RecordProperty("allocations_per_invocation", std::to_string(per_invocation));
  EXPECT_LE(per_invocation, kMaxAllocationsPerInvocation);
}

TEST(AllocBudgetTest, MeadMessageStaysUnderBudget) {
  const double per_invocation =
      allocations_per_invocation(core::RecoveryScheme::kMeadMessage);
  RecordProperty("allocations_per_invocation", std::to_string(per_invocation));
  EXPECT_LE(per_invocation, kMaxAllocationsPerInvocation);
}

// The ceiling on large allocations per checkpoint taken, in a stateful
// group of perfbench's stateful_restore shape (8192 keys, value_pad 32,
// 10 ms checkpoints). Copying each checkpoint frame into a fresh buffer
// at every GC hop (read slices, framer, decoders, per-peer writes) made
// 3.52 per checkpoint at seed 2004 (682 over 194 checkpoints); chunks
// handed through the framer whole and large buffers recycled per thread
// made 0.13 (26, the caches warming up), and one buffer shared by every
// peer of a stamped frame makes 0.06 (11).
constexpr double kMaxLargeAllocationsPerCheckpoint = 1;

ExperimentSpec stateful_spec() {
  ExperimentSpec spec;
  spec.seed = 2004;
  spec.invocations = kInvocations;
  ServiceGroupSpec group;
  group.state.enabled = true;
  group.state.keys = 8192;
  group.state.value_pad = 32;
  group.state.checkpoint_interval = milliseconds(10);
  spec.groups.push_back(group);
  return spec;
}

TEST(AllocBudgetTest, StatefulCheckpointsReuseLargeBuffers) {
  Experiment exp(stateful_spec());
  ASSERT_TRUE(exp.start());
  const std::uint64_t before = g_large_allocations.load(std::memory_order_relaxed);
  exp.launch_client();
  exp.run_to_completion();
  const std::uint64_t large =
      g_large_allocations.load(std::memory_order_relaxed) - before;
  const ExperimentResult result = exp.collect();
  EXPECT_EQ(result.total_invocations(), static_cast<std::uint64_t>(kInvocations));
  const std::uint64_t checkpoints = result.counter("state.ckpt.deltas");
  ASSERT_GT(checkpoints, 0u);
  const double per_checkpoint =
      static_cast<double>(large) / static_cast<double>(checkpoints);
  RecordProperty("large_allocations_per_checkpoint", std::to_string(per_checkpoint));
  EXPECT_LE(per_checkpoint, kMaxLargeAllocationsPerCheckpoint)
      << large << " allocations of >= 64 KiB over " << checkpoints
      << " checkpoints";
}

// The ceiling on buffers of 4 KiB or more taken per checkpoint, from
// operator new or the large-buffer cache, in the same stateful shape: each
// is a checkpoint payload copied into a buffer of its own somewhere on its
// way across the GC plane, or a buffer one grows into. At seed 2004,
// decoders that copied payloads out of their frames, a second encoding of
// each submission for pending_ and a fresh encoding of each stamped frame
// took 0.90 per checkpoint (174 over 194 checkpoints); decoders that view
// their frames, and submissions encoded once and restamped in place, took
// 0.57 (110). A stamped frame shared by every peer instead of copied for
// each, checkpoints dropped before their decode where they are not
// applied, and entries decoded in one pass take 0.34 (66). Checkpoints
// encoded straight behind their kMcast header, instead of encoded alone
// and copied into the frame, take 0.31 (60); the bound is that plus 10%.
constexpr double kMaxPayloadCopiesPerCheckpoint = 0.34;

TEST(AllocBudgetTest, CheckpointPayloadCopiesPerDelta) {
  Experiment exp(stateful_spec());
  ASSERT_TRUE(exp.start());
  auto buffers = [] {
    return g_payload_allocations.load(std::memory_order_relaxed) +
           detail::BufferCache::hits();
  };
  const std::uint64_t before = buffers();
  exp.launch_client();
  exp.run_to_completion();
  const std::uint64_t copies = buffers() - before;
  const ExperimentResult result = exp.collect();
  EXPECT_EQ(result.total_invocations(), static_cast<std::uint64_t>(kInvocations));
  const std::uint64_t checkpoints = result.counter("state.ckpt.deltas");
  ASSERT_GT(checkpoints, 0u);
  const double per_checkpoint =
      static_cast<double>(copies) / static_cast<double>(checkpoints);
  RecordProperty("payload_allocations_per_checkpoint", std::to_string(per_checkpoint));
  EXPECT_LE(per_checkpoint, kMaxPayloadCopiesPerCheckpoint)
      << copies << " buffers of >= 4 KiB over " << checkpoints
      << " checkpoints";
}

}  // namespace
}  // namespace mead::app

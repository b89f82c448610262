// The coroutine frame pool behind every Task and spawned coroutine.
#include <gtest/gtest.h>

#include <cstddef>
#include <thread>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "sim/simulator.h"

namespace mead::sim {
namespace {

using detail::FramePool;

/// Empties this thread's free lists for a test's duration, so every count
/// starts at zero and no class is at its cap.
class DrainedPool {
 public:
  DrainedPool() {
    for (std::size_t n = FramePool::kGranule; n <= FramePool::kMaxFrame;
         n += FramePool::kGranule) {
      while (FramePool::cached(n) > 0) held_.emplace_back(FramePool::allocate(n), n);
    }
  }
  DrainedPool(const DrainedPool&) = delete;
  DrainedPool& operator=(const DrainedPool&) = delete;
  ~DrainedPool() {
    for (const auto& [p, n] : held_) FramePool::deallocate(p, n);
  }

 private:
  std::vector<std::pair<void*, std::size_t>> held_;
};

std::size_t cached_total() {
  std::size_t total = 0;
  for (std::size_t n = FramePool::kGranule; n <= FramePool::kMaxFrame;
       n += FramePool::kGranule) {
    total += FramePool::cached(n);
  }
  return total;
}

/// Stores the awaiting coroutine's frame address and carries on.
struct FrameAddress {
  void** out;
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> h) const noexcept {
    *out = h.address();
    return false;
  }
  void await_resume() const noexcept {}
};

Task<void> record_frame(void** out) { co_await FrameAddress{out}; }

Task<void> record_two_frames(void** first, void** second, std::size_t* cached_between) {
  co_await record_frame(first);
  *cached_between = cached_total();
  co_await record_frame(second);
}

TEST(FramePoolTest, FreedFrameIsReusedByNextFrameOfItsSizeClass) {
  DrainedPool drained;
  constexpr std::size_t g = FramePool::kGranule;
  // 2g+1 .. 3g bytes share a class.
  void* a = FramePool::allocate(3 * g);
  FramePool::deallocate(a, 3 * g);
  EXPECT_EQ(FramePool::cached(3 * g), 1u);
  EXPECT_EQ(FramePool::cached(2 * g + 1), 1u);
  EXPECT_EQ(FramePool::cached(2 * g), 0u);
#if defined(__SANITIZE_ADDRESS__)
  EXPECT_TRUE(__asan_address_is_poisoned(a));
#endif
  void* b = FramePool::allocate(2 * g + 1);
  EXPECT_EQ(b, a);
  EXPECT_EQ(FramePool::cached(3 * g), 0u);
  FramePool::deallocate(b, 2 * g + 1);
}

TEST(FramePoolTest, TaskFramesAreRecycled) {
  DrainedPool drained;
  { Task<void> unstarted = record_frame(nullptr); }
  EXPECT_EQ(cached_total(), 1u);  // destroying the task pooled its frame

  Simulator sim;
  void* first = nullptr;
  void* second = nullptr;
  std::size_t cached_between = 0;
  sim.spawn(record_two_frames(&first, &second, &cached_between));
  sim.run();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(second, first);
  // The first child's frame waited in the pool until the second took it.
  EXPECT_GE(cached_between, 1u);
}

TEST(FramePoolTest, FramesBeyondThePerClassCapGoToOperatorDelete) {
  DrainedPool drained;
  std::vector<void*> frames;
  for (std::size_t i = 0; i < FramePool::kCap + 5; ++i) {
    frames.push_back(FramePool::allocate(200));
  }
  for (void* p : frames) FramePool::deallocate(p, 200);
  EXPECT_EQ(FramePool::cached(200), FramePool::kCap);
  EXPECT_EQ(cached_total(), FramePool::kCap);
}

TEST(FramePoolTest, OversizeFramesBypassThePool) {
  DrainedPool drained;
  void* largest = FramePool::allocate(FramePool::kMaxFrame);
  FramePool::deallocate(largest, FramePool::kMaxFrame);
  EXPECT_EQ(FramePool::cached(FramePool::kMaxFrame), 1u);

  void* oversize = FramePool::allocate(FramePool::kMaxFrame + 1);
  FramePool::deallocate(oversize, FramePool::kMaxFrame + 1);
  EXPECT_EQ(FramePool::cached(FramePool::kMaxFrame + 1), 0u);
  EXPECT_EQ(cached_total(), 1u);
}

TEST(FramePoolTest, FrameFreedOnAnotherThreadJoinsThatThreadsLists) {
  DrainedPool drained;
  void* p = FramePool::allocate(300);
  std::size_t worker_cached = 0;
  bool worker_reused = false;
  std::thread worker([&] {
    FramePool::deallocate(p, 300);
    worker_cached = FramePool::cached(300);
    void* again = FramePool::allocate(300);
    worker_reused = again == p;
    // Left in the worker's lists: its thread exit must free it.
    FramePool::deallocate(again, 300);
  });
  worker.join();
  EXPECT_EQ(worker_cached, 1u);
  EXPECT_TRUE(worker_reused);
  EXPECT_EQ(cached_total(), 0u);  // this thread's lists are untouched

  // A task made here and destroyed on another thread, as a pooled
  // run_experiments worker may do with frames it inherits.
  Task<void> task = record_frame(nullptr);
  std::thread destroyer([t = std::move(task)]() mutable { t = Task<void>{}; });
  destroyer.join();
  EXPECT_EQ(cached_total(), 0u);
}

}  // namespace
}  // namespace mead::sim

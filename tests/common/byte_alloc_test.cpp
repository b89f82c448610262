// The per-thread cache of large byte buffers behind Bytes.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "common/types.h"

namespace mead {
namespace {

using detail::BufferCache;

/// One request size per class, smallest to largest.
std::vector<std::size_t> class_sizes() {
  std::vector<std::size_t> out;
  for (std::size_t n = BufferCache::kMinBlock; n <= BufferCache::kMaxBlock; n *= 2) {
    out.push_back(n);
  }
  return out;
}

/// Empties this thread's cache for a test's duration, so every count
/// starts at zero and no bound is reached.
class DrainedCache {
 public:
  DrainedCache() {
    for (std::size_t n : class_sizes()) {
      while (BufferCache::cached(n) > 0) held_.emplace_back(BufferCache::allocate(n), n);
    }
  }
  DrainedCache(const DrainedCache&) = delete;
  DrainedCache& operator=(const DrainedCache&) = delete;
  ~DrainedCache() {
    for (const auto& [p, n] : held_) BufferCache::deallocate(p, n);
  }

 private:
  std::vector<std::pair<void*, std::size_t>> held_;
};

TEST(BufferCacheTest, FreedBlockIsReusedByTheNextAllocationOfItsClass) {
  DrainedCache drained;
  constexpr std::size_t k = BufferCache::kMinBlock;
  // k+1 .. 2k bytes share a class.
  void* a = BufferCache::allocate(2 * k);
  BufferCache::deallocate(a, 2 * k);
  EXPECT_EQ(BufferCache::cached(2 * k), 1u);
  EXPECT_EQ(BufferCache::cached(k + 1), 1u);
  EXPECT_EQ(BufferCache::cached(k), 0u);
  EXPECT_EQ(BufferCache::cached(2 * k + 1), 0u);
  EXPECT_EQ(BufferCache::cached_bytes(), 2 * k);
  void* b = BufferCache::allocate(k + 1);
  EXPECT_EQ(b, a);
  EXPECT_EQ(BufferCache::cached_bytes(), 0u);
  BufferCache::deallocate(b, k + 1);
}

TEST(BufferCacheTest, CachedBlocksArePoisoned) {
  DrainedCache drained;
  void* a = BufferCache::allocate(BufferCache::kMinBlock);
  BufferCache::deallocate(a, BufferCache::kMinBlock);
#if defined(__SANITIZE_ADDRESS__)
  EXPECT_TRUE(__asan_address_is_poisoned(a));
  EXPECT_TRUE(__asan_address_is_poisoned(static_cast<char*>(a) +
                                         BufferCache::kMinBlock - 1));
#endif
  void* b = BufferCache::allocate(BufferCache::kMinBlock);
  ASSERT_EQ(b, a);
#if defined(__SANITIZE_ADDRESS__)
  EXPECT_FALSE(__asan_address_is_poisoned(b));
#endif
  BufferCache::deallocate(b, BufferCache::kMinBlock);
}

TEST(BufferCacheTest, BlocksPastThePerClassCapAreFreed) {
  DrainedCache drained;
  constexpr std::size_t n = BufferCache::kMinBlock;
  std::vector<void*> blocks;
  for (std::size_t i = 0; i < BufferCache::kCap + 5; ++i) {
    blocks.push_back(BufferCache::allocate(n));
  }
  for (void* p : blocks) BufferCache::deallocate(p, n);
  EXPECT_EQ(BufferCache::cached(n), BufferCache::kCap);
  EXPECT_EQ(BufferCache::cached_bytes(), BufferCache::kCap * n);
}

TEST(BufferCacheTest, CachedBytesStayWithinTheTotalBound) {
  DrainedCache drained;
  // Half the bound per block: two fit, the rest are freed.
  constexpr std::size_t n = BufferCache::kMaxCachedBytes / 2;
  static_assert(n <= BufferCache::kMaxBlock);
  std::vector<void*> blocks;
  for (int i = 0; i < 4; ++i) blocks.push_back(BufferCache::allocate(n));
  for (void* p : blocks) BufferCache::deallocate(p, n);
  EXPECT_EQ(BufferCache::cached(n), 2u);
  EXPECT_EQ(BufferCache::cached_bytes(), BufferCache::kMaxCachedBytes);
  // Full: even the smallest class is turned away now.
  void* small = BufferCache::allocate(BufferCache::kMinBlock);
  BufferCache::deallocate(small, BufferCache::kMinBlock);
  EXPECT_EQ(BufferCache::cached(BufferCache::kMinBlock), 0u);
}

TEST(BufferCacheTest, RequestsOutsideTheClassesBypassTheCache) {
  DrainedCache drained;
  { Bytes small(BufferCache::kMinBlock - 1); }
  { Bytes tiny(16); }
  EXPECT_EQ(BufferCache::cached_bytes(), 0u);
  void* huge = BufferCache::allocate(BufferCache::kMaxBlock + 1);
  BufferCache::deallocate(huge, BufferCache::kMaxBlock + 1);
  EXPECT_EQ(BufferCache::cached_bytes(), 0u);
  EXPECT_EQ(BufferCache::cached(BufferCache::kMaxBlock + 1), 0u);
}

TEST(BufferCacheTest, BytesRecycleTheirBuffers) {
  DrainedCache drained;
  const std::uint8_t* first = nullptr;
  {
    Bytes big(300'000, 7);
    first = big.data();
  }
  EXPECT_EQ(BufferCache::cached(300'000), 1u);
  Bytes again(270'000);  // same 512 KiB class
  EXPECT_EQ(again.data(), first);
  EXPECT_EQ(BufferCache::cached(300'000), 0u);
}

TEST(BufferCacheTest, BytesFreedOnAnotherThreadJoinThatThreadsCache) {
  DrainedCache drained;
  Bytes made_here(100'000, 1);
  const std::uint8_t* const data = made_here.data();
  std::size_t worker_cached = 0;
  bool worker_reused = false;
  std::thread worker([&, b = std::move(made_here)]() mutable {
    b = Bytes();  // frees the buffer on the worker
    worker_cached = BufferCache::cached(100'000);
    Bytes again(100'000);
    worker_reused = again.data() == data;
    // `again` goes back to the worker's cache: its thread exit frees it.
  });
  worker.join();
  EXPECT_EQ(worker_cached, 1u);
  EXPECT_TRUE(worker_reused);
  EXPECT_EQ(BufferCache::cached_bytes(), 0u);  // this thread's cache is untouched

  // Made on a worker, freed here.
  Bytes from_worker;
  std::thread maker([&] { from_worker = Bytes(100'000, 2); });
  maker.join();
  from_worker = Bytes();
  EXPECT_EQ(BufferCache::cached(100'000), 1u);
}

}  // namespace
}  // namespace mead

// Bytes against a std::vector reference, and the per-thread cache of
// large byte buffers behind it.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <algorithm>
#include <random>
#include <string>
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
using Ref = std::vector<std::uint8_t>;

bool same(const Bytes& b, const Ref& r) {
  return b.size() == r.size() && std::equal(b.begin(), b.end(), r.begin());
}

Ref random_ref(std::mt19937& rng, std::size_t n) {
  Ref r(n);
  for (auto& b : r) b = static_cast<std::uint8_t>(rng());
  return r;
}

TEST(BytesTypeTest, MatchesAVectorUnderRandomEdits) {
  std::mt19937 rng(2004);
  Bytes b;
  Ref r;
  // Sizes straddle the cache's smallest class, so growth moves blocks
  // between ::operator new and the cache both ways.
  std::uniform_int_distribution<std::size_t> small(0, 3000);
  std::uniform_int_distribution<std::size_t> large(0, 3 * BufferCache::kMinBlock);
  for (int step = 0; step < 2000; ++step) {
    const std::size_t n = rng() % 8 == 0 ? large(rng) : small(rng);
    switch (rng() % 7) {
      case 0: {  // append
        const Ref add = random_ref(rng, n);
        b.append(ByteView(add));
        r.insert(r.end(), add.begin(), add.end());
        break;
      }
      case 1: {  // insert at an arbitrary position
        const Ref add = random_ref(rng, n % 500);
        const std::size_t at = r.empty() ? 0 : rng() % (r.size() + 1);
        b.insert(b.begin() + at, add.begin(), add.end());
        r.insert(r.begin() + static_cast<std::ptrdiff_t>(at), add.begin(), add.end());
        break;
      }
      case 2: {  // erase a prefix
        const std::size_t k = r.empty() ? 0 : rng() % (r.size() + 1);
        b.erase_prefix(k);
        r.erase(r.begin(), r.begin() + static_cast<std::ptrdiff_t>(k));
        break;
      }
      case 3: {  // erase from the middle
        const std::size_t from = r.empty() ? 0 : rng() % r.size();
        const std::size_t to = from + (r.size() == from ? 0 : rng() % (r.size() - from + 1));
        b.erase(b.begin() + from, b.begin() + to);
        r.erase(r.begin() + static_cast<std::ptrdiff_t>(from),
                r.begin() + static_cast<std::ptrdiff_t>(to));
        break;
      }
      case 4:  // resize, zero-filling growth
        b.resize(n);
        r.resize(n);
        break;
      case 5: {  // copy, and assign over a live buffer
        Bytes copy = b;
        ASSERT_TRUE(same(copy, r));
        EXPECT_EQ(copy.capacity(), copy.size());  // a copy is exact, as a vector's
        const Ref other = random_ref(rng, n % 200);
        copy = Bytes(other.begin(), other.end());
        EXPECT_TRUE(same(copy, other));
        copy = b;
        EXPECT_TRUE(copy == b);
        b = std::move(copy);
        break;
      }
      default:  // push_back
        b.push_back(static_cast<std::uint8_t>(step));
        r.push_back(static_cast<std::uint8_t>(step));
        break;
    }
    ASSERT_TRUE(same(b, r)) << "step " << step;
  }
}

TEST(BytesTypeTest, GrowsAsAVectorDoes) {
  // The same reallocation points as std::vector: allocation counts per
  // invocation (alloc_budget_test) depend on it.
  Bytes b;
  Ref r;
  for (int i = 0; i < 5000; ++i) {
    b.push_back(1);
    r.push_back(1);
    ASSERT_EQ(b.capacity(), r.capacity()) << i;
  }
  const Ref chunk(777, 2);
  for (int i = 0; i < 200; ++i) {
    b.append(ByteView(chunk));
    r.insert(r.end(), chunk.begin(), chunk.end());
    ASSERT_EQ(b.capacity(), r.capacity()) << i;
  }
  b.resize(b.size() * 3);
  r.resize(r.size() * 3);
  EXPECT_EQ(b.capacity(), r.capacity());
  b.reserve(b.capacity() + 5);
  r.reserve(r.capacity() + 5);
  EXPECT_EQ(b.capacity(), r.capacity());
  EXPECT_TRUE(same(b, r));
}

TEST(BytesTypeTest, AppendOfItsOwnBytes) {
  Bytes b{1, 2, 3};  // capacity 3: the append must grow
  ASSERT_EQ(b.capacity(), 3u);
  b.append(ByteView(b));  // without reading the freed block
  EXPECT_EQ(b, (Bytes{1, 2, 3, 1, 2, 3}));
  b.reserve(100);
  b.append(ByteView(b).subspan(1, 2));  // in place, no growth
  EXPECT_EQ(b, (Bytes{1, 2, 3, 1, 2, 3, 2, 3}));
}

TEST(BytesTypeTest, ComparesAndConvertsAsBytes) {
  const Bytes a{1, 2, 3};
  const Ref ra{1, 2, 3};
  EXPECT_TRUE(a == ByteView(ra));
  EXPECT_TRUE(ByteView(ra) == a);
  EXPECT_FALSE(a == (Bytes{1, 2}));
  EXPECT_FALSE(a == Bytes{});
  EXPECT_TRUE(Bytes{} == Bytes{});
  EXPECT_LT((Bytes{1, 2}), a);
  EXPECT_LT(a, (Bytes{1, 3}));
  EXPECT_LT((Bytes{0x7F}), (Bytes{0x80}));  // unsigned, as vector<uint8_t>
  const ByteView v = a;
  EXPECT_EQ(v.data(), a.data());
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(Bytes(v), a);
  EXPECT_EQ(Bytes(4, 9), (Bytes{9, 9, 9, 9}));
  EXPECT_EQ(Bytes(2), (Bytes{0, 0}));
  const std::string s = "ab";
  EXPECT_EQ(Bytes(s.begin(), s.end()), (Bytes{'a', 'b'}));
}

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

// Sharing adds no field: a unique buffer stays a pointer, a size and a
// capacity.
static_assert(sizeof(Bytes) == 3 * sizeof(void*));

TEST(BytesTypeTest, SharedSliceCopiesOnWrite) {
  DrainedCache drained;
  Bytes a(100'000, 7);
  const std::uint8_t* const block = std::as_const(a).data();
  Bytes b = a.share();
  Bytes c = a.share(10, 20);
  EXPECT_TRUE(a.shared());
  EXPECT_TRUE(c.shared());
  EXPECT_EQ(std::as_const(b).data(), block);
  EXPECT_EQ(std::as_const(c).data(), block + 10);
  EXPECT_EQ(ByteView(std::as_const(c)).data(), block + 10);
  EXPECT_EQ(c.size(), 20u);
  EXPECT_EQ(c.capacity(), 0u);
  // A plain copy stays deep.
  const Bytes d = b;
  EXPECT_FALSE(d.shared());
  EXPECT_NE(d.data(), block);
  // Making one holder's bytes its own to write copies them out first.
  b.own();
  EXPECT_NE(std::as_const(b).data(), block);
  EXPECT_FALSE(b.shared());
  b[0] = 1;
  EXPECT_EQ(b[0], 1);
  EXPECT_EQ(std::as_const(a)[0], 7);
  // Growth copies a shared buffer out.
  a.push_back(9);
  EXPECT_NE(std::as_const(a).data(), block);
  EXPECT_FALSE(a.shared());
  EXPECT_EQ(a.size(), 100'001u);
  EXPECT_EQ(c, Bytes(20, 7));
  // Narrowing a shared slice copies nothing.
  c.erase_prefix(5);
  EXPECT_EQ(std::as_const(c).data(), block + 15);
  EXPECT_EQ(c, Bytes(15, 7));
  // c holds the block alone now; letting it go returns it to the cache.
  EXPECT_EQ(BufferCache::cached(100'000), 0u);
  c = Bytes();
  EXPECT_EQ(BufferCache::cached(100'000), 1u);
  Bytes again(100'000);
  EXPECT_EQ(again.data(), block);
}

TEST(BytesTypeTest, LastHolderTakesItsBlockBack) {
  Bytes a(1000, 3);
  const std::uint8_t* const block = std::as_const(a).data();
  { const Bytes b = a.share(); }
  EXPECT_TRUE(a.shared());
  a.own();  // no other holder: nothing to copy
  EXPECT_FALSE(a.shared());
  EXPECT_EQ(a.data(), block);
  EXPECT_EQ(a.capacity(), 1000u);
  a[0] = 4;
  EXPECT_EQ(std::as_const(a)[0], 4);
  // A slice narrowed to nothing lets go of the block when owned.
  Bytes s = a.share(0, 4);
  s.erase_prefix(4);
  EXPECT_TRUE(s.empty());
  s.own();
  EXPECT_EQ(s.data(), nullptr);
  EXPECT_FALSE(s.shared());
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

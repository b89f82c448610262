// The allocator behind Bytes: large byte buffers come from a per-thread
// cache of recycled blocks, so a checkpoint-sized buffer crossing the GC
// plane lands on warm memory instead of page-faulting in fresh (glibc trims
// and regrows the heap top around buffers that large). Requests of
// kMinBlock bytes or more come from power-of-two classes up to kMaxBlock,
// at most kCap blocks per class and kMaxCachedBytes per thread; other
// requests, and frees past either bound, go to ::operator new/delete as
// std::allocator's do.
// Modelled on sim::detail::FramePool: a block freed on another thread
// joins that thread's lists, a thread's blocks are freed at its exit, and
// free blocks are ASan-poisoned.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>

namespace mead {

namespace detail {

struct BufferCache {
  static constexpr std::size_t kMinBlock = 64 * 1024;
  static constexpr std::size_t kMaxBlock = 16 * 1024 * 1024;
  static constexpr std::size_t kCap = 16;
  static constexpr std::size_t kMaxCachedBytes = 32 * 1024 * 1024;

  /// Any size; only requests in [kMinBlock, kMaxBlock] are cached.
  static void* allocate(std::size_t n);
  static void deallocate(void* p, std::size_t n) noexcept;
  /// Blocks this thread holds for requests of `n` bytes (0 outside
  /// [kMinBlock, kMaxBlock]).
  [[nodiscard]] static std::size_t cached(std::size_t n);
  /// Bytes this thread holds in free blocks.
  [[nodiscard]] static std::size_t cached_bytes();
};

}  // namespace detail

template <typename T>
class ByteAllocator {
 public:
  using value_type = T;
  using is_always_equal = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;

  ByteAllocator() = default;
  template <typename U>
  ByteAllocator(const ByteAllocator<U>&) noexcept {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (bytes < detail::BufferCache::kMinBlock) {
      return static_cast<T*>(::operator new(bytes));
    }
    return static_cast<T*>(detail::BufferCache::allocate(bytes));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = n * sizeof(T);
    if (bytes < detail::BufferCache::kMinBlock) {
      ::operator delete(p, bytes);
      return;
    }
    detail::BufferCache::deallocate(p, bytes);
  }

  template <typename U>
  bool operator==(const ByteAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace mead

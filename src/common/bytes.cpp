#include "common/bytes.h"

#include <bit>

#include <sanitizer/asan_interface.h>

namespace mead {

namespace {

using detail::BufferCache;

constexpr std::size_t kClasses =
    std::bit_width(BufferCache::kMaxBlock / BufferCache::kMinBlock);

/// Class c holds blocks of kMinBlock << c bytes; n must lie in
/// [kMinBlock, kMaxBlock].
constexpr std::size_t size_class(std::size_t n) {
  return std::bit_width((n - 1) / BufferCache::kMinBlock);
}
constexpr std::size_t block_size(std::size_t c) {
  return BufferCache::kMinBlock << c;
}
constexpr bool cacheable(std::size_t n) {
  return n >= BufferCache::kMinBlock && n <= BufferCache::kMaxBlock;
}

static_assert(size_class(BufferCache::kMinBlock) == 0);
static_assert(block_size(kClasses - 1) == BufferCache::kMaxBlock);

/// One thread's free lists; a free block's first word links to the next.
/// At thread exit the blocks are freed, and full counts send buffers freed
/// later in that exit to ::operator delete.
struct FreeLists {
  void* head[kClasses] = {};
  std::size_t count[kClasses] = {};
  std::size_t bytes = 0;
  std::uint64_t hits = 0;

  FreeLists() = default;
  FreeLists(const FreeLists&) = delete;
  FreeLists& operator=(const FreeLists&) = delete;
  ~FreeLists() {
    for (std::size_t c = 0; c < kClasses; ++c) {
      while (void* b = pop(c)) ::operator delete(b);
      count[c] = BufferCache::kCap;
    }
    bytes = BufferCache::kMaxCachedBytes;
  }

  void* pop(std::size_t c) {
    void* b = head[c];
    if (b == nullptr) return nullptr;
    ASAN_UNPOISON_MEMORY_REGION(b, block_size(c));
    head[c] = *static_cast<void**>(b);
    --count[c];
    bytes -= block_size(c);
    return b;
  }
};

thread_local FreeLists t_buffers;

}  // namespace

void* BufferCache::allocate(std::size_t n) {
  if (!cacheable(n)) return ::operator new(n);
  const std::size_t c = size_class(n);
  if (void* b = t_buffers.pop(c)) {
    ++t_buffers.hits;
    return b;
  }
  return ::operator new(block_size(c));
}

void BufferCache::deallocate(void* p, std::size_t n) noexcept {
  if (!cacheable(n)) return ::operator delete(p);
  const std::size_t c = size_class(n);
  FreeLists& lists = t_buffers;
  if (lists.count[c] >= kCap || lists.bytes + block_size(c) > kMaxCachedBytes) {
    return ::operator delete(p);
  }
  lists.head[c] = ::new (p) void*(lists.head[c]);
  ++lists.count[c];
  lists.bytes += block_size(c);
  ASAN_POISON_MEMORY_REGION(p, block_size(c));
}

std::size_t BufferCache::cached(std::size_t n) {
  return cacheable(n) ? t_buffers.count[size_class(n)] : 0;
}

std::size_t BufferCache::cached_bytes() { return t_buffers.bytes; }

std::uint64_t BufferCache::hits() { return t_buffers.hits; }

Bytes Bytes::share(size_type at, size_type n) {
  if (n == 0) return {};
  if (!shared()) {
    const auto block =
        reinterpret_cast<std::uintptr_t>(new detail::SharedBlock(data_, cap_));
    assert((block & kShared) == 0);
    cap_ = kShared | block;
  }
  block()->holders.fetch_add(1, std::memory_order_relaxed);
  Bytes out;
  out.data_ = data_ + at;
  out.size_ = n;
  out.cap_ = cap_;
  return out;
}

void Bytes::release_large(std::uint8_t* p, size_type cap) noexcept {
  if ((cap & kShared) == 0) return BufferCache::deallocate(p, cap);
  auto* const block = reinterpret_cast<detail::SharedBlock*>(cap & ~kShared);
  if (block->holders.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  release(block->base, block->cap);
  delete block;
}

void Bytes::unshare() {
  detail::SharedBlock* const b = block();
  if (b->holders.load(std::memory_order_acquire) == 1 && data_ == b->base) {
    // The last holder of a slice from the block's start takes it back.
    cap_ = b->cap;
    delete b;
    return;
  }
  if (size_ == 0) return Bytes().swap(*this);  // an empty slice owns nothing
  reallocate(size_);
}

void Bytes::reallocate(size_type cap) {
  std::uint8_t* fresh = acquire(cap);
  if (size_ > 0) std::memcpy(fresh, data_, size_);
  release(data_, cap_);
  data_ = fresh;
  cap_ = cap;
}

void Bytes::fill_to(size_type n, std::uint8_t v) {
  const size_type added = n - size_;
  std::memset(extend(added), v, added);
}

void Bytes::insert_view(size_type at, ByteView v) {
  const size_type n = v.size();
  if (n == 0) return;
  if (v.data() >= data_ && v.data() < data_ + size_) {
    const Bytes copy(v);  // v views this buffer, which may move
    return insert_view(at, copy);
  }
  grow_for(n);
  std::memmove(data_ + at + n, data_ + at, size_ - at);
  std::memcpy(data_ + at, v.data(), n);
  size_ += n;
}

}  // namespace mead

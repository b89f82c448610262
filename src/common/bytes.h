// Bytes, the owned octet buffer every wire message lives in: a pointer, a
// size and a capacity. Copies, appends and growth are memcpy/memmove, and
// growth follows std::vector's rule (new capacity = size + max(size,
// added)), so a buffer is reallocated where a vector would be.
//
// A buffer is either unique (copies, the default, are deep) or a read-only
// slice of a block that share() hands to several holders, as one stamped
// frame goes to every peer. A shared buffer owns no capacity, so any growth
// copies its bytes out first (copy-on-write); writing in place through a
// non-const accessor needs own() first, and the const accessors read it
// uncopied. The accessors do not test for sharing, so a unique buffer costs
// what it would without it. The holder count is atomic, so the last holder
// may drop the block on any thread.
//
// Blocks of BufferCache::kMinBlock bytes or more come from BufferCache, a
// per-thread cache of power-of-two classes up to kMaxBlock (at most kCap
// blocks per class, kMaxCachedBytes per thread), so a checkpoint-sized
// buffer lands on warm memory instead of page-faulting in fresh. Modelled
// on sim::detail::FramePool: a block freed on another thread joins that
// thread's lists, a thread's blocks are freed at its exit, and free blocks
// are ASan-poisoned.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <new>
#include <span>
#include <utility>

namespace mead {

/// A read-only view of bytes owned elsewhere (a Bytes, or part of one).
using ByteView = std::span<const std::uint8_t>;

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
  /// Requests this thread's cache has served with a free block.
  [[nodiscard]] static std::uint64_t hits();
};

/// A block that share() made common to several Bytes: freed with its last
/// holder.
struct SharedBlock {
  SharedBlock(std::uint8_t* b, std::size_t c) : base(b), cap(c) {}
  std::atomic<std::size_t> holders{1};
  std::uint8_t* base;
  std::size_t cap;
};

}  // namespace detail

/// Owned octet sequence, used for wire messages throughout the stack. Its
/// interface is the part of std::vector<std::uint8_t> the stack uses;
/// iterators are plain pointers.
class Bytes {
 public:
  using value_type = std::uint8_t;
  using size_type = std::size_t;
  using iterator = std::uint8_t*;
  using const_iterator = const std::uint8_t*;

  Bytes() noexcept = default;
  /// `n` zero bytes.
  explicit Bytes(size_type n) : Bytes(n, 0) {}
  Bytes(size_type n, std::uint8_t v) { resize(n, v); }
  Bytes(std::initializer_list<std::uint8_t> il)
      : Bytes(ByteView(il.begin(), il.size())) {}
  /// A copy of `v`.
  explicit Bytes(ByteView v) { append(v); }
  template <std::input_iterator It>
  Bytes(It first, It last) {
    insert(end(), first, last);
  }
  Bytes(const Bytes& o) : Bytes(ByteView(o)) {}
  Bytes(Bytes&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)),
        size_(std::exchange(o.size_, 0)),
        cap_(std::exchange(o.cap_, 0)) {}
  Bytes& operator=(const Bytes& o) {
    if (this != &o) {
      clear();
      append(o);
    }
    return *this;
  }
  Bytes& operator=(Bytes&& o) noexcept {
    Bytes(std::move(o)).swap(*this);
    return *this;
  }
  ~Bytes() { release(data_, cap_); }

  /// A read-only slice of `n` bytes from `at` on this buffer's block, no
  /// byte copied: this buffer and the slice become holders of the block
  /// (see the file comment).
  [[nodiscard]] Bytes share(size_type at, size_type n);
  [[nodiscard]] Bytes share() { return share(0, size_); }
  /// Whether the block is shared (it may have only this holder left).
  [[nodiscard]] bool shared() const noexcept {
    return static_cast<std::ptrdiff_t>(cap_) < 0;
  }
  /// Makes a shared buffer's bytes its own to write: the last holder of a
  /// slice from the block's start takes the block back, any other copies
  /// its bytes out. A unique buffer is left as it is.
  void own() {
    if (shared()) unshare();
  }

  // The non-const accessors hand out writable bytes: a shared buffer must
  // be own()ed first, or read through const access.
  [[nodiscard]] std::uint8_t* data() noexcept { return writable(); }
  [[nodiscard]] const std::uint8_t* data() const noexcept { return data_; }
  [[nodiscard]] size_type size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// 0 for a shared buffer, which owns no capacity.
  [[nodiscard]] size_type capacity() const noexcept { return shared() ? 0 : cap_; }
  iterator begin() noexcept { return writable(); }
  iterator end() noexcept { return writable() + size_; }
  const_iterator begin() const noexcept { return data_; }
  const_iterator end() const noexcept { return data_ + size_; }
  std::uint8_t& operator[](size_type i) noexcept { return writable()[i]; }
  const std::uint8_t& operator[](size_type i) const noexcept { return data_[i]; }

  void clear() noexcept { size_ = 0; }
  /// Grows the capacity to exactly `n` if it is smaller (a shared buffer
  /// has none of its own: it is copied out).
  void reserve(size_type n) {
    if (!fits(n)) reallocate(std::max(n, size_));
  }
  /// New bytes are `v` (zero by default).
  void resize(size_type n, std::uint8_t v = 0) {
    if (n > size_) return fill_to(n, v);
    size_ = n;
  }
  /// Grows the size by `n`; returns the first new byte, uninitialised.
  std::uint8_t* extend(size_type n) {
    grow_for(n);
    size_ += n;
    return data_ + size_ - n;
  }
  void push_back(std::uint8_t v) {
    grow_for(1);
    data_[size_++] = v;
  }
  /// Appends `v`, which may view this buffer.
  void append(ByteView v) {
    if (data_ == nullptr || !fits(size_ + v.size())) return insert_view(size_, v);
    if (!v.empty()) std::memcpy(data_ + size_, v.data(), v.size());
    size_ += v.size();  // v, if it views this buffer, ends at size_ at most
  }
  /// Inserts [first, last) before `pos`.
  template <std::input_iterator It>
  iterator insert(const_iterator pos, It first, It last) {
    const auto at = static_cast<size_type>(pos - data_);
    if constexpr (std::contiguous_iterator<It> &&
                  sizeof(std::iter_value_t<It>) == 1) {
      insert_view(at, ByteView(reinterpret_cast<const std::uint8_t*>(
                                   std::to_address(first)),
                               static_cast<size_type>(last - first)));
    } else {
      Bytes tmp;
      for (; first != last; ++first) tmp.push_back(static_cast<std::uint8_t>(*first));
      insert_view(at, tmp);
    }
    return data_ + at;
  }
  /// Removes [first, last); later bytes move down. Writes in place, so a
  /// shared buffer must be own()ed first.
  iterator erase(const_iterator first, const_iterator last) noexcept {
    const auto at = static_cast<size_type>(first - data_);
    const auto n = static_cast<size_type>(last - first);
    std::uint8_t* const d = writable();
    if (n > 0) std::memmove(d + at, d + at + n, size_ - at - n);
    size_ -= n;
    return d + at;
  }
  /// Drops the first `n` bytes; a shared buffer narrows its slice.
  void erase_prefix(size_type n) noexcept {
    if (!shared()) {
      erase(data_, data_ + n);
      return;
    }
    data_ += n;
    size_ -= n;
  }
  void swap(Bytes& o) noexcept {
    std::swap(data_, o.data_);
    std::swap(size_, o.size_);
    std::swap(cap_, o.cap_);
  }

  friend bool operator==(const Bytes& a, ByteView b) noexcept {
    return a.size_ == b.size() &&
           (a.size_ == 0 || std::memcmp(a.data_, b.data(), a.size_) == 0);
  }
  friend bool operator==(const Bytes& a, const Bytes& b) noexcept {
    return a == ByteView(b);
  }
  /// Lexicographic, as std::vector orders.
  friend std::strong_ordering operator<=>(const Bytes& a, const Bytes& b) noexcept {
    const size_type n = std::min(a.size_, b.size_);
    const int c = n == 0 ? 0 : std::memcmp(a.data_, b.data_, n);
    return c != 0 ? c <=> 0 : a.size_ <=> b.size_;
  }

 private:
  /// Set in a shared buffer's cap_, which holds its SharedBlock's address
  /// (user-space addresses leave the top bit clear). fits() never holds
  /// for it, so any growth copies the bytes out; and it is past
  /// BufferCache::kMinBlock, so release() takes it to release_large(),
  /// which drops a holder. The accessors and the destructor of a unique
  /// buffer test nothing for sharing.
  static constexpr size_type kShared = size_type{1} << (sizeof(size_type) * 8 - 1);
  static_assert(sizeof(std::uintptr_t) == sizeof(size_type));

  [[nodiscard]] detail::SharedBlock* block() const noexcept {
    return reinterpret_cast<detail::SharedBlock*>(cap_ & ~kShared);
  }
  /// Whether `n` bytes fit in the capacity; never for a shared buffer.
  [[nodiscard]] bool fits(size_type n) const noexcept {
    return n <= cap_ && !shared();
  }
  [[nodiscard]] std::uint8_t* writable() const noexcept {
    assert(!shared() && "own() a shared Bytes before writing to it");
    return data_;
  }
  static std::uint8_t* acquire(size_type n) {
    if (n < detail::BufferCache::kMinBlock) {
      return static_cast<std::uint8_t*>(::operator new(n));
    }
    return static_cast<std::uint8_t*>(detail::BufferCache::allocate(n));
  }
  /// Lets go of a buffer's block: frees one of its own, or drops one
  /// holder of a shared one.
  static void release(std::uint8_t* p, size_type cap) noexcept {
    if (p == nullptr) return;
    if (cap < detail::BufferCache::kMinBlock) return ::operator delete(p, cap);
    release_large(p, cap);
  }
  static void release_large(std::uint8_t* p, size_type cap) noexcept;
  void unshare();
  /// Room for `added` more bytes, growing as std::vector does.
  void grow_for(size_type added) {
    if (!fits(size_ + added)) reallocate(size_ + std::max(size_, added));
  }
  void reallocate(size_type cap);
  void insert_view(size_type at, ByteView v);
  // Out of line because, inlined into a caller that shrinks by a constant,
  // GCC 12 cannot bound n - size_ and reports a false -Wstringop-overflow.
  void fill_to(size_type n, std::uint8_t v);

  std::uint8_t* data_ = nullptr;
  size_type size_ = 0;
  /// Bytes owned at data_; for a shared buffer, kShared and its block.
  size_type cap_ = 0;
};

/// Appends `src` to `dst`.
inline void append_bytes(Bytes& dst, ByteView src) { dst.append(src); }

}  // namespace mead

// Small-buffer-optimized, move-only callable for kernel events.
//
// The dominant event shapes in this simulator — coroutine resumes
// ([h] { h.resume(); }), timer wakes (a WaiterPtr + an epoch), and network
// deliveries (a ConnPtr + a moved-in payload vector) — all fit in a single
// cache line of capture state. std::function would heap-allocate several of
// them and drags non-trivial move machinery through every priority-queue
// sift. EventFn stores up to kInlineCapacity bytes of callable inline and
// relocates by memcpy, so moving an event is two stores and no dispatch.
//
// Contract: callables stored inline must be *trivially relocatable* — a
// move-construct into new storage followed by destruction of the source must
// be equivalent to memcpy. Every capture type the kernel uses (raw pointers,
// integers, coroutine_handle, shared_ptr, std::vector, std::string with any
// mainstream ABI) satisfies this. Callables that are larger than the inline
// buffer, over-aligned, or not nothrow-move-constructible are boxed on the
// heap (the inline slot then holds only the pointer, which relocates
// trivially by definition).
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace mead::sim {

class EventFn {
 public:
  /// Sized for the largest hot-path event (a network delivery: Network*,
  /// shared_ptr<Conn>, side index, moved-in Bytes payload ≈ 56 bytes).
  static constexpr std::size_t kInlineCapacity = 64;

  EventFn() noexcept = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  // NOLINTNEXTLINE(google-explicit-constructor): drop-in for std::function.
  EventFn(F&& f) { emplace(std::forward<F>(f)); }

  EventFn(EventFn&& o) noexcept : ops_(std::exchange(o.ops_, nullptr)) {
    std::memcpy(storage_, o.storage_, kInlineCapacity);
  }
  EventFn& operator=(EventFn&& o) noexcept {
    if (this != &o) {
      reset();
      std::memcpy(storage_, o.storage_, kInlineCapacity);
      ops_ = std::exchange(o.ops_, nullptr);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  /// Constructs a callable directly in this EventFn's storage, destroying
  /// any previous one — the no-move path Simulator::schedule uses to build
  /// the event in its queue slot.
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  void emplace(F&& f) {
    using Fn = std::remove_cvref_t<F>;
    reset();
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  void operator()() { ops_->invoke(storage_); }

  /// Whether an Fn is stored inline rather than boxed on the heap.
  template <typename Fn>
  [[nodiscard]] static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineCapacity &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  /// Destroys the held callable (no-op when empty).
  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    // nullptr when destruction is a no-op (trivially destructible inline
    // callables — e.g. a plain coroutine-resume capture), so the hot loop
    // skips an indirect call per event.
    void (*destroy)(void*);
  };


  template <typename Fn>
  static void invoke_inline(void* p) {
    (*std::launder(static_cast<Fn*>(p)))();
  }
  template <typename Fn>
  static void destroy_inline(void* p) {
    std::launder(static_cast<Fn*>(p))->~Fn();
  }
  template <typename Fn>
  static void invoke_heap(void* p) {
    (**std::launder(static_cast<Fn**>(p)))();
  }
  template <typename Fn>
  static void destroy_heap(void* p) {
    delete *std::launder(static_cast<Fn**>(p));
  }

  template <typename Fn>
  static constexpr Ops kInlineOps{
      &invoke_inline<Fn>,
      std::is_trivially_destructible_v<Fn> ? nullptr : &destroy_inline<Fn>};
  template <typename Fn>
  static constexpr Ops kHeapOps{&invoke_heap<Fn>, &destroy_heap<Fn>};

  alignas(std::max_align_t) std::byte storage_[kInlineCapacity];
  const Ops* ops_ = nullptr;
};

}  // namespace mead::sim

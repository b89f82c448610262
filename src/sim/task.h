// Lazy coroutine task type for the discrete-event kernel.
//
// Task<T> is a single-owner, lazily-started coroutine. Awaiting it starts it
// via symmetric transfer; when it completes, control returns to the awaiter.
// Detached ("fire and forget") execution goes through Simulator::spawn.
//
// Error handling convention: coroutines in this project return
// Expected<...>-style values instead of throwing. A C++ exception escaping a
// coroutine is a programming error and terminates (see unhandled_exception).
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <exception>
#include <optional>
#include <type_traits>
#include <utility>

namespace mead::sim {

namespace detail {

/// Recycles coroutine frames through per-thread free lists in 16-byte size
/// classes (malloc's own rounding, so a live frame wastes nothing), at
/// most kCap blocks per class; frames above kMaxFrame and frees past the
/// cap use ::operator new/delete. A frame freed on another thread joins
/// that thread's lists. Free blocks are ASan-poisoned, so touching a
/// destroyed frame is still reported.
struct FramePool {
  static constexpr std::size_t kGranule = 16;
  static constexpr std::size_t kMaxFrame = 2048;
  static constexpr std::size_t kCap = 16;

  static void* allocate(std::size_t n);
  static void deallocate(void* p, std::size_t n) noexcept;
  /// Blocks this thread holds for frames of `n` bytes (0 above kMaxFrame).
  [[nodiscard]] static std::size_t cached(std::size_t n);
};

/// Base of every promise type; its coroutine frames come from FramePool.
struct PromiseBase {
  std::coroutine_handle<> continuation;

  static void* operator new(std::size_t n) { return FramePool::allocate(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    FramePool::deallocate(p, n);
  }

  struct FinalAwaiter {
    [[nodiscard]] bool await_ready() const noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) const noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };

  [[nodiscard]] std::suspend_always initial_suspend() const noexcept { return {}; }
  [[nodiscard]] FinalAwaiter final_suspend() const noexcept { return {}; }
  [[noreturn]] void unhandled_exception() const noexcept { std::terminate(); }
};

/// Holds a Task's result until its awaiter takes it.
template <typename T>
struct Promise : PromiseBase {
  std::optional<T> value;
  void return_value(T v) { value.emplace(std::move(v)); }
};

template <>
struct Promise<void> : PromiseBase {
  void return_void() const noexcept {}
};

}  // namespace detail

template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::Promise<T> {
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task(Task&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, {});
    }
    return *this;
  }
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const { return static_cast<bool>(h_); }

  // Awaiter interface (Task is its own awaiter; single-shot).
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
    assert(h_ && !h_.done());
    h_.promise().continuation = cont;
    return h_;  // start the child lazily via symmetric transfer
  }
  T await_resume() {
    assert(h_ && h_.done());
    if constexpr (!std::is_void_v<T>) {
      assert(h_.promise().value.has_value());
      return std::move(*h_.promise().value);
    }
  }

 private:
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }

  std::coroutine_handle<promise_type> h_;
};

}  // namespace mead::sim

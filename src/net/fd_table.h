// Dense per-descriptor state, indexed by the fd itself (fds are small,
// monotonic and never reused). Entries sit in a deque of optionals, so
// growth never moves one: a reference held across a coroutine suspension
// stays valid. Iteration runs in ascending fd order.
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

namespace mead::net {

template <typename T>
class FdTable {
 public:
  [[nodiscard]] T* find(int fd) {
    const bool in = fd >= 0 && index(fd) < slots_.size() && slots_[index(fd)];
    return in ? &*slots_[index(fd)] : nullptr;
  }

  /// The entry at `fd` (>= 0), constructed from `args` if absent; an
  /// existing entry is left as it is.
  template <typename... Args>
  T& try_emplace(int fd, Args&&... args) {
    if (index(fd) >= slots_.size()) slots_.resize(index(fd) + 1);
    auto& slot = slots_[index(fd)];
    if (!slot) slot.emplace(std::forward<Args>(args)...);
    return *slot;
  }
  /// Removes and returns the entry at `fd`, if any.
  std::optional<T> take(int fd) {
    if (find(fd) == nullptr) return std::nullopt;
    return std::exchange(slots_[index(fd)], std::nullopt);
  }
  void erase(int fd) { (void)take(fd); }

  /// Calls `f(fd, entry)` for every entry in ascending fd order; `f` may
  /// install or erase entries.
  template <typename F>
  void for_each(F&& f) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i]) f(static_cast<int>(i), *slots_[i]);
    }
  }

 private:
  static std::size_t index(int fd) { return static_cast<std::size_t>(fd); }

  std::deque<std::optional<T>> slots_;
};

}  // namespace mead::net

// A minimal std::expected-like Result type (C++20; std::expected is C++23).
//
// Used across the ORB and network layers where errors (COMM_FAILURE,
// connection reset, timeout) are ordinary control flow and must not unwind
// through coroutine frames.
#pragma once

#include <cassert>
#include <type_traits>
#include <utility>
#include <variant>

namespace mead {

/// Wrapper marking a value as an error when constructing an Expected.
template <typename E>
struct Unexpected {
  E error;
};

template <typename E>
Unexpected<E> make_unexpected(E e) {
  return Unexpected<E>{std::move(e)};
}

/// Holds either a value of type T or an error of type E.
/// Accessors assert on misuse; callers must check has_value() / ok() first.
template <typename T, typename E>
class Expected {
 public:
  Expected(T value) : data_(std::in_place_index<0>, std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Expected(Unexpected<E> e) : data_(std::in_place_index<1>, std::move(e.error)) {}  // NOLINT(google-explicit-constructor)
  /// From an Expected of another value type, as std::expected converts:
  /// implicit where a U converts to a T implicitly.
  template <typename U>
    requires(!std::is_same_v<U, T> && std::is_constructible_v<T, const U&>)
  explicit(!std::is_convertible_v<const U&, T>) Expected(const Expected<U, E>& o)  // NOLINT(google-explicit-constructor)
      : data_(o.has_value() ? std::variant<T, E>(std::in_place_index<0>, o.value())
                            : std::variant<T, E>(std::in_place_index<1>, o.error())) {}

  [[nodiscard]] bool has_value() const { return data_.index() == 0; }
  [[nodiscard]] bool ok() const { return has_value(); }
  explicit operator bool() const { return has_value(); }

  [[nodiscard]] T& value() & { assert(has_value()); return std::get<0>(data_); }
  [[nodiscard]] const T& value() const& { assert(has_value()); return std::get<0>(data_); }
  [[nodiscard]] T&& value() && { assert(has_value()); return std::get<0>(std::move(data_)); }

  [[nodiscard]] E& error() & { assert(!has_value()); return std::get<1>(data_); }
  [[nodiscard]] const E& error() const& { assert(!has_value()); return std::get<1>(data_); }

  [[nodiscard]] T value_or(T fallback) const& {
    return has_value() ? std::get<0>(data_) : std::move(fallback);
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::variant<T, E> data_;
};

/// void specialization: success carries no value.
template <typename E>
class Expected<void, E> {
 public:
  Expected() = default;
  Expected(Unexpected<E> e) : error_(std::move(e.error)), has_error_(true) {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool has_value() const { return !has_error_; }
  [[nodiscard]] bool ok() const { return has_value(); }
  explicit operator bool() const { return has_value(); }

  [[nodiscard]] const E& error() const { assert(has_error_); return error_; }

 private:
  E error_{};
  bool has_error_ = false;
};

}  // namespace mead

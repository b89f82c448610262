// Fundamental value types shared by every module: virtual time, identifiers,
// and the byte buffer (common/bytes.h).
//
// All simulation time in this project is *virtual* time maintained by the
// discrete-event kernel (sim::Simulator). We use dedicated nanosecond-based
// types rather than std::chrono system clocks so that a wall-clock value can
// never be mixed into simulated timing by accident.
#pragma once

#include <cstdint>
#include <compare>
#include <string>
#include <vector>

#include "common/bytes.h"

namespace mead {

/// A span of virtual time, in nanoseconds. Arithmetic is checked only by
/// type discipline (Duration +/- Duration, TimePoint + Duration).
class Duration {
 public:
  constexpr Duration() = default;
  constexpr explicit Duration(std::int64_t ns) : ns_(ns) {}

  [[nodiscard]] constexpr std::int64_t ns() const { return ns_; }
  [[nodiscard]] constexpr double us() const { return static_cast<double>(ns_) / 1e3; }
  [[nodiscard]] constexpr double ms() const { return static_cast<double>(ns_) / 1e6; }
  [[nodiscard]] constexpr double sec() const { return static_cast<double>(ns_) / 1e9; }

  constexpr auto operator<=>(const Duration&) const = default;
  constexpr Duration operator+(Duration o) const { return Duration{ns_ + o.ns_}; }
  constexpr Duration operator-(Duration o) const { return Duration{ns_ - o.ns_}; }
  constexpr Duration& operator+=(Duration o) { ns_ += o.ns_; return *this; }
  constexpr Duration& operator-=(Duration o) { ns_ -= o.ns_; return *this; }
  constexpr Duration operator*(std::int64_t k) const { return Duration{ns_ * k}; }
  constexpr Duration operator/(std::int64_t k) const { return Duration{ns_ / k}; }

 private:
  std::int64_t ns_ = 0;
};

constexpr Duration nanoseconds(std::int64_t v) { return Duration{v}; }
constexpr Duration microseconds(std::int64_t v) { return Duration{v * 1'000}; }
constexpr Duration milliseconds(std::int64_t v) { return Duration{v * 1'000'000}; }
constexpr Duration seconds(std::int64_t v) { return Duration{v * 1'000'000'000}; }

/// Fractional-millisecond helper for calibration constants (e.g. 0.75 ms).
constexpr Duration millis_f(double v) {
  return Duration{static_cast<std::int64_t>(v * 1e6)};
}

/// An instant in virtual time (nanoseconds since simulation start).
class TimePoint {
 public:
  constexpr TimePoint() = default;
  constexpr explicit TimePoint(std::int64_t ns) : ns_(ns) {}

  [[nodiscard]] constexpr std::int64_t ns() const { return ns_; }
  [[nodiscard]] constexpr double ms() const { return static_cast<double>(ns_) / 1e6; }
  [[nodiscard]] constexpr double sec() const { return static_cast<double>(ns_) / 1e9; }

  constexpr auto operator<=>(const TimePoint&) const = default;
  constexpr TimePoint operator+(Duration d) const { return TimePoint{ns_ + d.ns()}; }
  constexpr TimePoint operator-(Duration d) const { return TimePoint{ns_ - d.ns()}; }
  constexpr Duration operator-(TimePoint o) const { return Duration{ns_ - o.ns_}; }

 private:
  std::int64_t ns_ = 0;
};

/// Strongly-typed integral identifier. `Tag` is an empty struct that makes
/// each instantiation a distinct type (NodeId vs ProcessId vs ...).
template <typename Tag>
class Id {
 public:
  constexpr Id() = default;
  constexpr explicit Id(std::uint64_t v) : v_(v) {}
  [[nodiscard]] constexpr std::uint64_t value() const { return v_; }
  constexpr auto operator<=>(const Id&) const = default;

 private:
  std::uint64_t v_ = 0;
};

template <typename Tag>
std::string to_string(Id<Tag> id) {
  return std::to_string(id.value());
}

struct NodeIdTag {};
struct ProcessIdTag {};
struct ConnIdTag {};

/// Identifies a simulated host ("node" in the paper's Emulab testbed).
using NodeId = Id<NodeIdTag>;
/// Identifies a simulated OS process (server replica, client, daemon, ...).
using ProcessId = Id<ProcessIdTag>;
/// Identifies one TCP-like connection in the virtual network.
using ConnId = Id<ConnIdTag>;

}  // namespace mead

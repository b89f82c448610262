// Process-scoped metrics registry: named monotonic counters, gauges, and
// sample series, shared by every layer of one simulation.
//
// The registry is the single source of truth for the quantities the paper's
// evaluation reports (Table 1 counters, Figure 5 byte accounting, RTT
// series); benches and the app::Experiment facade read results from here
// instead of scraping per-object getters.
//
// Hot-path discipline: counter()/gauge()/series() return references that
// stay valid for the registry's lifetime (node-based storage), so callers
// on hot paths (the 10k-invocation loop, per-delivery byte accounting) look
// a metric up once and keep the pointer; the per-event cost is then one
// integer add.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"

namespace mead::obs {

/// Monotonic event/byte counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins instantaneous value (resource usage, queue depth, ...).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0;
};

/// Counter values by name, sorted like the registry itself.
using CounterSnapshot = std::map<std::string, std::uint64_t, std::less<>>;

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates. References remain valid until the registry dies.
  [[nodiscard]] Counter& counter(const std::string& name) {
    return counters_[name];
  }
  [[nodiscard]] Gauge& gauge(const std::string& name) { return gauges_[name]; }
  [[nodiscard]] Series& series(const std::string& name) {
    auto [it, fresh] = series_.try_emplace(name, name);
    (void)fresh;
    return it->second;
  }

  /// Read-only lookups; a metric that was never created reads as 0 / null.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;
  [[nodiscard]] double gauge_value(std::string_view name) const;
  [[nodiscard]] const Series* find_series(std::string_view name) const;

  [[nodiscard]] std::size_t counter_count() const { return counters_.size(); }

  /// Read-only copy of every counter's current value.
  [[nodiscard]] CounterSnapshot counter_snapshot() const;
  /// Counters that grew since `base` (a snapshot of this registry), with
  /// their growth; a counter created after `base` counts from 0. Read-only:
  /// it never creates a counter.
  [[nodiscard]] CounterSnapshot counter_deltas(
      const CounterSnapshot& base) const;

  /// All counters and gauges as sorted `name,value` CSV lines (counters
  /// first), for the per-bench metrics artifact.
  [[nodiscard]] std::string to_csv() const;

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Series, std::less<>> series_;
};

}  // namespace mead::obs

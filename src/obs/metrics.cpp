#include "obs/metrics.h"

#include <cstdio>

namespace mead::obs {

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

double MetricsRegistry::gauge_value(std::string_view name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second.value();
}

const Series* MetricsRegistry::find_series(std::string_view name) const {
  auto it = series_.find(name);
  return it == series_.end() ? nullptr : &it->second;
}

CounterSnapshot MetricsRegistry::counter_snapshot() const {
  CounterSnapshot out;
  for (const auto& [name, c] : counters_) {
    out.emplace_hint(out.end(), name, c.value());
  }
  return out;
}

CounterSnapshot MetricsRegistry::counter_deltas(
    const CounterSnapshot& base) const {
  // Counters are never removed, so every name in `base` is also in
  // counters_, in the same order: one merged walk over the two maps.
  CounterSnapshot out;
  auto b = base.begin();
  for (const auto& [name, c] : counters_) {
    std::uint64_t v0 = 0;
    if (b != base.end() && b->first == name) v0 = (b++)->second;
    if (c.value() != v0) out.emplace_hint(out.end(), name, c.value() - v0);
  }
  return out;
}

std::string MetricsRegistry::to_csv() const {
  std::string out = "metric,value\n";
  for (const auto& [name, c] : counters_) {
    out += name;
    out += ',';
    out += std::to_string(c.value());
    out += '\n';
  }
  for (const auto& [name, g] : gauges_) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", g.value());
    out += name;
    out += ',';
    out += buf;
    out += '\n';
  }
  return out;
}

}  // namespace mead::obs

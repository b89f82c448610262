#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return percentile(values, 50);
}

std::size_t samples_beyond(std::size_t n, double p) {
  const auto tail_bp =
      static_cast<std::uint64_t>(std::llround((100.0 - p) * 100.0));
  return static_cast<std::size_t>(static_cast<std::uint64_t>(n) * tail_bp /
                                  10000);
}

double tail_mean(const std::vector<double>& sorted, double p) {
  const std::size_t k = samples_beyond(sorted.size(), p);
  if (k == 0) return 0;
  double sum = 0;
  for (std::size_t i = sorted.size() - k; i < sorted.size(); ++i) sum += sorted[i];
  return sum / static_cast<double>(k);
}

bool percentile_supported(std::size_t n, double p) {
  return samples_beyond(n, p) >= kMinTailSamples;
}

double highest_supported_percentile(std::size_t n) {
  double best = 0;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (percentile_supported(n, p)) best = p;
  }
  return best;
}

namespace {

bool alnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64 || !alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return alnum(c) || c == '_' || c == '/' || c == '%' || c == '.' ||
           c == '-';
  });
}

void Report::add(std::string name, std::string unit, double value) {
  if (!valid_metric_name(name) || !valid_unit(unit)) {
    fail("invalid metric name or unit: '" + name + "' [" + unit + "]");
    return;
  }
  if (find(name) != nullptr) {
    fail("duplicate metric " + name);
    return;
  }
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not finite");
    return;
  }
  metrics_.push_back(Metric{std::move(name), std::move(unit), value});
}

void Report::fail(const std::string& reason) {
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", reason.c_str());
  failures_.push_back(reason);
}

const Metric* Report::find(std::string_view name) const {
  for (const auto& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string Report::json(std::uint64_t attempted, std::uint64_t failed) const {
  // Names and units are checked against a charset with no JSON
  // metacharacters, so they need no escaping.
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char num[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::snprintf(num, sizeof num, "%.17g", m.value);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + num + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench

// Statistics and report plumbing shared by the benchmark program and its
// tests: percentiles with the ten-samples-beyond rule, medians, the
// metric-name/unit charset, and the one-line JSON result.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// beyond it.
inline constexpr std::size_t kMinTailSamples = 10;

/// Linear-interpolated percentile of `sorted` (ascending), p in [0, 100].
/// 0 for an empty input.
[[nodiscard]] double percentile(const std::vector<double>& sorted, double p);

/// Median of `values` (any order). 0 for an empty input.
[[nodiscard]] double median(std::vector<double> values);

/// Samples lying beyond percentile `p` among `n`: floor(n * (100 - p) / 100),
/// computed in basis points so 99.9 does not round down.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);

/// Mean of the samples_beyond(n, p) largest values of `sorted` (the tail
/// beyond percentile p); 0 when that tail is empty.
[[nodiscard]] double tail_mean(const std::vector<double>& sorted, double p);

/// True when percentile `p` of `n` samples has kMinTailSamples beyond it.
[[nodiscard]] bool percentile_supported(std::size_t n, double p);

/// The highest of 50, 90, 99, 99.9, 99.99 that `n` samples support; 0 when
/// not even the median has ten samples beyond it.
[[nodiscard]] double highest_supported_percentile(std::size_t n);

/// Metric names: 1-64 of [A-Za-z0-9_.-], starting with a letter or digit.
[[nodiscard]] bool valid_metric_name(std::string_view name);
/// Units: 1-16 of [A-Za-z0-9_/%.-].
[[nodiscard]] bool valid_unit(std::string_view unit);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// The benchmark's result: named metrics plus the correctness verdict,
/// printed as one JSON object on the last line of stdout.
class Report {
 public:
  /// Adds a metric. An invalid name or unit, a duplicate name, or a
  /// non-finite value marks the report incorrect (and is kept out of it).
  void add(std::string name, std::string unit, double value);
  /// Records a failed correctness check; the reason goes to stderr.
  void fail(const std::string& reason);

  [[nodiscard]] bool correct() const { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }

  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  [[nodiscard]] std::string json(std::uint64_t attempted,
                                 std::uint64_t failed) const;

 private:
  [[nodiscard]] const Metric* find(std::string_view name) const;

  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
};

}  // namespace perfbench

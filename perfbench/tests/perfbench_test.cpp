// Tests of the benchmark's own rules: the percentile rule, the metric-name
// and unit charset, the JSON result line, and that every layer probe times
// real work.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "metrics.h"
#include "probes.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(Percentile, InterpolatesLinearly) {
  const std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(PercentileRule, NeedsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(10'000, 99.9), 10u);  // no round-down at 99.9
  EXPECT_TRUE(percentile_supported(10'000, 99.9));
  EXPECT_FALSE(percentile_supported(9'999, 99.9));
  EXPECT_TRUE(percentile_supported(100, 90));
  EXPECT_FALSE(percentile_supported(99, 90));
  EXPECT_TRUE(percentile_supported(20, 50));
  EXPECT_FALSE(percentile_supported(19, 50));
}

TEST(PercentileRule, TailMeanAveragesTheSamplesBeyond) {
  std::vector<double> v(100, 1.0);
  for (std::size_t i = 90; i < 100; ++i) v[i] = static_cast<double>(i);
  EXPECT_DOUBLE_EQ(tail_mean(v, 90), 94.5);  // the ten largest
  EXPECT_DOUBLE_EQ(tail_mean(v, 99.9), 0);   // nothing beyond
}

TEST(PercentileRule, ReportsHighestSupported) {
  EXPECT_DOUBLE_EQ(highest_supported_percentile(19), 0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(20), 50);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(999), 90);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(1000), 99);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(10'000), 99.9);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(250'000), 99.99);
}

TEST(MetricNames, Charset) {
  EXPECT_TRUE(valid_metric_name("rtt_ms.p999"));
  EXPECT_TRUE(valid_metric_name("attrib.unattributed_ms"));
  EXPECT_TRUE(valid_metric_name("9lives-x"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".hidden"));
  EXPECT_FALSE(valid_metric_name("_x"));
  EXPECT_FALSE(valid_metric_name("rtt ms"));
  EXPECT_FALSE(valid_metric_name("a\"b"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_TRUE(valid_unit("B/s"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_FALSE(valid_unit("µs"));
  EXPECT_FALSE(valid_unit(""));
  EXPECT_FALSE(valid_unit(std::string(17, 's')));
}

TEST(Report, RejectsBadMetricsAndPrintsJson) {
  Report r;
  r.add("latency_ms", "ms", 1.25);
  EXPECT_TRUE(r.correct());
  EXPECT_EQ(r.json(4, 0),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": "
            "{\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}");
  r.add("latency_ms", "ms", 2);  // duplicate
  EXPECT_FALSE(r.correct());
  Report bad;
  bad.add("x", "ms", std::numeric_limits<double>::quiet_NaN());
  bad.add("bad name", "ms", 1);
  EXPECT_EQ(bad.failures().size(), 2u);
  EXPECT_TRUE(bad.metrics().empty());
}

TEST(Workloads, DeriveSeedsFromTheArgument) {
  for (const auto& name : workload_names()) {
    const auto a = make_workload(name, 7);
    const auto b = make_workload(name, 7);
    const auto c = make_workload(name, 8);
    ASSERT_TRUE(a && b && c) << name;
    ASSERT_FALSE(a->sims.empty());
    EXPECT_EQ(a->sims.front().spec.seed, 7u) << name;
    EXPECT_EQ(c->sims.front().spec.seed, 8u) << name;
    EXPECT_EQ(a->sims.size(), b->sims.size());
  }
  EXPECT_FALSE(make_workload("nope", 1));
}

TEST(Probes, EveryProbeTimesNonZeroWork) {
  for (const auto& name : workload_names()) {
    const auto w = make_workload(name, 1);
    ASSERT_TRUE(w);
    const auto probes = run_probes(*w, 0.05);
    std::set<std::string> names;
    for (const auto& p : probes) {
      EXPECT_GT(p.ns, 0) << name << " " << p.name;
      EXPECT_TRUE(std::isfinite(p.ns)) << p.name;
      EXPECT_TRUE(valid_metric_name(p.name)) << p.name;
      EXPECT_TRUE(names.insert(p.name).second) << "duplicate " << p.name;
    }
    EXPECT_GE(probes.size(), 10u);
  }
}

}  // namespace
}  // namespace perfbench

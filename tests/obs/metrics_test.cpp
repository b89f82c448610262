#include "obs/metrics.h"

#include <gtest/gtest.h>

namespace mead::obs {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  EXPECT_EQ(c.value(), 1u);
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, LastWriteWins) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(3.5);
  g.set(-1.25);
  EXPECT_EQ(g.value(), -1.25);
}

TEST(MetricsRegistryTest, CounterFindsOrCreatesByName) {
  MetricsRegistry reg;
  Counter& a = reg.counter("net.bytes.total");
  a.add(10);
  // Same name -> same counter object.
  EXPECT_EQ(&reg.counter("net.bytes.total"), &a);
  EXPECT_EQ(reg.counter("net.bytes.total").value(), 10u);
  // Different name -> independent counter.
  reg.counter("other").add(1);
  EXPECT_EQ(reg.counter("net.bytes.total").value(), 10u);
}

TEST(MetricsRegistryTest, ReferencesStayValidAsRegistryGrows) {
  // Hot paths cache Counter* across later registrations; node-based
  // storage must keep them valid.
  MetricsRegistry reg;
  Counter* first = &reg.counter("first");
  for (int i = 0; i < 1000; ++i) {
    std::string name = "c";  // appended: GCC 12 warns on "c" + string
    name += std::to_string(i);
    reg.counter(name).add();
  }
  first->add(7);
  EXPECT_EQ(reg.counter("first").value(), 7u);
  EXPECT_EQ(reg.counter_count(), 1001u);
}

TEST(MetricsRegistryTest, ReadOnlyLookupsDoNotCreate) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.counter_value("never.created"), 0u);
  EXPECT_EQ(reg.gauge_value("never.created"), 0.0);
  EXPECT_EQ(reg.find_series("never.created"), nullptr);
  EXPECT_EQ(reg.counter_count(), 0u);
}

TEST(MetricsRegistryTest, SeriesKeepsNameAndSamples) {
  MetricsRegistry reg;
  Series& s = reg.series("client.rtt_ms");
  s.add(1.0);
  s.add(3.0);
  EXPECT_EQ(&reg.series("client.rtt_ms"), &s);
  const Series* found = reg.find_series("client.rtt_ms");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->count(), 2u);
  EXPECT_DOUBLE_EQ(found->mean(), 2.0);
}

TEST(MetricsRegistryTest, CsvSortedAndStable) {
  MetricsRegistry reg;
  reg.counter("b").add(2);
  reg.counter("a").add(1);
  reg.gauge("z").set(0.5);
  const std::string csv = reg.to_csv();
  EXPECT_EQ(csv, "metric,value\na,1\nb,2\nz,0.5\n");
  EXPECT_EQ(csv, reg.to_csv());  // repeatable
}

}  // namespace
}  // namespace mead::obs

// FdTable: the dense fd-indexed table behind every per-descriptor state map
// (process descriptor tables, GC daemon links and batches, MEAD interceptor
// connections).
#include "net/fd_table.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace mead::net {
namespace {

TEST(FdTableTest, FindAndErase) {
  FdTable<std::string> t;
  EXPECT_EQ(t.find(3), nullptr);
  EXPECT_EQ(t.find(-1), nullptr);
  t.try_emplace(5, "five");
  ASSERT_NE(t.find(5), nullptr);
  EXPECT_EQ(*t.find(5), "five");
  EXPECT_EQ(t.find(4), nullptr);  // inside the grown range, never installed
  EXPECT_EQ(t.find(6), nullptr);  // past the end
  // An occupied fd keeps its entry.
  EXPECT_EQ(t.try_emplace(5, "other"), "five");

  auto taken = t.take(5);
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(*taken, "five");
  EXPECT_EQ(t.find(5), nullptr);
  EXPECT_FALSE(t.take(5).has_value());
  EXPECT_FALSE(t.take(-3).has_value());

  t.try_emplace(7, "seven");
  t.erase(7);
  t.erase(7);  // absent: no-op
  EXPECT_EQ(t.find(7), nullptr);
  int entries = 0;
  t.for_each([&](int, std::string&) { ++entries; });
  EXPECT_EQ(entries, 0);
}

TEST(FdTableTest, IteratesInAscendingFdOrder) {
  FdTable<int> t;
  for (int fd : {9, 3, 7, 4}) t.try_emplace(fd, fd * 10);
  t.erase(4);
  std::vector<std::pair<int, int>> seen;
  t.for_each([&](int fd, int& v) { seen.emplace_back(fd, v); });
  EXPECT_EQ(seen, (std::vector<std::pair<int, int>>{{3, 30}, {7, 70}, {9, 90}}));
}

TEST(FdTableTest, ReferencesStayValidAcrossGrowth) {
  // Coroutines hold an entry across suspensions while other fds come and
  // go, so growing the table must never move an entry.
  FdTable<std::vector<int>> t;
  std::vector<int>& first = t.try_emplace(3, std::vector<int>{1, 2, 3});
  const std::vector<int>* addr = &first;
  for (int fd = 4; fd < 5000; ++fd) t.try_emplace(fd, std::vector<int>{fd});
  EXPECT_EQ(t.find(3), addr);
  EXPECT_EQ(first, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(*t.find(4999), std::vector<int>{4999});
}

}  // namespace
}  // namespace mead::net

#include "core/registry.h"

#include <gtest/gtest.h>

namespace mead::core {
namespace {

/// `prefix` then `i`, by append: GCC 12 reports a false -Wrestrict on
/// "literal" + std::to_string(i) at -O3.
std::string numbered(const char* prefix, int i) {
  std::string s = prefix;
  s += std::to_string(i);
  return s;
}

Announce make_announce(const std::string& member, const std::string& host,
                       std::uint16_t port) {
  return Announce{member, net::Endpoint{host, port},
                  giop::IOR{"IDL:mead/TimeOfDay:1.0", net::Endpoint{host, port},
                            giop::ObjectKey::make_persistent("POA/obj")}};
}

gc::View view_of(std::vector<std::string> members, std::uint64_t id = 1) {
  return gc::View{id, std::move(members)};
}

class RegistryTest : public ::testing::Test {
 protected:
  ReplicaRegistry reg_;
};

TEST_F(RegistryTest, EmptyRegistryHasNoTargets) {
  EXPECT_FALSE(reg_.first().has_value());
  EXPECT_FALSE(reg_.next_after("anyone").has_value());
  EXPECT_EQ(reg_.known_count(), 0u);
  EXPECT_FALSE(reg_.is_first("x"));
}

TEST_F(RegistryTest, AnnounceWithoutViewIsNotListed) {
  reg_.on_announce(make_announce("r1", "node1", 20001));
  EXPECT_FALSE(reg_.find("r1").has_value());  // not in any view yet
  EXPECT_EQ(reg_.known_count(), 0u);
}

TEST_F(RegistryTest, ViewPlusAnnounceIsListed) {
  reg_.on_view(view_of({"r1", "r2"}));
  reg_.on_announce(make_announce("r1", "node1", 20001));
  auto rec = reg_.find("r1");
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->endpoint, (net::Endpoint{"node1", 20001}));
  EXPECT_EQ(reg_.known_count(), 1u);
}

TEST_F(RegistryTest, FirstSkipsUnannouncedMembers) {
  // The Recovery Manager joins the group but never announces (§3.3); the
  // "first replica listed" must skip it.
  reg_.on_view(view_of({"recovery-manager", "r1", "r2"}));
  reg_.on_announce(make_announce("r1", "node1", 20001));
  reg_.on_announce(make_announce("r2", "node2", 20002));
  ASSERT_TRUE(reg_.first().has_value());
  EXPECT_EQ(reg_.first()->member, "r1");
  EXPECT_TRUE(reg_.is_first("r1"));
  EXPECT_FALSE(reg_.is_first("recovery-manager"));
  EXPECT_FALSE(reg_.is_first("r2"));
}

TEST_F(RegistryTest, NextAfterCyclesInViewOrder) {
  reg_.on_view(view_of({"r1", "r2", "r3"}));
  for (int i = 1; i <= 3; ++i) {
    reg_.on_announce(make_announce(numbered("r", i), numbered("node", i),
                                   static_cast<std::uint16_t>(20000 + i)));
  }
  EXPECT_EQ(reg_.next_after("r1")->member, "r2");
  EXPECT_EQ(reg_.next_after("r2")->member, "r3");
  EXPECT_EQ(reg_.next_after("r3")->member, "r1");  // wraps
}

TEST_F(RegistryTest, NextAfterSkipsUnannounced) {
  reg_.on_view(view_of({"r1", "rm", "r3"}));
  reg_.on_announce(make_announce("r1", "node1", 20001));
  reg_.on_announce(make_announce("r3", "node3", 20003));
  EXPECT_EQ(reg_.next_after("r1")->member, "r3");  // skips rm
}

TEST_F(RegistryTest, NextAfterNeverReturnsSelf) {
  reg_.on_view(view_of({"r1"}));
  reg_.on_announce(make_announce("r1", "node1", 20001));
  EXPECT_FALSE(reg_.next_after("r1").has_value());
}

TEST_F(RegistryTest, NextAfterUnknownMemberStartsAtFront) {
  reg_.on_view(view_of({"r1", "r2"}));
  reg_.on_announce(make_announce("r1", "node1", 20001));
  reg_.on_announce(make_announce("r2", "node2", 20002));
  EXPECT_EQ(reg_.next_after("stranger")->member, "r1");
}

TEST_F(RegistryTest, ViewChangePrunesDepartedAnnouncements) {
  reg_.on_view(view_of({"r1", "r2"}));
  reg_.on_announce(make_announce("r1", "node1", 20001));
  reg_.on_announce(make_announce("r2", "node2", 20002));
  reg_.on_view(view_of({"r2"}, 2));  // r1 died
  EXPECT_FALSE(reg_.find("r1").has_value());
  EXPECT_EQ(reg_.known_count(), 1u);
  EXPECT_EQ(reg_.first()->member, "r2");
}

TEST_F(RegistryTest, RelaunchedReplicaGetsFreshEndpoint) {
  reg_.on_view(view_of({"r1", "r2"}));
  reg_.on_announce(make_announce("r1", "node1", 20001));
  reg_.on_announce(make_announce("r2", "node2", 20002));
  // r1 dies; relaunched as r4 on the same node with a new port.
  reg_.on_view(view_of({"r2", "r4"}, 2));
  reg_.on_announce(make_announce("r4", "node1", 20004));
  EXPECT_EQ(reg_.next_after("r2")->endpoint.port, 20004);
}

TEST_F(RegistryTest, ListingUpdatesManyAtOnce) {
  reg_.on_view(view_of({"r1", "r2", "r3"}));
  Listing listing;
  listing.entries.push_back(make_announce("r1", "node1", 20001));
  listing.entries.push_back(make_announce("r2", "node2", 20002));
  listing.entries.push_back(make_announce("r3", "node3", 20003));
  reg_.on_listing(listing);
  EXPECT_EQ(reg_.known_count(), 3u);
  EXPECT_EQ(reg_.listed().size(), 3u);
  EXPECT_EQ(reg_.listed()[2].member, "r3");
}

TEST_F(RegistryTest, LookupByKeyHashValidates) {
  reg_.on_view(view_of({"r1"}));
  auto a = make_announce("r1", "node1", 20001);
  reg_.on_announce(a);
  const std::uint16_t good = a.ior.key.hash16();
  EXPECT_TRUE(reg_.lookup_by_key_hash(good, "r1").has_value());
  EXPECT_FALSE(reg_.lookup_by_key_hash(static_cast<std::uint16_t>(good + 1), "r1")
                   .has_value());
  EXPECT_FALSE(reg_.lookup_by_key_hash(good, "r9").has_value());
}

TEST_F(RegistryTest, ViewShrinkingToEmptyClearsEverything) {
  reg_.on_view(view_of({"r1", "r2", "r3"}));
  for (int i = 1; i <= 3; ++i) {
    reg_.on_announce(make_announce(numbered("r", i), numbered("node", i),
                                   static_cast<std::uint16_t>(20000 + i)));
  }
  ASSERT_EQ(reg_.known_count(), 3u);
  // Total group failure: the daemon delivers an empty view.
  reg_.on_view(view_of({}, 2));
  EXPECT_EQ(reg_.known_count(), 0u);
  EXPECT_FALSE(reg_.first().has_value());
  EXPECT_FALSE(reg_.next_after("r1").has_value());
  EXPECT_TRUE(reg_.listed().empty());
  // A survivor of the next view starts from a clean slate.
  reg_.on_view(view_of({"r4"}, 3));
  reg_.on_announce(make_announce("r4", "node1", 20004));
  EXPECT_EQ(reg_.first()->member, "r4");
}

TEST_F(RegistryTest, NextAfterWrapsPastUnannouncedTail) {
  // Wraparound must skip every endpoint-less member it passes, including
  // the ones *before* the starting member once the scan wraps.
  reg_.on_view(view_of({"rm", "r1", "stale", "r2", "warming"}));
  reg_.on_announce(make_announce("r1", "node1", 20001));
  reg_.on_announce(make_announce("r2", "node2", 20002));
  // Forward within the view: skips "stale".
  EXPECT_EQ(reg_.next_after("r1")->member, "r2");
  // From the last announced member the scan wraps over "warming" and "rm"
  // back to r1.
  EXPECT_EQ(reg_.next_after("r2")->member, "r1");
  // Starting from an unannounced member still lands on an announced one.
  EXPECT_EQ(reg_.next_after("warming")->member, "r1");
}

TEST_F(RegistryTest, TwoGroupsWithOverlappingMemberNamesStayIsolated) {
  // Two services may both have a member literally named "replica/1"; each
  // group's registry must keep its own endpoint for it.
  ReplicaRegistry alpha;
  ReplicaRegistry beta;
  alpha.on_view(view_of({"replica/1", "replica/2"}));
  beta.on_view(view_of({"replica/1"}));
  alpha.on_announce(make_announce("replica/1", "node1", 20001));
  beta.on_announce(make_announce("replica/1", "node7", 21001));

  ASSERT_TRUE(alpha.find("replica/1").has_value());
  ASSERT_TRUE(beta.find("replica/1").has_value());
  EXPECT_EQ(alpha.find("replica/1")->endpoint, (net::Endpoint{"node1", 20001}));
  EXPECT_EQ(beta.find("replica/1")->endpoint, (net::Endpoint{"node7", 21001}));

  // Killing the member in one group leaves the twin untouched.
  alpha.on_view(view_of({"replica/2"}, 2));
  EXPECT_FALSE(alpha.find("replica/1").has_value());
  EXPECT_TRUE(beta.find("replica/1").has_value());
  EXPECT_EQ(beta.known_count(), 1u);
}

TEST_F(RegistryTest, ListedPreservesViewOrder) {
  reg_.on_view(view_of({"r3", "r1", "r2"}));
  reg_.on_announce(make_announce("r1", "node1", 20001));
  reg_.on_announce(make_announce("r2", "node2", 20002));
  reg_.on_announce(make_announce("r3", "node3", 20003));
  auto listed = reg_.listed();
  ASSERT_EQ(listed.size(), 3u);
  EXPECT_EQ(listed[0].member, "r3");
  EXPECT_EQ(listed[1].member, "r1");
  EXPECT_EQ(listed[2].member, "r2");
}

// ---- read-fanout serving set (kActiveReadFanout) ----

TEST_F(RegistryTest, ReadSetExcludesDoomedAndRecoveringMembers) {
  reg_.on_view(view_of({"r1", "r2", "r3"}));
  reg_.on_announce(make_announce("r1", "node1", 20001));
  reg_.on_announce(make_announce("r2", "node2", 20002));
  reg_.on_announce(make_announce("r3", "node3", 20003));
  // r2 is doomed (scheduled for proactive recovery): reads must not route
  // to it even though it is still in the view and announced.
  auto rs = reg_.read_set({"r2"});
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_EQ(rs[0].member, "r1");
  EXPECT_EQ(rs[1].member, "r3");
}

TEST_F(RegistryTest, ReadSetSkipsUnannouncedMembers) {
  // A recovering replacement is in the view before its Announce lands; it
  // must not be servable until the endpoint is known.
  reg_.on_view(view_of({"r1", "r2"}));
  reg_.on_announce(make_announce("r1", "node1", 20001));
  auto rs = reg_.read_set({});
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs[0].member, "r1");
}

TEST_F(RegistryTest, ReadSetNeverServesStaleIncarnation) {
  reg_.on_view(view_of({"r1", "r2"}));
  reg_.on_announce(make_announce("r1", "node1", 20001));
  reg_.on_announce(make_announce("r2", "node2", 20002));
  // r2 dies: it leaves the view, and its old announcement is pruned.
  reg_.on_view(view_of({"r1"}, 2));
  auto rs = reg_.read_set({});
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs[0].member, "r1");
  // The replacement incarnation rejoins under the same member name with a
  // new endpoint; the read set serves only the fresh record.
  reg_.on_view(view_of({"r1", "r2"}, 3));
  rs = reg_.read_set({});
  ASSERT_EQ(rs.size(), 1u);  // r2 back in view but not yet announced
  reg_.on_announce(make_announce("r2", "node7", 20099));
  rs = reg_.read_set({});
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_EQ(rs[1].member, "r2");
  EXPECT_EQ(rs[1].endpoint, (net::Endpoint{"node7", 20099}));
}

}  // namespace
}  // namespace mead::core

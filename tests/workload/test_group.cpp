#include "workload/group.hpp"

#include <gtest/gtest.h>

namespace spothost::workload {
namespace {

using sim::kHour;
using sim::kSecond;

ServiceGroup make_group(int n = 4) {
  return ServiceGroup("tenant", n, virt::default_spec_for_memory(1.7, 8.0));
}

TEST(ServiceGroup, MembersAreNamedAndSized) {
  const auto g = make_group(3);
  EXPECT_EQ(g.size(), 3);
  EXPECT_EQ(g.member(0).name(), "tenant-0");
  EXPECT_EQ(g.member(2).name(), "tenant-2");
  EXPECT_THROW((void)g.member(3), std::out_of_range);
}

TEST(ServiceGroup, RejectsEmptyGroup) {
  EXPECT_THROW(ServiceGroup("x", 0, virt::VmSpec{}), std::invalid_argument);
}

TEST(ServiceGroup, AggregateSpecSumsResources) {
  const auto g = make_group(4);
  const auto agg = g.aggregate_spec();
  EXPECT_DOUBLE_EQ(agg.memory_gb, 4 * 1.7);
  EXPECT_DOUBLE_EQ(agg.disk_gb, 4 * 8.0);
  EXPECT_DOUBLE_EQ(agg.working_set_mb,
                   4 * g.member(0).spec().working_set_mb);
  EXPECT_DOUBLE_EQ(agg.dirty_rate_mb_s, 4 * g.member(0).spec().dirty_rate_mb_s);
}

TEST(ServiceGroup, OutagesHitEveryMemberInLockstep) {
  auto g = make_group(3);
  g.go_live(0);
  EXPECT_TRUE(g.is_up());
  g.begin_outage(kHour, OutageCause::kForcedMigration);
  EXPECT_FALSE(g.is_up());
  g.end_outage(kHour + 30 * kSecond, /*degraded=*/false);
  EXPECT_TRUE(g.is_up());
  g.finalize(10 * kHour);
  for (int i = 0; i < g.size(); ++i) {
    EXPECT_EQ(g.member(i).availability().total_downtime(), 30 * kSecond) << i;
    EXPECT_EQ(g.member(i).outage_count(OutageCause::kForcedMigration), 1) << i;
  }
}

TEST(ServiceGroup, DegradedWindowsPropagate) {
  auto g = make_group(2);
  g.go_live(0);
  g.begin_outage(kHour, OutageCause::kPlannedMigration);
  g.end_outage(kHour + 20 * kSecond, /*degraded=*/true);
  g.end_degraded(kHour + 60 * kSecond);
  g.finalize(2 * kHour);
  for (int i = 0; i < g.size(); ++i) {
    EXPECT_EQ(g.member(i).availability().total_degraded(), 40 * kSecond);
  }
}

TEST(ServiceGroup, MeanUnavailabilityMatchesMembers) {
  auto g = make_group(2);
  g.go_live(0);
  g.begin_outage(kHour, OutageCause::kOther);
  g.end_outage(kHour + 36 * kSecond, false);
  g.finalize(100 * kHour);
  EXPECT_NEAR(g.mean_unavailability_percent(), 0.01, 1e-9);
}

TEST(ServiceGroup, UsableThroughEndpointInterface) {
  auto g = make_group(2);
  ServiceEndpoint& endpoint = g;
  endpoint.go_live(0);
  endpoint.begin_outage(kHour, OutageCause::kSpotLoss);
  EXPECT_FALSE(endpoint.is_up());
  endpoint.end_outage(2 * kHour, false);
  endpoint.finalize(3 * kHour);
  EXPECT_EQ(g.member(1).availability().total_downtime(), kHour);
}

}  // namespace
}  // namespace spothost::workload

#include "cloud/volume.hpp"
#include "simcore/simulation.hpp"

#include <gtest/gtest.h>

#include <optional>

namespace spothost::cloud {
namespace {

using sim::kHour;
using sim::kSecond;

const MarketId kEast{"us-east-1a", InstanceSize::kSmall};
const MarketId kWest{"us-west-1a", InstanceSize::kSmall};

class VolumeTest : public ::testing::Test {
 protected:
  VolumeTest() : rng_(1), provider_(sim_, rng_), volumes_(sim_, provider_) {
    for (const auto& m : {kEast, kWest}) {
      trace::PriceTrace t;
      t.append(0, 0.01);
      t.set_end(24 * kHour);
      provider_.add_market(m, std::move(t), 0.06);
      AllocationLatency lat;
      lat.on_demand_mean_s = 60.0;
      lat.on_demand_cv = 0.0;
      provider_.set_allocation_latency(m.region, lat);
    }
    provider_.start();
  }

  InstanceId launch(const MarketId& market) {
    std::optional<InstanceId> iid;
    provider_.request_on_demand(market, [&](InstanceId i) { iid = i; });
    sim_.run_until(sim_.now() + 10 * 60 * kSecond);
    return *iid;
  }

  sim::Simulation sim_;
  sim::RngFactory rng_;
  CloudProvider provider_;
  VolumeManager volumes_;
};

TEST_F(VolumeTest, CreateAndInspect) {
  const VolumeId v = volumes_.create("us-east-1a", 8.0);
  EXPECT_NE(v, kInvalidVolume);
  EXPECT_EQ(volumes_.volume(v).region, "us-east-1a");
  EXPECT_DOUBLE_EQ(volumes_.volume(v).size_gb, 8.0);
  EXPECT_FALSE(volumes_.volume(v).attached_to.has_value());
  EXPECT_EQ(volumes_.count(), 1u);
}

TEST_F(VolumeTest, CreateRejectsBadSize) {
  EXPECT_THROW(volumes_.create("us-east-1a", 0.0), std::invalid_argument);
}

TEST_F(VolumeTest, AttachCompletesAfterLatency) {
  const VolumeId v = volumes_.create("us-east-1a", 8.0);
  const InstanceId i = launch(kEast);
  std::optional<sim::SimTime> attached_at;
  const sim::SimTime begun = sim_.now();
  volumes_.attach(v, i, [&](VolumeId) { attached_at = sim_.now(); });
  sim_.run_until(sim_.now() + kHour);
  ASSERT_TRUE(attached_at.has_value());
  EXPECT_EQ(*attached_at - begun, 4 * kSecond);
  EXPECT_EQ(volumes_.volume(v).attached_to, i);
}

TEST_F(VolumeTest, CrossRegionAttachRejected) {
  const VolumeId v = volumes_.create("us-east-1a", 8.0);
  const InstanceId i = launch(kWest);
  EXPECT_THROW(volumes_.attach(v, i, nullptr), std::logic_error);
}

TEST_F(VolumeTest, DoubleAttachRejected) {
  const VolumeId v = volumes_.create("us-east-1a", 8.0);
  const InstanceId i = launch(kEast);
  volumes_.attach(v, i, nullptr);
  EXPECT_THROW(volumes_.attach(v, i, nullptr), std::logic_error);
}

TEST_F(VolumeTest, DetachThenReattachElsewhere) {
  // The paper's availability story: the volume survives its instance.
  const VolumeId v = volumes_.create("us-east-1a", 8.0);
  const InstanceId a = launch(kEast);
  volumes_.attach(v, a, nullptr);
  provider_.terminate(a);
  volumes_.detach(v);
  const InstanceId b = launch(kEast);
  bool attached = false;
  volumes_.attach(v, b, [&](VolumeId) { attached = true; });
  sim_.run_until(sim_.now() + kHour);
  EXPECT_TRUE(attached);
  EXPECT_EQ(volumes_.volume(v).attached_to, b);
}

TEST_F(VolumeTest, AttachToTerminatedInstanceRejected) {
  const VolumeId v = volumes_.create("us-east-1a", 8.0);
  const InstanceId i = launch(kEast);
  provider_.terminate(i);
  EXPECT_THROW(volumes_.attach(v, i, nullptr), std::logic_error);
}

TEST_F(VolumeTest, DetachDuringAttachInFlightSuppressesCallback) {
  const VolumeId v = volumes_.create("us-east-1a", 8.0);
  const InstanceId i = launch(kEast);
  bool attached = false;
  volumes_.attach(v, i, [&](VolumeId) { attached = true; });
  volumes_.detach(v);  // before the 4 s attach latency elapses
  sim_.run_until(sim_.now() + kHour);
  EXPECT_FALSE(attached);
}

TEST_F(VolumeTest, RehomeMovesRegion) {
  const VolumeId v = volumes_.create("us-east-1a", 8.0);
  volumes_.rehome(v, "us-west-1a");
  EXPECT_EQ(volumes_.volume(v).region, "us-west-1a");
  const InstanceId i = launch(kWest);
  EXPECT_NO_THROW(volumes_.attach(v, i, nullptr));
}

TEST_F(VolumeTest, RehomeAttachedVolumeRejected) {
  const VolumeId v = volumes_.create("us-east-1a", 8.0);
  const InstanceId i = launch(kEast);
  volumes_.attach(v, i, nullptr);
  EXPECT_THROW(volumes_.rehome(v, "us-west-1a"), std::logic_error);
}

TEST_F(VolumeTest, UnknownVolumeThrows) {
  EXPECT_THROW((void)volumes_.volume(404), std::out_of_range);
  EXPECT_THROW(volumes_.detach(404), std::out_of_range);
}

}  // namespace
}  // namespace spothost::cloud

#include "workload/iobench.hpp"

#include <gtest/gtest.h>

namespace spothost::workload {
namespace {

IoBench make_bench(double jitter = 0.0) {
  return IoBench(IoBenchBaselines{}, virt::NestedVirtParams{}, jitter);
}

TEST(IoBench, NativeMatchesBaselines) {
  auto b = make_bench();
  sim::RngStream rng(1);
  EXPECT_DOUBLE_EQ(b.run(IoBenchKind::kNetworkTx, HostKind::kNativeVm, rng), 304.0);
  EXPECT_DOUBLE_EQ(b.run(IoBenchKind::kNetworkRx, HostKind::kNativeVm, rng), 316.0);
  EXPECT_DOUBLE_EQ(b.run(IoBenchKind::kDiskRead, HostKind::kNativeVm, rng), 304.6);
  EXPECT_DOUBLE_EQ(b.run(IoBenchKind::kDiskWrite, HostKind::kNativeVm, rng), 280.4);
}

TEST(IoBench, NestedNetworkIsLineRate) {
  // Table 4: nested TX/RX matches native through the NAT path.
  auto b = make_bench();
  sim::RngStream rng(1);
  EXPECT_DOUBLE_EQ(b.run(IoBenchKind::kNetworkTx, HostKind::kNestedVm, rng), 304.0);
  EXPECT_DOUBLE_EQ(b.run(IoBenchKind::kNetworkRx, HostKind::kNestedVm, rng), 316.0);
}

TEST(IoBench, NestedDiskPaysTwoPercent) {
  auto b = make_bench();
  sim::RngStream rng(1);
  EXPECT_NEAR(b.run(IoBenchKind::kDiskRead, HostKind::kNestedVm, rng),
              304.6 * 0.98, 1e-9);
  EXPECT_NEAR(b.run(IoBenchKind::kDiskWrite, HostKind::kNestedVm, rng),
              280.4 * 0.98, 1e-9);
}

TEST(IoBench, JitterAveragesOut) {
  auto b = IoBench(IoBenchBaselines{}, virt::NestedVirtParams{}, 0.02);
  sim::RngStream rng(7);
  const double mean =
      b.mean_of_runs(IoBenchKind::kDiskWrite, HostKind::kNativeVm, 2000, rng);
  EXPECT_NEAR(mean, 280.4, 1.0);
}

TEST(IoBench, MeanOfRunsRejectsZeroRuns) {
  auto b = make_bench();
  sim::RngStream rng(1);
  EXPECT_THROW((void)b.mean_of_runs(IoBenchKind::kDiskRead, HostKind::kNativeVm, 0, rng),
               std::invalid_argument);
}

TEST(IoBench, NegativeJitterRejected) {
  EXPECT_THROW(IoBench(IoBenchBaselines{}, virt::NestedVirtParams{}, -0.1),
               std::invalid_argument);
}

}  // namespace
}  // namespace spothost::workload

// ProbeChannel composes exactly the layers its config turns on, each
// composed layer behaves like the decorator built by hand, and the
// build-thread clamp follows the stateful layers.
#include <gtest/gtest.h>

#include <unordered_set>

#include "core/probe_channel.h"
#include "matrix/faulty_space.h"
#include "matrix/generators.h"
#include "matrix/partitioned_space.h"
#include "util/error.h"

namespace np::core {
namespace {

matrix::EuclideanWorld SmallWorld() {
  util::Rng rng(5);
  return matrix::GenerateEuclidean(60, matrix::EuclideanConfig{}, rng);
}

/// Every ordered pair, pivot second, like the schemes' hot loops.
template <typename Fn>
void ForEachPair(NodeId n, Fn fn) {
  for (NodeId pivot = 0; pivot < n; ++pivot) {
    for (NodeId c = 0; c < n; ++c) {
      fn(c, pivot);
    }
  }
}

bool SameMeasurement(LatencyMs x, LatencyMs y) {
  return (matrix::ProbeLost(x) && matrix::ProbeLost(y)) || x == y;
}

TEST(ProbeChannel, CleanChannelIsTheMeteredBackend) {
  const auto world = SmallWorld();
  const MatrixSpace backend(world.matrix);
  matrix::PartitionSchedule empty;
  ProbeChannelConfig config;
  config.partition = &empty;
  ProbeChannel channel(backend, config);
  EXPECT_EQ(channel.partition(), nullptr);
  EXPECT_EQ(channel.BuildThreads(4), 4);
  std::uint64_t probes = 0;
  ForEachPair(backend.size(), [&](NodeId a, NodeId b) {
    ASSERT_EQ(channel.space().Latency(a, b), backend.Latency(a, b));
    ++probes;
  });
  EXPECT_EQ(channel.space().probes(), probes);
}

TEST(ProbeChannel, NoiseLossAndGreyMatchTheHandBuiltStack) {
  const auto world = SmallWorld();
  const MatrixSpace backend(world.matrix);
  matrix::PartitionSchedule schedule;
  schedule.grey_node_frac = 0.3;
  schedule.grey_loss_rate = 0.4;
  schedule.asymmetric_frac = 0.05;
  schedule.grey_seed = 3;
  schedule.asym_seed = 4;
  const std::unordered_set<NodeId> crashed = {7, 19};

  ProbeChannelConfig config;
  config.noise_frac = 0.1;
  config.noise_floor_ms = 0.2;
  config.noise_seed = 11;
  config.partition = &schedule;
  config.partition_seed = 12;
  config.loss_rate = 0.1;
  config.fault_seed = 13;
  config.crashes_possible = true;
  config.crashed = &crashed;
  ProbeChannel channel(backend, config);
  EXPECT_NE(channel.partition(), nullptr);
  EXPECT_EQ(channel.BuildThreads(4), 1);

  const NoisySpace noisy(backend, 0.1, 11, 0.2);
  const matrix::PartitionedSpace partitioned(noisy, schedule, 12);
  const matrix::FaultySpace faulty(partitioned, 0.1, 13, &crashed);
  ForEachPair(backend.size(), [&](NodeId a, NodeId b) {
    ASSERT_TRUE(
        SameMeasurement(channel.space().Latency(a, b), faulty.Latency(a, b)))
        << a << "," << b;
  });
}

TEST(ProbeChannel, BuildClampFollowsTheStatefulLayers) {
  const auto world = SmallWorld();
  const MatrixSpace backend(world.matrix);
  const std::unordered_set<NodeId> crashed = {2};
  matrix::PartitionSchedule windows_only;
  windows_only.windows.push_back(
      matrix::PartitionWindow{0, 2, std::vector<int>(60, 0)});
  matrix::PartitionSchedule grey;
  grey.grey_node_frac = 0.2;
  grey.grey_loss_rate = 0.2;

  ProbeChannelConfig crash_only;
  crash_only.crashes_possible = true;
  crash_only.crashed = &crashed;
  ProbeChannel crash_channel(backend, crash_only);
  EXPECT_EQ(crash_channel.BuildThreads(8), 8);
  EXPECT_TRUE(matrix::ProbeLost(crash_channel.space().Latency(2, 5)));

  ProbeChannelConfig partition_only;
  partition_only.partition = &windows_only;
  ProbeChannel partition_channel(backend, partition_only);
  EXPECT_NE(partition_channel.partition(), nullptr);
  EXPECT_EQ(partition_channel.BuildThreads(8), 8);

  ProbeChannelConfig grey_config;
  grey_config.partition = &grey;
  EXPECT_EQ(ProbeChannel(backend, grey_config).BuildThreads(8), 1);

  ProbeChannelConfig floor_only;
  floor_only.noise_floor_ms = 0.5;
  EXPECT_EQ(ProbeChannel(backend, floor_only).BuildThreads(8), 1);

  ProbeChannelConfig loss_only;
  loss_only.loss_rate = 0.01;
  EXPECT_EQ(ProbeChannel(backend, loss_only).BuildThreads(8), 1);
}

TEST(ProbeChannel, RangeChecksHoldForLayersLeftOut) {
  const auto world = SmallWorld();
  const MatrixSpace backend(world.matrix);
  ProbeChannelConfig negative_loss;
  negative_loss.loss_rate = -0.1;
  EXPECT_THROW(ProbeChannel(backend, negative_loss), util::Error);
  matrix::PartitionSchedule bad;
  bad.grey_node_frac = -0.5;
  ProbeChannelConfig bad_schedule;
  bad_schedule.partition = &bad;
  EXPECT_THROW(ProbeChannel(backend, bad_schedule), util::Error);
}

}  // namespace
}  // namespace np::core

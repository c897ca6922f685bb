// Every dense world constructor yields a bitwise-symmetric matrix.
//
// core::MatrixSpace::Latency(a, b) reads At(b, a) — the pivot's row,
// see docs/ARCHITECTURE.md "Cache-friendly probe convention" — and is
// only value-preserving because At(a, b) and At(b, a) are the same
// bits. Set() writes both mirrors, but the metric repair passes and the
// loaders fill the store in their own orders; this pins all of them.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>

#include "core/latency_space.h"
#include "matrix/dataset_io.h"
#include "matrix/generators.h"
#include "matrix/latency_matrix.h"
#include "util/rng.h"

namespace np::matrix {
namespace {

std::uint64_t Bits(LatencyMs v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Bitwise At(a, b) == At(b, a) for every pair, and MatrixSpace reads
/// exactly At(a, b) either way round.
void ExpectBitwiseSymmetric(const LatencyMatrix& m) {
  const core::MatrixSpace space(m);
  for (NodeId a = 0; a < m.size(); ++a) {
    for (NodeId b = 0; b < m.size(); ++b) {
      ASSERT_EQ(Bits(m.At(a, b)), Bits(m.At(b, a))) << a << "," << b;
      ASSERT_EQ(Bits(space.Latency(a, b)), Bits(m.At(a, b))) << a << "," << b;
    }
  }
  EXPECT_TRUE(m.IsValid());
}

/// Random symmetric entries that violate the triangle inequality, so
/// the repair passes below really relax paths (with rounding).
LatencyMatrix RandomNonMetric(NodeId n, std::uint64_t seed) {
  LatencyMatrix m(n);
  util::Rng rng(seed);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      m.Set(i, j, rng.Uniform(0.1, 250.0));
    }
  }
  return m;
}

TEST(SymmetryGuard, GenerateClustered) {
  ClusteredConfig config;
  config.num_clusters = 6;
  config.nets_per_cluster = 20;
  util::Rng rng(1);
  ExpectBitwiseSymmetric(GenerateClustered(config, rng).matrix);
}

TEST(SymmetryGuard, GenerateKingLike) {
  util::Rng rng(2);
  ExpectBitwiseSymmetric(GenerateKingLike(300, KingLikeConfig{}, rng));
}

TEST(SymmetryGuard, GenerateEuclidean) {
  EuclideanConfig config;
  config.jitter = 0.1;
  util::Rng rng(3);
  ExpectBitwiseSymmetric(GenerateEuclidean(300, config, rng).matrix);
}

TEST(SymmetryGuard, DatasetImport) {
  // Asymmetric and unreachable cells: the loaders average and patch.
  std::stringstream dense(
      "4\n"
      "0 10 0 31\n"
      "12 0 20 40\n"
      "0 21 0 50\n"
      "30 41 53 0\n");
  ExpectBitwiseSymmetric(
      LoadDenseMatrix(dense, LatencyUnit::kMilliseconds));
  std::stringstream triples(
      "1 2 10.5\n"
      "2 1 11.25\n"
      "2 3 7\n"
      "3 4 0.3\n"
      "4 1 19\n");
  ExpectBitwiseSymmetric(LoadTripleList(triples));
}

TEST(SymmetryGuard, MetricRepairBlockedAtOneAndFourThreads) {
  for (const int threads : {1, 4}) {
    LatencyMatrix m = RandomNonMetric(300, 4);
    m.MetricRepair(threads);
    ExpectBitwiseSymmetric(m);
  }
}

TEST(SymmetryGuard, MetricRepairSerial) {
  LatencyMatrix m = RandomNonMetric(200, 5);
  m.MetricRepairSerial();
  ExpectBitwiseSymmetric(m);
}

}  // namespace
}  // namespace np::matrix

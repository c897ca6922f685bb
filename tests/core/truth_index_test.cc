// TruthIndex must answer exactly what TrueClosestMember's scan answers:
// the same id, bit for bit, on every target. Seeded embedded worlds
// sweep the dimension, the distortion and the membership size (empty
// cells, a single non-empty cell, 10^4 members); hand-built worlds put
// targets on the grid's corners, points on cell faces, coincident
// points on the 1e-6 latency floor and exact duplicate ties. Dense and
// sparse spaces cover the scan path. The last cases check the
// nearest-reachable scoring under a multi-component partition window
// against the brute-force rule.
#include "core/truth_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/latency_space.h"
#include "core/nearest_algorithm.h"
#include "core/query_batch.h"
#include "matrix/embedded_space.h"
#include "matrix/generators.h"
#include "matrix/partitioned_space.h"
#include "matrix/sparse_space.h"
#include "util/rng.h"

namespace np::core {
namespace {

/// `count` distinct ids drawn from [0, n).
std::vector<NodeId> RandomMembers(NodeId n, std::size_t count,
                                  util::Rng& rng) {
  std::vector<NodeId> all(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    all[static_cast<std::size_t>(i)] = i;
  }
  rng.Shuffle(all);
  all.resize(count);
  return all;
}

/// Every target in `targets` gets the scan's answer from the index.
void ExpectMatchesScan(const LatencySpace& space,
                       const std::vector<NodeId>& members,
                       const std::vector<NodeId>& targets,
                       const std::string& what) {
  const TruthIndex index(space, members);
  for (const NodeId target : targets) {
    ASSERT_EQ(index.Closest(target),
              TrueClosestMember(space, members, target))
        << what << " target " << target;
  }
}

std::vector<NodeId> AllNodes(NodeId n) {
  std::vector<NodeId> all(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    all[static_cast<std::size_t>(i)] = i;
  }
  return all;
}

matrix::EmbeddedSpaceConfig Config(NodeId n, int dims, double distortion,
                                   std::uint64_t seed) {
  matrix::EmbeddedSpaceConfig config;
  config.num_nodes = n;
  config.dimensions = dims;
  config.distortion = distortion;
  config.seed = seed;
  return config;
}

TEST(TruthIndex, MatchesScanOnSeededEmbeddedWorlds) {
  for (const int dims : {1, 2, 3, 5}) {
    for (const double distortion : {0.0, 0.1, 0.5, 0.95}) {
      for (const std::size_t members : {1, 2, 3, 7, 40, 600}) {
        const auto seed = static_cast<std::uint64_t>(
            dims * 1000 + static_cast<int>(distortion * 100) + members);
        const NodeId n = static_cast<NodeId>(members) + 120;
        const matrix::EmbeddedSpace space(Config(n, dims, distortion, seed));
        util::Rng rng(seed);
        const std::vector<NodeId> m = RandomMembers(n, members, rng);
        const TruthIndex index(space, m);
        EXPECT_TRUE(index.pruned());
        // Members and non-members alike.
        ExpectMatchesScan(space, m, AllNodes(n),
                          "d=" + std::to_string(dims) +
                              " distortion=" + std::to_string(distortion) +
                              " members=" + std::to_string(members));
      }
    }
  }
}

TEST(TruthIndex, MatchesScanAtTenThousandMembers) {
  for (const int dims : {2, 3, 5}) {
    for (const double distortion : {0.0, 0.1, 0.95}) {
      const NodeId n = 12'000;
      const matrix::EmbeddedSpace space(Config(n, dims, distortion, 77));
      util::Rng rng(static_cast<std::uint64_t>(dims) + 5);
      const std::vector<NodeId> members = RandomMembers(n, 10'000, rng);
      std::vector<NodeId> targets;
      for (int i = 0; i < 150; ++i) {
        targets.push_back(static_cast<NodeId>(rng.Index(n)));
      }
      ExpectMatchesScan(space, members, targets,
                        "n=1e4 d=" + std::to_string(dims) +
                            " distortion=" + std::to_string(distortion));
    }
  }
}

TEST(TruthIndex, MatchesScanWhenMembersShareOneCell) {
  // Every member inside one small corner box: one non-empty cell, the
  // rest empty, and targets all over the space.
  for (const int dims : {1, 2, 3, 5}) {
    for (const double distortion : {0.0, 0.5}) {
      const NodeId n = 400;
      const std::size_t members = 200;
      matrix::EmbeddedSpaceConfig config = Config(n, dims, distortion, 9);
      util::Rng rng(31);
      std::vector<double> coords(static_cast<std::size_t>(n) *
                                 static_cast<std::size_t>(dims));
      for (std::size_t i = 0; i < coords.size(); ++i) {
        const bool member = i / static_cast<std::size_t>(dims) < members;
        coords[i] = member ? rng.Uniform(0.0, 0.5)
                           : rng.Uniform(0.0, config.side_ms);
      }
      const matrix::EmbeddedSpace space(config, coords);
      std::vector<NodeId> m(members);
      for (std::size_t i = 0; i < members; ++i) {
        m[i] = static_cast<NodeId>(i);
      }
      ExpectMatchesScan(space, m, AllNodes(n),
                        "one cell d=" + std::to_string(dims));
    }
  }
}

TEST(TruthIndex, MatchesScanOnCornersFacesAndTies) {
  // A lattice on multiples of side / 8 (points on cell faces, duplicated
  // coordinates), the two corners as targets, and clumps of coincident
  // points that sit on the 1e-6 latency floor.
  for (const int dims : {1, 2, 3, 5}) {
    for (const double distortion : {0.0, 0.1, 0.5, 0.95}) {
      matrix::EmbeddedSpaceConfig config;
      config.dimensions = dims;
      config.distortion = distortion;
      config.seed = 5;
      util::Rng rng(static_cast<std::uint64_t>(dims) * 13 + 1);
      std::vector<double> coords;
      const auto add = [&](const std::vector<double>& point) {
        coords.insert(coords.end(), point.begin(), point.end());
      };
      const auto lattice = [&] {
        std::vector<double> p(static_cast<std::size_t>(dims));
        for (double& x : p) {
          x = config.side_ms * static_cast<double>(rng.Index(9)) / 8.0;
        }
        return p;
      };
      add(std::vector<double>(static_cast<std::size_t>(dims), 0.0));
      add(std::vector<double>(static_cast<std::size_t>(dims), config.side_ms));
      for (int i = 0; i < 150; ++i) {
        add(lattice());
      }
      for (int clump = 0; clump < 5; ++clump) {
        const std::vector<double> p = lattice();
        for (int i = 0; i < 4; ++i) {
          add(p);
        }
      }
      config.num_nodes = static_cast<NodeId>(coords.size()) / dims;
      const matrix::EmbeddedSpace space(config, coords);
      const NodeId n = config.num_nodes;
      // Corners stay non-members (ids 0 and 1); everything else joins
      // in shuffled order, so tie-breaking cannot lean on cell order.
      std::vector<NodeId> members;
      for (NodeId i = 2; i < n; ++i) {
        members.push_back(i);
      }
      rng.Shuffle(members);
      const std::string what = "lattice d=" + std::to_string(dims) +
                               " distortion=" + std::to_string(distortion);
      ExpectMatchesScan(space, members, AllNodes(n), what);
      // Corners as members too.
      members.push_back(0);
      members.push_back(1);
      ExpectMatchesScan(space, members, AllNodes(n), what + " +corners");
    }
  }
}

TEST(TruthIndex, ACoordinateJustBelowAFaceStaysBelowIt) {
  // 2-d, 62 members: 5 cells per axis (the largest k with k^2 <=
  // members / 2), faces at multiples of 20 ms. One ulp below the face
  // at 60 ms, x * (k / side) rounds up to 3.0, so binning by that
  // product alone would file member m one cell too high, beyond the
  // face the pruning bound measures from.
  const double x = std::nextafter(60.0, 0.0);
  ASSERT_GE(x * (5 / 100.0), 3.0);
  // Target t sits 4e-6 ms below the face; b, in t's own cell, is a hair
  // farther than m but inside the bound gap * (1 - 1e-9), so a search
  // that never visits m's cell stops with b.
  const double t = 60.0 - 4e-6;
  const double y = 0.25;
  const double bound = (60.0 - t) * (1.0 - 1e-9);
  const double b_offset = ((x - t) + bound) / 2.0;
  std::vector<double> coords = {t, y, x, y, t, y + b_offset};
  util::Rng rng(3);
  for (int i = 0; i < 60; ++i) {
    coords.push_back(rng.Uniform(80.0, 100.0));
    coords.push_back(rng.Uniform(80.0, 100.0));
  }
  matrix::EmbeddedSpaceConfig config;
  config.dimensions = 2;
  config.num_nodes = static_cast<NodeId>(coords.size() / 2);
  const matrix::EmbeddedSpace space(config, coords);
  ASSERT_LT(space.Latency(1, 0), space.Latency(2, 0));
  ASSERT_LT(space.Latency(2, 0), bound);
  std::vector<NodeId> members;
  for (NodeId i = 1; i < config.num_nodes; ++i) {
    members.push_back(i);
  }
  EXPECT_EQ(TrueClosestMember(space, members, 0), 1);
  EXPECT_EQ(TruthIndex(space, members).Closest(0), 1);
}

TEST(TruthIndex, ACoordinateJustAboveAFaceStaysAboveIt) {
  // 1-d, 194 members: 97 cells of 100/97 ms. One ulp above the face
  // F = 53 * (100/97), x * (k / side) rounds down to 52.99..., so
  // binning by that product alone would file member m one cell too
  // low, below the face the pruning bound measures from.
  const double face = 53 * (100.0 / 97);
  const double x = std::nextafter(face, 100.0);
  ASSERT_LT(x * (97 / 100.0), 53.0);
  // Target t sits 4e-6 ms above the face; b, in t's own cell, ties
  // with m exactly but has the higher id, and is inside the bound.
  const double t = face + 4e-6;
  const double b = t + (t - x);
  std::vector<double> coords = {t, x, b};
  util::Rng rng(4);
  for (int i = 0; i < 192; ++i) {
    coords.push_back(rng.Uniform(90.0, 100.0));
  }
  matrix::EmbeddedSpaceConfig config;
  config.dimensions = 1;
  config.num_nodes = static_cast<NodeId>(coords.size());
  const matrix::EmbeddedSpace space(config, coords);
  ASSERT_EQ(space.Latency(1, 0), space.Latency(2, 0));
  ASSERT_LT(space.Latency(2, 0), (t - face) * (1.0 - 1e-9));
  std::vector<NodeId> members;
  for (NodeId i = 1; i < config.num_nodes; ++i) {
    members.push_back(i);
  }
  EXPECT_EQ(TrueClosestMember(space, members, 0), 1);
  EXPECT_EQ(TruthIndex(space, members).Closest(0), 1);
}

TEST(TruthIndex, DuplicateCoordinatesTieToTheLowerId) {
  // Undistorted duplicates are exactly equidistant from every target.
  matrix::EmbeddedSpaceConfig config;
  config.dimensions = 2;
  config.num_nodes = 4;
  const matrix::EmbeddedSpace space(config,
                                    {50.0, 50.0, 10.0, 10.0, 10.0, 10.0,
                                     10.0, 10.0});
  const TruthIndex index(space, {3, 1, 2});
  EXPECT_EQ(index.Closest(0), 1);
  EXPECT_EQ(index.Closest(0), TrueClosestMember(space, {3, 1, 2}, 0));
  // A coincident member target: the floor ties, the lower other id wins.
  EXPECT_EQ(index.Closest(1), 2);
  EXPECT_EQ(index.Closest(3), 1);
}

TEST(TruthIndex, SkipsTheTargetAndRejectsAnEmptyMembership) {
  const matrix::EmbeddedSpace space(Config(50, 3, 0.1, 4));
  const TruthIndex alone(space, {7});
  EXPECT_EQ(alone.Closest(7), kInvalidNode);
  EXPECT_EQ(alone.Closest(8), 7);
  const TruthIndex empty(space, {});
  EXPECT_THROW(empty.Closest(3), std::exception);
  EXPECT_THROW(TrueClosestMember(space, {}, 3), std::exception);
}

TEST(TruthIndex, ContainsIsMembership) {
  const matrix::EmbeddedSpace space(Config(60, 3, 0.1, 4));
  util::Rng rng(2);
  const std::vector<NodeId> members = RandomMembers(60, 25, rng);
  const std::set<NodeId> set(members.begin(), members.end());
  const TruthIndex index(space, members);
  for (NodeId i = 0; i < 60; ++i) {
    EXPECT_EQ(index.Contains(i), set.count(i) == 1) << i;
  }
}

TEST(TruthIndex, DenseMatrixTakesTheScanPath) {
  util::Rng rng(17);
  matrix::EuclideanConfig config;
  config.jitter = 0.2;
  const matrix::EuclideanWorld world =
      matrix::GenerateEuclidean(300, config, rng);
  const MatrixSpace space(world.matrix);
  const std::vector<NodeId> members = RandomMembers(300, 120, rng);
  EXPECT_FALSE(TruthIndex(space, members).pruned());
  ExpectMatchesScan(space, members, AllNodes(300), "dense");
}

TEST(TruthIndex, SparseSpaceTakesTheScanPath) {
  matrix::SparseTopologyConfig config;
  config.num_nodes = 300;
  config.seed = 3;
  const matrix::SparseTopologySpace space(config);
  util::Rng rng(8);
  const std::vector<NodeId> members = RandomMembers(300, 100, rng);
  EXPECT_FALSE(TruthIndex(space, members).pruned());
  ExpectMatchesScan(space, members, AllNodes(300), "sparse");
}

// --- Nearest-reachable scoring ------------------------------------------

/// The nearest reachable member by brute force: the closest member of
/// the target's component (the target itself not skipped), lowest id
/// on ties.
NodeId BruteForceReachable(const LatencySpace& space,
                           const std::vector<NodeId>& members,
                           const matrix::PartitionWindow& window,
                           NodeId target) {
  const int component = matrix::ComponentOf(window, target);
  NodeId truth = kInvalidNode;
  LatencyMs best = kInfiniteLatency;
  for (const NodeId m : members) {
    if (matrix::ComponentOf(window, m) != component) {
      continue;
    }
    const LatencyMs l = space.Latency(m, target);
    if (l < best || (l == best && m < truth)) {
      best = l;
      truth = m;
    }
  }
  return truth;
}

/// The reachable verdict RunBatchQuery scores, by brute force.
bool BruteForceExactReachable(const LatencySpace& space,
                              const std::vector<NodeId>& members,
                              const matrix::PartitionWindow& window,
                              const QueryOutcome& out, LatencyMs eps) {
  const NodeId truth = BruteForceReachable(space, members, window, out.target);
  if (truth == kInvalidNode) {
    return out.failed;
  }
  if (out.failed || matrix::ComponentOf(window, out.found) !=
                        matrix::ComponentOf(window, out.target)) {
    return false;
  }
  return out.found_latency <= space.Latency(truth, out.target) + eps;
}

/// A window over n nodes with four components; component 3 holds no
/// member, so its targets can only be answered by an honest failure.
/// Every node not drawn into `members` goes to `pool`.
matrix::PartitionWindow RandomWindow(NodeId n, util::Rng& rng,
                                     std::vector<NodeId>& members,
                                     std::vector<NodeId>& pool) {
  matrix::PartitionWindow window;
  window.start_epoch = 0;
  window.end_epoch = 1;
  window.component.resize(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    const int c = static_cast<int>(rng.Index(4));
    window.component[static_cast<std::size_t>(i)] = c;
    if (c != 3 && rng.Bernoulli(0.5)) {
      members.push_back(i);
    } else {
      pool.push_back(i);
    }
  }
  return window;
}

TEST(TruthIndex, ClosestReachableMatchesBruteForce) {
  util::Rng rng(12);
  const matrix::EmbeddedSpace embedded(Config(500, 3, 0.3, 12));
  matrix::EuclideanConfig dense_config;
  dense_config.jitter = 0.2;
  const matrix::EuclideanWorld world =
      matrix::GenerateEuclidean(300, dense_config, rng);
  const MatrixSpace dense(world.matrix);
  for (const LatencySpace* space :
       std::vector<const LatencySpace*>{&embedded, &dense}) {
    std::vector<NodeId> members;
    std::vector<NodeId> pool;
    const matrix::PartitionWindow window =
        RandomWindow(space->size(), rng, members, pool);
    const TruthIndex index(*space, members);
    int reused = 0;
    for (NodeId target = 0; target < space->size(); ++target) {
      const NodeId closest = index.Closest(target);
      const NodeId reachable = index.ClosestReachable(target, closest, window);
      ASSERT_EQ(reachable,
                BruteForceReachable(*space, members, window, target))
          << "target " << target;
      reused += reachable == closest ? 1 : 0;
    }
    EXPECT_GT(reused, 0);
  }
}

TEST(TruthIndex, ReachableScoringMatchesBruteForceUnderAPartition) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    const NodeId n = 600;
    const matrix::EmbeddedSpace space(Config(n, 3, 0.2, seed));
    util::Rng rng(seed + 40);
    std::vector<NodeId> members;
    std::vector<NodeId> pool;
    const matrix::PartitionWindow window =
        RandomWindow(n, rng, members, pool);
    // Member targets take the restricted scan (which does not skip the
    // target); add some to the pool.
    for (std::size_t i = 0; i < members.size(); i += 7) {
      pool.push_back(members[i]);
    }
    RandomNearest algo;
    algo.Build(space, members, rng);
    const TruthIndex truth(space, members);
    for (const LatencyMs eps : {0.0, 0.5}) {
      QueryBatch batch;
      batch.space = &space;
      batch.truth = &truth;
      batch.pool = &pool;
      batch.tie_epsilon_ms = eps;
      batch.fault_mode = true;
      batch.active_window = &window;
      batch.query_base = seed * 101;
      int member_targets = 0;
      int honest = 0;
      for (std::size_t q = 0; q < 400; ++q) {
        const QueryOutcome out = RunBatchQuery(batch, algo, q);
        ASSERT_EQ(out.exact_reachable,
                  BruteForceExactReachable(space, members, window, out, eps))
            << "seed " << seed << " query " << q;
        EXPECT_EQ(out.truth, TrueClosestMember(space, members, out.target));
        member_targets += truth.Contains(out.target) ? 1 : 0;
        honest += out.target_component == 3 ? 1 : 0;
      }
      EXPECT_GT(member_targets, 0);
      EXPECT_GT(honest, 0);
    }
  }
}

}  // namespace
}  // namespace np::core

// Serving staleness scoring: ScoreStaleness derives each verdict from
// the epoch's truth and joiners, and must equal, bit for bit, the
// brute-force rule it replaced — an answer is exact-live iff it is
// still a member and within the tie epsilon of TrueClosestMember over
// the whole next membership. Seeded random epochs on embedded and
// clustered spaces, plus hand-built cases on an integer-latency matrix
// where answers land exactly on the tie epsilon.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <set>
#include <vector>

#include "core/latency_space.h"
#include "core/nearest_algorithm.h"
#include "core/query_batch.h"
#include "core/truth_index.h"
#include "matrix/embedded_space.h"
#include "matrix/generators.h"
#include "matrix/latency_matrix.h"
#include "util/rng.h"

namespace np::core {
namespace {

/// The reference rule: a full TrueClosestMember rescan of the next
/// membership for every answered query.
StalenessReport BruteForce(const LatencySpace& space,
                           const std::vector<QueryOutcome>& outcomes,
                           const std::vector<NodeId>& next_members,
                           LatencyMs eps) {
  const std::set<NodeId> next(next_members.begin(), next_members.end());
  std::int64_t exact_live = 0;
  std::int64_t departed = 0;
  for (const QueryOutcome& out : outcomes) {
    if (out.failed) {
      continue;
    }
    if (next.count(out.found) == 0) {
      ++departed;
      continue;
    }
    const NodeId truth = TrueClosestMember(space, next_members, out.target);
    if (out.found_latency <= space.Latency(truth, out.target) + eps) {
      ++exact_live;
    }
  }
  StalenessReport st;
  const double n = static_cast<double>(outcomes.size());
  st.p_exact_live = static_cast<double>(exact_live) / n;
  st.p_found_departed = static_cast<double>(departed) / n;
  return st;
}

/// An outcome scored the way RunBatchQuery scores it; `found` is
/// kInvalidNode for a failed query.
QueryOutcome Answer(const LatencySpace& space,
                    const std::vector<NodeId>& members, NodeId target,
                    NodeId found, LatencyMs eps) {
  QueryOutcome out;
  out.target = target;
  out.found = found;
  out.failed = found == kInvalidNode;
  out.truth = TrueClosestMember(space, members, target);
  out.truth_latency = space.Latency(out.truth, target);
  if (!out.failed) {
    out.found_latency = space.Latency(found, target);
    out.exact = out.found_latency <= out.truth_latency + eps;
  }
  return out;
}

/// Whole batch, then one query at a time so that two wrong verdicts
/// cannot cancel in the rate.
void ExpectMatchesBruteForce(const LatencySpace& space,
                             const std::vector<QueryOutcome>& outcomes,
                             const std::vector<NodeId>& members,
                             const std::vector<NodeId>& next, LatencyMs eps) {
  const StalenessReport got =
      ScoreStaleness(space, outcomes, members, next, eps);
  const StalenessReport want = BruteForce(space, outcomes, next, eps);
  EXPECT_EQ(got.p_exact_live, want.p_exact_live);
  EXPECT_EQ(got.p_found_departed, want.p_found_departed);
  for (const QueryOutcome& out : outcomes) {
    const std::vector<QueryOutcome> one{out};
    EXPECT_EQ(ScoreStaleness(space, one, members, next, eps).p_exact_live,
              BruteForce(space, one, next, eps).p_exact_live)
        << "target " << out.target << " found " << out.found;
  }
}

// --- Hand-built cases ----------------------------------------------------

/// Six nodes, integer latencies; every case queries target 5:
///   Latency(m, 5) = 10, 12, 20, 11, 9 for m = 0..4.
/// With eps = 1, an answer 1 ms above the best is exactly at the tie
/// epsilon (all sums are exact in a double).
class StalenessEdges : public ::testing::Test {
 protected:
  StalenessEdges() : matrix_(6, 30.0), space_(matrix_) {
    const LatencyMs to_target[] = {10.0, 12.0, 20.0, 11.0, 9.0};
    for (NodeId m = 0; m < 5; ++m) {
      matrix_.Set(m, kTarget, to_target[m]);
    }
  }

  /// Scores one answer of epoch `members` against `next` and checks it
  /// against the brute-force rule; returns the new scorer's verdict.
  StalenessReport Score(const std::vector<NodeId>& members,
                        const std::vector<NodeId>& next, NodeId found) {
    const std::vector<QueryOutcome> outcomes{
        Answer(space_, members, kTarget, found, kEps)};
    ExpectMatchesBruteForce(space_, outcomes, members, next, kEps);
    return ScoreStaleness(space_, outcomes, members, next, kEps);
  }

  static constexpr NodeId kTarget = 5;
  static constexpr LatencyMs kEps = 1.0;
  matrix::LatencyMatrix matrix_;
  MatrixSpace space_;
};

TEST_F(StalenessEdges, TargetJoiningNextEpochIsNotACandidate) {
  // Node 0 is the truth; the target itself joins, at latency 0 to
  // itself. It must not count as a closer member.
  EXPECT_EQ(Score({0, 1, 2}, {0, 1, 2, kTarget}, 0).p_exact_live, 1.0);
  // Beside the target, a joiner that beats the answer still does:
  // node 0 (10) beats the truth 1 (12) by more than the epsilon.
  EXPECT_EQ(Score({1, 2}, {1, 2, kTarget, 0}, 1).p_exact_live, 0.0);
}

TEST_F(StalenessEdges, AnswerExactlyAtTheTieEpsilon) {
  // Own epoch: 11 <= 10 + 1, exact at the epsilon.
  EXPECT_TRUE(Answer(space_, {0, 3}, kTarget, 3, kEps).exact);
  // Next epoch: joiner 3 at 11 leaves answer 1 (12) exactly at the
  // epsilon; joiner 4 at 9 beats it.
  EXPECT_EQ(Score({1, 2}, {1, 2, 3}, 1).p_exact_live, 1.0);
  EXPECT_EQ(Score({1, 2}, {1, 2, 4}, 1).p_exact_live, 0.0);
  // A surviving truth exactly at the epsilon below the answer does not
  // make it stale; one more ms does.
  EXPECT_EQ(Score({0, 3}, {0, 3}, 3).p_exact_live, 1.0);
  EXPECT_EQ(Score({0, 1}, {0, 1}, 1).p_exact_live, 0.0);
}

TEST_F(StalenessEdges, TruthDepartsUnderExactAndInexactAnswers) {
  // Exact answer 3 (11 vs truth 0 at 10): the truth leaves, so only a
  // joiner can beat it.
  EXPECT_EQ(Score({0, 2, 3}, {2, 3}, 3).p_exact_live, 1.0);
  EXPECT_EQ(Score({0, 2, 3}, {2, 3, 4}, 3).p_exact_live, 0.0);
  // Inexact answer 2 (20): survivor 1 (12) still beats it after the
  // truth leaves, but once every better peer is gone it is exact-live.
  EXPECT_EQ(Score({0, 1, 2}, {1, 2}, 2).p_exact_live, 0.0);
  EXPECT_EQ(Score({0, 1, 2}, {2}, 2).p_exact_live, 1.0);
}

TEST_F(StalenessEdges, FailedAndDepartedAnswers) {
  const std::vector<NodeId> members = {0, 1, 2};
  const std::vector<NodeId> next = {0, 2};
  const std::vector<QueryOutcome> outcomes{
      Answer(space_, members, kTarget, kInvalidNode, kEps),  // failed
      Answer(space_, members, kTarget, 1, kEps),             // departed
      Answer(space_, members, kTarget, 0, kEps),             // exact-live
      Answer(space_, members, kTarget, 2, kEps)};            // stale
  ExpectMatchesBruteForce(space_, outcomes, members, next, kEps);
  const StalenessReport st =
      ScoreStaleness(space_, outcomes, members, next, kEps);
  EXPECT_EQ(st.p_exact_live, 0.25);
  EXPECT_EQ(st.p_found_departed, 0.25);
}

TEST_F(StalenessEdges, FinalEpochScoredAgainstItselfIsItsExactness) {
  const std::vector<NodeId> members = {0, 1, 2, 3, 4};
  std::vector<QueryOutcome> outcomes;
  for (const NodeId found : {4, 0, 1, 2, 3}) {
    outcomes.push_back(Answer(space_, members, kTarget, found, kEps));
  }
  outcomes.push_back(Answer(space_, members, kTarget, kInvalidNode, kEps));
  ExpectMatchesBruteForce(space_, outcomes, members, members, kEps);
  const StalenessReport st =
      ScoreStaleness(space_, outcomes, members, members, kEps);
  // Truth 4 (9) and node 0 (10, at the epsilon) are exact.
  EXPECT_EQ(st.p_exact_live, 2.0 / 6.0);
  EXPECT_EQ(st.p_found_departed, 0.0);
}

// --- Seeded random epochs ------------------------------------------------

struct Epoch {
  std::vector<NodeId> members;
  std::vector<NodeId> next;
  std::vector<NodeId> pool;
};

/// An overlay of a third of the space; a quarter of it leaves and a
/// tenth of the outside pool (query targets included) joins before the
/// next epoch. Next-epoch order is shuffled: the engine's is arbitrary.
Epoch RandomEpoch(NodeId n, util::Rng& rng) {
  std::vector<NodeId> ids(static_cast<std::size_t>(n));
  std::iota(ids.begin(), ids.end(), NodeId{0});
  rng.Shuffle(ids);
  const auto overlay = static_cast<std::ptrdiff_t>(n / 3);
  Epoch e;
  e.members.assign(ids.begin(), ids.begin() + overlay);
  e.pool.assign(ids.begin() + overlay, ids.end());
  for (const NodeId m : e.members) {
    if (!rng.Bernoulli(0.25)) {
      e.next.push_back(m);
    }
  }
  for (const NodeId p : e.pool) {
    if (rng.Bernoulli(0.1)) {
      e.next.push_back(p);
    }
  }
  rng.Shuffle(e.next);
  return e;
}

/// Answers of every kind: failed, the truth, one of the next three
/// closest members (often within a small epsilon), or any member.
std::vector<QueryOutcome> RandomAnswers(const LatencySpace& space,
                                        const Epoch& e, LatencyMs eps,
                                        int queries, util::Rng& rng) {
  std::vector<QueryOutcome> outcomes;
  for (int q = 0; q < queries; ++q) {
    const NodeId target = e.pool[rng.Index(e.pool.size())];
    std::vector<NodeId> by_latency = e.members;
    std::sort(by_latency.begin(), by_latency.end(), [&](NodeId a, NodeId b) {
      const LatencyMs la = space.Latency(a, target);
      const LatencyMs lb = space.Latency(b, target);
      return la < lb || (la == lb && a < b);
    });
    const std::size_t kind = rng.Index(10);
    NodeId found = kInvalidNode;
    if (kind == 0) {
      found = kInvalidNode;
    } else if (kind <= 3) {
      found = by_latency[0];
    } else if (kind <= 6) {
      found = by_latency[1 + rng.Index(3)];
    } else {
      found = e.members[rng.Index(e.members.size())];
    }
    outcomes.push_back(Answer(space, e.members, target, found, eps));
  }
  return outcomes;
}

/// How often each branch of the scorer was taken over a test.
struct Coverage {
  int failed = 0;
  int departed = 0;
  int target_joined = 0;
  int truth_departed_exact = 0;
  int truth_departed_inexact = 0;

  void Add(const Epoch& e, const std::vector<QueryOutcome>& outcomes) {
    const std::set<NodeId> next(e.next.begin(), e.next.end());
    for (const QueryOutcome& out : outcomes) {
      target_joined += next.count(out.target) != 0 ? 1 : 0;
      if (out.failed) {
        ++failed;
      } else if (next.count(out.found) == 0) {
        ++departed;
      } else if (next.count(out.truth) == 0) {
        ++(out.exact ? truth_departed_exact : truth_departed_inexact);
      }
    }
  }

  void ExpectEveryBranch() const {
    EXPECT_GT(failed, 0);
    EXPECT_GT(departed, 0);
    EXPECT_GT(target_joined, 0);
    EXPECT_GT(truth_departed_exact, 0);
    EXPECT_GT(truth_departed_inexact, 0);
  }
};

void CheckRandomEpochs(const LatencySpace& space, std::uint64_t seed,
                       const std::vector<LatencyMs>& epsilons) {
  util::Rng rng(seed);
  Coverage coverage;
  for (int round = 0; round < 12; ++round) {
    const Epoch e = RandomEpoch(space.size(), rng);
    for (const LatencyMs eps : epsilons) {
      SCOPED_TRACE(::testing::Message() << "round " << round << " eps "
                                        << eps);
      const std::vector<QueryOutcome> outcomes =
          RandomAnswers(space, e, eps, 60, rng);
      coverage.Add(e, outcomes);
      ExpectMatchesBruteForce(space, outcomes, e.members, e.next, eps);
      // The final epoch scores against its own membership.
      ExpectMatchesBruteForce(space, outcomes, e.members, e.members, eps);
    }
  }
  coverage.ExpectEveryBranch();
}

TEST(ScoreStaleness, MatchesBruteForceOnEmbeddedSpaces) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    matrix::EmbeddedSpaceConfig config;
    config.num_nodes = 300;
    config.distortion = 0.2;
    config.seed = seed;
    const matrix::EmbeddedSpace space(config);
    CheckRandomEpochs(space, seed, {0.0, 0.5, 3.0});
  }
}

TEST(ScoreStaleness, MatchesBruteForceOnClusteredSpaces) {
  // Same-net pairs and hub-routed paths make exact ties common here.
  for (const std::uint64_t seed : {4, 5}) {
    matrix::ClusteredConfig config;
    config.num_clusters = 5;
    config.nets_per_cluster = 20;
    config.peers_per_net = 2;
    util::Rng world_rng(seed);
    const matrix::ClusteredWorld world =
        matrix::GenerateClustered(config, world_rng);
    const MatrixSpace space(world.matrix);
    CheckRandomEpochs(space, seed, {0.0, 0.1, 1.0});
  }
}

TEST(ScoreStaleness, ReadersRecordTheTruthTheyScoredAgainst) {
  matrix::EmbeddedSpaceConfig config;
  config.num_nodes = 300;
  config.distortion = 0.2;
  const matrix::EmbeddedSpace space(config);
  util::Rng rng(6);
  const Epoch e = RandomEpoch(space.size(), rng);
  RandomNearest algo;
  algo.Build(space, e.members, rng);

  const TruthIndex truth(space, e.members);
  QueryBatch batch;
  batch.space = &space;
  batch.truth = &truth;
  batch.pool = &e.pool;
  batch.tie_epsilon_ms = 0.5;
  batch.query_base = 7;
  std::vector<QueryOutcome> outcomes;
  for (std::size_t q = 0; q < 80; ++q) {
    outcomes.push_back(RunBatchQuery(batch, algo, q));
    const QueryOutcome& out = outcomes.back();
    EXPECT_EQ(out.truth, TrueClosestMember(space, e.members, out.target));
    EXPECT_EQ(out.truth_latency, space.Latency(out.truth, out.target));
  }
  ExpectMatchesBruteForce(space, outcomes, e.members, e.next,
                          batch.tie_epsilon_ms);
}

}  // namespace
}  // namespace np::core

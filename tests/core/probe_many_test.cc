// ProbePolicy::ProbeMany and LatencySpace::LatencyMany against the
// per-node loops they replace. Twin channels, one probed in batches and
// one node by node, must agree on every value (bit for bit), every
// nullopt, every ProbeCounter field, the meter, the per-node ledger and
// the suspicion state — and, through the next 1,000 probes, on every
// tracker's state — for each composition of probe-path layers. A
// tracker pre-filled to just below, at and just past the batch's
// headroom pins the generation-flush guard at its boundary.
#include "core/probe_policy.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/latency_space.h"
#include "core/probe_channel.h"
#include "core/probe_counter.h"
#include "matrix/embedded_space.h"
#include "matrix/faulty_space.h"
#include "matrix/generators.h"
#include "matrix/partitioned_space.h"
#include "util/pair_tracker.h"
#include "util/rng.h"

namespace np::core {
namespace {

/// One composition of probe-path layers.
struct Composition {
  const char* name;
  double noise_frac = 0.0;
  double noise_floor_ms = 0.0;
  double loss_rate = 0.0;
  int max_attempts = 1;
  bool crashes = false;
  /// Grey nodes plus one-way dead links.
  bool grey = false;
  /// An open partition window.
  bool window = false;
  /// Suspicion strikes (0 = no detector).
  int strikes = 0;
};

void PrintTo(const Composition& c, std::ostream* os) { *os << c.name; }

const std::unordered_set<NodeId>& Crashed() {
  static const std::unordered_set<NodeId> kCrashed = {3, 17, 42, 100, 250};
  return kCrashed;
}

matrix::PartitionSchedule Schedule(const Composition& c) {
  matrix::PartitionSchedule schedule;
  if (c.grey) {
    schedule.grey_node_frac = 0.2;
    schedule.grey_loss_rate = 0.4;
    schedule.grey_seed = 3;
    schedule.asymmetric_frac = 0.1;
    schedule.asym_seed = 4;
  }
  if (c.window) {
    matrix::PartitionWindow window;
    window.start_epoch = 0;
    window.end_epoch = 5;
    for (NodeId n = 0; n < 400; ++n) {
      window.component.push_back(n % 3 == 0 ? 1 : 0);
    }
    schedule.windows.push_back(window);
  }
  return schedule;
}

/// A channel with its own counter, ledger, detector and policy.
class Twin {
 public:
  Twin(const LatencySpace& backend, const Composition& c,
       const matrix::PartitionSchedule& schedule)
      : ledger_(static_cast<std::size_t>(backend.size())),
        suspicion_(SuspicionConfig{c.strikes, 1, 2.0}) {
    ProbeChannelConfig config;
    config.noise_frac = c.noise_frac;
    config.noise_floor_ms = c.noise_floor_ms;
    config.noise_seed = 11;
    config.partition = &schedule;
    config.partition_seed = 12;
    config.epoch = 2;
    config.loss_rate = c.loss_rate;
    config.fault_seed = 13;
    config.crashes_possible = c.crashes;
    config.crashed = c.crashes ? &Crashed() : nullptr;
    config.ledger = &ledger_;
    channel_ = std::make_unique<ProbeChannel>(backend, config);
    suspicion_.set_recording(true);
    ProbePolicyConfig policy;
    policy.max_attempts = c.max_attempts;
    policy_ = ProbePolicy(policy, &counter_,
                          c.strikes > 0 ? &suspicion_ : nullptr);
  }

  const MeteredSpace& space() const { return channel_->space(); }
  const ProbePolicy& policy() const { return policy_; }
  const ProbeCounter& counter() const { return counter_; }
  const PerNodeLedger& ledger() const { return ledger_; }
  const SuspicionLedger& suspicion() const { return suspicion_; }

  std::vector<std::optional<LatencyMs>> Many(const std::vector<NodeId>& nodes,
                                             NodeId pivot) const {
    std::vector<std::optional<LatencyMs>> out(nodes.size());
    policy_.ProbeMany(space(), nodes, pivot, out);
    return out;
  }

  std::vector<std::optional<LatencyMs>> Loop(const std::vector<NodeId>& nodes,
                                             NodeId pivot) const {
    std::vector<std::optional<LatencyMs>> out;
    for (const NodeId node : nodes) {
      out.push_back(policy_.Probe(space(), node, pivot));
    }
    return out;
  }

 private:
  PerNodeLedger ledger_;
  SuspicionLedger suspicion_;
  ProbeCounter counter_;
  std::unique_ptr<ProbeChannel> channel_;
  ProbePolicy policy_;
};

bool SameBits(LatencyMs x, LatencyMs y) {
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

void ExpectSameValues(const std::vector<std::optional<LatencyMs>>& batched,
                      const std::vector<std::optional<LatencyMs>>& looped) {
  ASSERT_EQ(batched.size(), looped.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    ASSERT_EQ(batched[i].has_value(), looped[i].has_value()) << "node " << i;
    if (batched[i]) {
      ASSERT_TRUE(SameBits(*batched[i], *looped[i]))
          << "node " << i << ": " << *batched[i] << " vs " << *looped[i];
    }
  }
}

void ExpectSameState(const Twin& a, const Twin& b) {
  const ProbeCounter::Snapshot x = a.counter().Read();
  const ProbeCounter::Snapshot y = b.counter().Read();
  EXPECT_EQ(x.query_probes, y.query_probes);
  EXPECT_EQ(x.queries, y.queries);
  EXPECT_EQ(x.maintenance_probes, y.maintenance_probes);
  EXPECT_EQ(x.churn_events, y.churn_events);
  EXPECT_EQ(x.build_probes, y.build_probes);
  EXPECT_EQ(x.failed_probes, y.failed_probes);
  EXPECT_EQ(x.retries, y.retries);
  EXPECT_EQ(x.suspicion_skips, y.suspicion_skips);
  EXPECT_EQ(x.probation_probes, y.probation_probes);
  EXPECT_EQ(a.space().probes(), b.space().probes());
  EXPECT_EQ(a.space().PairHeadroom(), b.space().PairHeadroom());
  EXPECT_EQ(a.ledger().Counts(), b.ledger().Counts());
  EXPECT_EQ(a.suspicion().quarantined_count(),
            b.suspicion().quarantined_count());
  EXPECT_EQ(a.suspicion().ProbationDue(1 << 20),
            b.suspicion().ProbationDue(1 << 20));
}

/// The next `count` probes, node by node on both twins: a tracker that
/// drifted inside a batch shows up here as a different value. Half the
/// pairs repeat ones the batches probed.
void ExpectSameNextProbes(const Twin& a, const Twin& b,
                          const std::vector<NodeId>& pivots, NodeId n,
                          int count) {
  util::Rng rng(99);
  const auto any = [&] {
    return static_cast<NodeId>(rng.Index(static_cast<std::size_t>(n)));
  };
  for (int i = 0; i < count; ++i) {
    const NodeId node = any();
    const NodeId pivot = i % 2 == 0 ? pivots[rng.Index(pivots.size())] : any();
    const auto x = a.policy().Probe(a.space(), node, pivot);
    const auto y = b.policy().Probe(b.space(), node, pivot);
    ASSERT_EQ(x.has_value(), y.has_value()) << "probe " << i;
    if (x) {
      ASSERT_TRUE(SameBits(*x, *y)) << "probe " << i;
    }
  }
  ExpectSameState(a, b);
}

/// `size` distinct nodes other than `pivot`, in random order.
std::vector<NodeId> Batch(util::Rng& rng, NodeId n, NodeId pivot,
                          std::size_t size) {
  std::vector<NodeId> nodes;
  for (const std::size_t pick :
       rng.Sample(static_cast<std::size_t>(n) - 1, size)) {
    const auto node = static_cast<NodeId>(pick);
    nodes.push_back(node >= pivot ? node + 1 : node);
  }
  return nodes;
}

matrix::ClusteredWorld World() {
  matrix::ClusteredConfig config;
  config.num_clusters = 8;
  config.nets_per_cluster = 25;
  util::Rng rng(7);
  return matrix::GenerateClustered(config, rng);
}

class ProbeManyTest : public ::testing::TestWithParam<Composition> {};

TEST_P(ProbeManyTest, BatchesMatchTheLoop) {
  const Composition& c = GetParam();
  const auto world = World();
  const MatrixSpace backend(world.matrix);
  const NodeId n = backend.size();
  ASSERT_EQ(n, 400);
  const matrix::PartitionSchedule schedule = Schedule(c);
  const Twin batched(backend, c, schedule);
  const Twin looped(backend, c, schedule);
  util::Rng rng(5);
  std::vector<NodeId> pivots;
  // Full passes (more than one chunk), small batches, a crashed pivot,
  // and pivots revisited so pairs repeat across batches.
  for (int round = 0; round < 24; ++round) {
    NodeId pivot = 17;  // crashed
    if (round % 4 == 0 && round > 0) {
      pivot = pivots[rng.Index(pivots.size())];
    } else if (round > 0) {
      pivot = static_cast<NodeId>(rng.Index(static_cast<std::size_t>(n)));
    }
    pivots.push_back(pivot);
    const std::size_t size = round % 3 == 0 ? 399 : 1 + rng.Index(60);
    const std::vector<NodeId> nodes = Batch(rng, n, pivot, size);
    ExpectSameValues(batched.Many(nodes, pivot), looped.Loop(nodes, pivot));
    ExpectSameState(batched, looped);
  }
  ExpectSameNextProbes(batched, looped, pivots, n, 1000);
}

TEST_P(ProbeManyTest, LatencyManyIsTheLatencyLoop) {
  // LatencyMany itself takes the pivot and repeated nodes too.
  const Composition& c = GetParam();
  const auto world = World();
  const MatrixSpace backend(world.matrix);
  const NodeId n = backend.size();
  const matrix::PartitionSchedule schedule = Schedule(c);
  const Twin batched(backend, c, schedule);
  const Twin looped(backend, c, schedule);
  util::Rng rng(6);
  std::vector<NodeId> pivots;
  for (int round = 0; round < 12; ++round) {
    const auto pivot =
        static_cast<NodeId>(rng.Index(static_cast<std::size_t>(n)));
    pivots.push_back(pivot);
    const std::size_t size = round % 2 == 0 ? 300 : 40;
    std::vector<NodeId> nodes = Batch(rng, n, pivot, size);
    nodes.push_back(pivot);
    nodes.push_back(nodes.front());
    nodes.push_back(nodes[nodes.size() / 2]);
    std::vector<LatencyMs> out(nodes.size());
    batched.space().LatencyMany(nodes, pivot, out);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      ASSERT_TRUE(SameBits(out[i], looped.space().Latency(nodes[i], pivot)))
          << "round " << round << " node " << i;
    }
    ExpectSameState(batched, looped);
  }
  ExpectSameNextProbes(batched, looped, pivots, n, 1000);
}

// Fields: name, noise_frac, noise_floor_ms, loss_rate, max_attempts,
// crashes, grey, window, strikes.
const Composition kCompositions[] = {
    // The metered backend alone.
    {"bare"},
    // Relative noise.
    {"noise", 0.1},
    // Relative noise plus an absolute floor.
    {"noise_floor", 0.1, 0.5},
    // i.i.d. loss, no retry.
    {"loss_1_attempt", 0.1, 0.0, 0.2, 1},
    // i.i.d. loss, two retries.
    {"loss_3_attempts", 0.1, 0.0, 0.3, 3},
    // A crashed set under loss.
    {"crashes_and_loss", 0.0, 0.0, 0.1, 2, true},
    // The crash-only loss layer query threads share.
    {"crash_only", 0.0, 0.0, 0.0, 1, true},
    // Grey nodes and one-way dead links.
    {"grey_and_asymmetric", 0.05, 0.0, 0.0, 2, false, true},
    // An open partition window.
    {"partition_window", 0.0, 0.0, 0.1, 2, false, false, true},
    // Quarantine after two strikes.
    {"suspicion", 0.0, 0.0, 0.2, 2, true, false, false, 2},
    // Every layer at once.
    {"everything", 0.1, 0.2, 0.2, 3, true, true, true, 3},
};

INSTANTIATE_TEST_SUITE_P(
    Compositions, ProbeManyTest, ::testing::ValuesIn(kCompositions),
    [](const ::testing::TestParamInfo<Composition>& info) {
      return std::string(info.param.name);
    });

TEST(ProbeMany, SharedCrashOnlyChannelAcrossThreads) {
  // The crash-only loss layer is what query threads share; batches from
  // two threads at once must read what one thread's loop reads.
  const auto world = World();
  const MatrixSpace backend(world.matrix);
  const NodeId n = backend.size();
  const matrix::PartitionSchedule schedule;
  const Twin shared(backend, {"crash_only", 0.0, 0.0, 0.0, 1, true}, schedule);
  std::vector<std::vector<NodeId>> batches;
  std::vector<NodeId> pivots;
  std::vector<std::vector<std::optional<LatencyMs>>> expected;
  util::Rng rng(8);
  for (int i = 0; i < 16; ++i) {
    const auto pivot =
        static_cast<NodeId>(rng.Index(static_cast<std::size_t>(n)));
    pivots.push_back(pivot);
    batches.push_back(Batch(rng, n, pivot, 300));
    expected.push_back(shared.Loop(batches.back(), pivot));
  }
  const std::uint64_t before = shared.space().probes();
  std::vector<std::vector<std::optional<LatencyMs>>> got[2];
  std::thread workers[2];
  for (int t = 0; t < 2; ++t) {
    workers[t] = std::thread([&, t] {
      for (std::size_t i = 0; i < batches.size(); ++i) {
        got[t].push_back(shared.Many(batches[i], pivots[i]));
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  for (const auto& results : got) {
    ASSERT_EQ(results.size(), expected.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      ExpectSameValues(results[i], expected[i]);
    }
  }
  EXPECT_EQ(shared.space().probes() - before, 2 * 16 * 300u);
}

/// Pre-fills both twins' trackers with `pairs` distinct pairs among
/// nodes [0, 1500), then compares one batch of `size` new pairs (with
/// retries) and the probes after it.
void ExpectFlushGuardHolds(std::size_t pairs, std::size_t size,
                           std::size_t expected_headroom) {
  matrix::EmbeddedSpaceConfig world;
  world.num_nodes = 2000;
  world.distortion = 0.1;
  world.seed = 9;
  const matrix::EmbeddedSpace backend(world);
  const matrix::PartitionSchedule schedule;
  const Composition c{"flush", 0.1, 0.0, 0.3, 3};
  const Twin batched(backend, c, schedule);
  const Twin looped(backend, c, schedule);
  std::size_t filled = 0;
  for (NodeId a = 0; a < 1500 && filled < pairs; ++a) {
    for (NodeId b = a + 1; b < 1500 && filled < pairs; ++b, ++filled) {
      (void)batched.space().Latency(a, b);
      (void)looped.space().Latency(a, b);
    }
  }
  ASSERT_EQ(filled, pairs);
  ASSERT_EQ(batched.space().PairHeadroom(), expected_headroom);
  std::vector<NodeId> nodes;
  for (std::size_t i = 0; i < size; ++i) {
    nodes.push_back(static_cast<NodeId>(1500 + i));
  }
  const NodeId pivot = 1999;
  ExpectSameValues(batched.Many(nodes, pivot), looped.Loop(nodes, pivot));
  ExpectSameState(batched, looped);
  ExpectSameNextProbes(batched, looped, {pivot, 1998}, 2000, 1000);
}

TEST(ProbeMany, FlushGuardBelowTheBoundBatches) {
  constexpr std::size_t kSize = 64;
  ExpectFlushGuardHolds(util::PairTracker::kMaxTrackedPairs - kSize - 1,
                        kSize, kSize + 1);
}

TEST(ProbeMany, FlushGuardAtTheBoundFallsBackToTheLoop) {
  constexpr std::size_t kSize = 64;
  ExpectFlushGuardHolds(util::PairTracker::kMaxTrackedPairs - kSize, kSize,
                        kSize);
}

TEST(ProbeMany, FlushGuardPastTheBoundFallsBackToTheLoop) {
  constexpr std::size_t kSize = 64;
  ExpectFlushGuardHolds(util::PairTracker::kMaxTrackedPairs - kSize + 1,
                        kSize, kSize - 1);
}

}  // namespace
}  // namespace np::core

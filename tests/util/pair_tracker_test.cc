// util::PairTracker against a node-map reference model:
//
//   * draw-for-draw equivalence with a reference std::unordered_map
//     model over seeded random streams that cross the generation flush
//     at exactly kMaxTrackedPairs distinct pairs, for the bare tracker
//     and for the three decorators built on it (NoisySpace jitter,
//     FaultySpace loss, PartitionedSpace grey loss);
//   * copies continue from the same counts;
//   * footprint: at every size up to and across a flush, the bytes the
//     tracker holds — including the old + new tables of a growth step,
//     on the heap or page-mapped — never exceed what the node map holds
//     for the same pairs;
//   * large tables are page-mapped and unmapped again when dropped.
//
// This binary replaces global operator new/delete to count heap bytes;
// it is its own executable, so nothing else is affected. Page-mapped
// tables are counted by PairTracker::MappedBytes().
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/latency_space.h"
#include "matrix/faulty_space.h"
#include "matrix/partitioned_space.h"
#include "util/pair_tracker.h"
#include "util/rng.h"

namespace {

// --- Heap accounting --------------------------------------------------------

std::size_t g_live_bytes = 0;
std::size_t g_peak_bytes = 0;

/// Bytes glibc's malloc takes for a request of n bytes: the request
/// plus its 8-byte chunk header, rounded up to 16, at least 32. Every
/// allocation of both structures is charged this way.
std::size_t ChunkBytes(std::size_t n) {
  return std::max<std::size_t>(32, (n + 8 + 15) & ~std::size_t{15});
}

// Every block carries its charge in a 16-byte header (keeps alignment).
constexpr std::size_t kHeader = 16;

void* CountedAlloc(std::size_t n) {
  void* raw = std::malloc(n + kHeader);
  if (raw == nullptr) {
    throw std::bad_alloc();
  }
  const std::size_t charge = ChunkBytes(n);
  *static_cast<std::size_t*>(raw) = charge;
  g_live_bytes += charge;
  g_peak_bytes = std::max(g_peak_bytes, g_live_bytes);
  return static_cast<char*>(raw) + kHeader;
}

void CountedFree(void* p) {
  if (p == nullptr) {
    return;
  }
  void* raw = static_cast<char*>(p) - kHeader;
  g_live_bytes -= *static_cast<std::size_t*>(raw);
  std::free(raw);
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }

namespace np {
namespace {

using util::PairTracker;

// Reference model: a node map with the same keying and flush rule.
class ReferenceTracker {
 public:
  explicit ReferenceTracker(std::uint64_t seed) : seed_(seed) {}

  std::uint64_t Next(NodeId a, NodeId b) {
    if (counts_.size() >= PairTracker::kMaxTrackedPairs) {
      counts_.clear();
      seed_ = util::Mix64(seed_);
      ++flushes_;
    }
    const std::uint64_t pair = util::PairKey(a, b);
    const std::uint64_t k = counts_[pair]++;
    return util::Mix64(util::Mix64(seed_ ^ pair) ^ k);
  }

  std::size_t size() const { return counts_.size(); }
  std::uint64_t seed() const { return seed_; }
  int flushes() const { return flushes_; }

 private:
  std::unordered_map<std::uint64_t, std::uint64_t> counts_;
  std::uint64_t seed_;
  int flushes_ = 0;
};

/// Nodes whose pair count (~3.1M) lets every stream below cross one
/// flush but not two.
constexpr NodeId kNodes = 2500;

/// Seeded pair stream: mostly fresh pairs, with re-probes of a hot set
/// so counts climb past 1 and repeated pairs straddle the flush.
class PairStream {
 public:
  explicit PairStream(std::uint64_t seed) : rng_(seed) {}

  std::pair<NodeId, NodeId> Next() {
    NodeId a = 0;
    NodeId b = 0;
    if (rng_.NextDouble() < 0.3) {
      const std::uint64_t h = rng_.NextUint64(64);
      a = static_cast<NodeId>(h);
      b = static_cast<NodeId>(h * 7 + 100);
    } else {
      a = static_cast<NodeId>(rng_.NextUint64(kNodes));
      b = static_cast<NodeId>(rng_.NextUint64(kNodes));
    }
    if (a == b) {
      b = (b + 1) % kNodes;
    }
    return rng_.NextDouble() < 0.5 ? std::make_pair(a, b)
                                   : std::make_pair(b, a);
  }

 private:
  util::Rng rng_;
};

/// Enough draws from PairStream to cross one flush: ~70% are fresh
/// pairs early on, fewer later as the space fills.
constexpr std::size_t kCrossingDraws = 2'200'000;

TEST(PairTracker, MatchesNodeMapModelAcrossTheFlush) {
  for (const std::uint64_t seed : {1ULL, 0xfeedULL}) {
    PairTracker tracker(seed);
    ReferenceTracker reference(seed);
    PairStream stream(seed ^ 0x5eed);
    for (std::size_t i = 0; i < kCrossingDraws; ++i) {
      const auto [a, b] = stream.Next();
      const int flushes = reference.flushes();
      const std::size_t tracked = tracker.size();
      ASSERT_EQ(tracker.Next(a, b), reference.Next(a, b)) << "draw " << i;
      ASSERT_EQ(tracker.size(), reference.size()) << "draw " << i;
      if (reference.flushes() != flushes) {
        // The flush fires on the first draw made while full, exactly
        // at kMaxTrackedPairs distinct pairs.
        EXPECT_EQ(tracked, PairTracker::kMaxTrackedPairs);
        EXPECT_EQ(tracker.size(), 1u);
      }
    }
    EXPECT_EQ(reference.flushes(), 1);
    EXPECT_EQ(tracker.seed(), reference.seed());
  }
}

TEST(PairTracker, KeyingIsSymmetricAndFreshPerDraw) {
  PairTracker forward(9);
  PairTracker backward(9);
  const std::uint64_t first = forward.Next(3, 11);
  EXPECT_EQ(first, backward.Next(11, 3));
  EXPECT_EQ(first, util::Mix64(util::Mix64(9 ^ util::PairKey(3, 11)) ^ 0));
  const std::uint64_t second = forward.Next(11, 3);
  EXPECT_NE(first, second);
  EXPECT_EQ(second, util::Mix64(util::Mix64(9 ^ util::PairKey(3, 11)) ^ 1));
}

TEST(PairTracker, CopyContinuesTheSameCounts) {
  PairTracker original(77);
  PairStream stream(5);
  for (int i = 0; i < 5000; ++i) {
    const auto [a, b] = stream.Next();
    original.Next(a, b);
  }
  PairTracker copy = original;
  for (int i = 0; i < 5000; ++i) {
    const auto [a, b] = stream.Next();
    ASSERT_EQ(copy.Next(a, b), original.Next(a, b)) << i;
  }
}

TEST(PairTracker, FootprintNeverExceedsTheNodeMap) {
  // Bytes held by each structure after every draw of a new pair, and
  // for the tracker also the peak during the draw (a growth step holds
  // the old and the new table at once). Tracker bytes are heap bytes
  // plus page-mapped bytes; the two peaks are summed, which can only
  // overstate. The node map's own growth transients are not counted.
  std::unordered_map<std::uint64_t, std::uint64_t> node_map;
  PairTracker tracker(3);
  const std::size_t total = PairTracker::kMaxTrackedPairs + 50'000;
  std::int64_t node_bytes = 0;
  std::int64_t tracker_bytes = 0;
  for (std::size_t i = 0; i < total; ++i) {
    // Distinct pairs in a scattered order.
    const auto a = static_cast<NodeId>(i % 4093);
    const auto b = static_cast<NodeId>(4093 + i / 4093);

    // The node map's footprint over this step: the larger of before and
    // after (they differ only at the flush, where clear() frees nodes).
    auto live = static_cast<std::int64_t>(g_live_bytes);
    const std::int64_t node_before = node_bytes;
    if (node_map.size() >= PairTracker::kMaxTrackedPairs) {
      node_map.clear();
    }
    ++node_map[util::PairKey(a, b)];
    node_bytes += static_cast<std::int64_t>(g_live_bytes) - live;
    const std::int64_t node_step = std::max(node_before, node_bytes);

    live = static_cast<std::int64_t>(g_live_bytes);
    g_peak_bytes = g_live_bytes;
    const auto mapped = static_cast<std::int64_t>(PairTracker::MappedBytes());
    PairTracker::ResetPeakMappedBytes();
    tracker.Next(a, b);
    const std::int64_t peak =
        tracker_bytes + static_cast<std::int64_t>(g_peak_bytes) - live +
        static_cast<std::int64_t>(PairTracker::PeakMappedBytes()) - mapped;
    tracker_bytes += static_cast<std::int64_t>(g_live_bytes) - live +
                     static_cast<std::int64_t>(PairTracker::MappedBytes()) -
                     mapped;
    ASSERT_LE(peak, node_step)
        << "draw " << i + 1 << ": tracker peak " << peak
        << " B vs node map " << node_step << " B";
    ASSERT_LE(tracker_bytes, node_bytes) << "draw " << i + 1;
  }
}

TEST(PairTracker, LargeTablesAreMappedAndUnmapped) {
  const std::size_t before = PairTracker::MappedBytes();
  {
    PairTracker tracker(4);
    std::size_t draws = 0;
    while (PairTracker::MappedBytes() == before) {
      tracker.Next(static_cast<NodeId>(draws % 4093),
                   static_cast<NodeId>(4093 + draws / 4093));
      ++draws;
    }
    // The first mapped table is the first one of at least
    // kMappedTableBytes: the table before it (2/3 the slots) was not.
    EXPECT_GE(tracker.capacity() * 12, PairTracker::kMappedTableBytes);
    EXPECT_LT(tracker.capacity() * 12 * 2 / 3,
              PairTracker::kMappedTableBytes);
    const std::size_t table = PairTracker::MappedBytes() - before;
    EXPECT_GE(table, tracker.capacity() * 12);
    EXPECT_LT(table, tracker.capacity() * 12 + 65536);

    const PairTracker copy = tracker;
    EXPECT_EQ(PairTracker::MappedBytes() - before, 2 * table);
  }
  EXPECT_EQ(PairTracker::MappedBytes(), before);
}

// --- Decorators -------------------------------------------------------------

/// Cheap deterministic symmetric backend.
class ToySpace final : public core::LatencySpace {
 public:
  NodeId size() const override { return kNodes; }
  LatencyMs Latency(NodeId a, NodeId b) const override {
    return a == b ? 0.0 : 1.0 + static_cast<double>((a + b) % 97);
  }
};

bool SameMeasurement(LatencyMs x, LatencyMs y) {
  return (std::isnan(x) && std::isnan(y)) || x == y;
}

TEST(PairTrackerDecorators, NoisySpaceMatchesNodeMapModelAcrossTheFlush) {
  const ToySpace toy;
  const core::NoisySpace noisy(toy, 0.1, 42, 0.5);
  ReferenceTracker reference(42);
  PairStream stream(11);
  for (std::size_t i = 0; i < kCrossingDraws; ++i) {
    const auto [a, b] = stream.Next();
    const LatencyMs true_ms = toy.Latency(a, b);
    util::Rng rng(reference.Next(a, b));
    double expect = true_ms + true_ms * rng.Gaussian(0.0, 0.1);
    expect += rng.Gaussian(0.0, 0.5);
    expect = std::max(expect, 0.001);
    ASSERT_EQ(noisy.Latency(a, b), expect) << "draw " << i;
  }
  EXPECT_EQ(reference.flushes(), 1);
  EXPECT_EQ(noisy.Latency(5, 5), 0.0);
}

TEST(PairTrackerDecorators, FaultySpaceMatchesNodeMapModelAcrossTheFlush) {
  const ToySpace toy;
  const std::unordered_set<NodeId> crashed = {17, 400};
  const matrix::FaultySpace faulty(toy, 0.2, 43, &crashed);
  ReferenceTracker reference(43);
  PairStream stream(12);
  std::size_t lost = 0;
  for (std::size_t i = 0; i < kCrossingDraws; ++i) {
    const auto [a, b] = stream.Next();
    LatencyMs expect = toy.Latency(a, b);
    if (crashed.count(a) != 0 || crashed.count(b) != 0) {
      expect = matrix::kLostProbeMs;  // no draw: crash is checked first
    } else if (util::MixToUnit(reference.Next(a, b)) < 0.2) {
      expect = matrix::kLostProbeMs;
    }
    const LatencyMs got = faulty.Latency(a, b);
    lost += matrix::ProbeLost(got) ? 1 : 0;
    ASSERT_TRUE(SameMeasurement(got, expect)) << "draw " << i;
  }
  EXPECT_EQ(reference.flushes(), 1);
  EXPECT_GT(lost, kCrossingDraws / 10);
}

TEST(PairTrackerDecorators, GreyLossMatchesNodeMapModelAcrossTheFlush) {
  const ToySpace toy;
  matrix::PartitionSchedule schedule;
  schedule.grey_node_frac = 0.6;
  schedule.grey_loss_rate = 0.3;
  schedule.grey_seed = 8;
  const matrix::PartitionedSpace grey(toy, schedule, 44);
  ReferenceTracker reference(44);
  PairStream stream(13);
  std::size_t grey_draws = 0;
  for (std::size_t i = 0; i < kCrossingDraws * 2; ++i) {
    const auto [a, b] = stream.Next();
    LatencyMs expect = toy.Latency(a, b);
    if (schedule.IsGrey(a) || schedule.IsGrey(b)) {
      ++grey_draws;
      if (util::MixToUnit(reference.Next(a, b)) < 0.3) {
        expect = matrix::kLostProbeMs;
      }
    }
    ASSERT_TRUE(SameMeasurement(grey.Latency(a, b), expect)) << "draw " << i;
  }
  // The grey draws alone cross the flush.
  EXPECT_EQ(reference.flushes(), 1);
  EXPECT_GT(grey_draws, kCrossingDraws);
}

TEST(PairTrackerDecorators, CopiedDecoratorsContinueTheSameCounts) {
  const ToySpace toy;
  matrix::PartitionSchedule schedule;
  schedule.grey_node_frac = 0.5;
  schedule.grey_loss_rate = 0.4;
  const core::NoisySpace noisy(toy, 0.2, 1);
  const matrix::FaultySpace faulty(toy, 0.3, 2);
  const matrix::PartitionedSpace grey(toy, schedule, 3);
  PairStream warm(21);
  for (int i = 0; i < 3000; ++i) {
    const auto [a, b] = warm.Next();
    noisy.Latency(a, b);
    faulty.Latency(a, b);
    grey.Latency(a, b);
  }
  const core::NoisySpace noisy_copy = noisy;
  const matrix::FaultySpace faulty_copy = faulty;
  const matrix::PartitionedSpace grey_copy = grey;
  PairStream stream(22);
  for (int i = 0; i < 3000; ++i) {
    const auto [a, b] = stream.Next();
    ASSERT_EQ(noisy_copy.Latency(a, b), noisy.Latency(a, b)) << i;
    ASSERT_TRUE(SameMeasurement(faulty_copy.Latency(a, b),
                                faulty.Latency(a, b)))
        << i;
    ASSERT_TRUE(SameMeasurement(grey_copy.Latency(a, b), grey.Latency(a, b)))
        << i;
  }
}

}  // namespace
}  // namespace np

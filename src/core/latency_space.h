// The latency-space abstraction every nearest-peer algorithm runs on.
//
// A LatencySpace answers "what is the RTT between node a and node b".
// Implementations are matrix-backed (the §4 simulations) or
// topology-backed (the §3/§5 synthetic Internet). MeteredSpace wraps a
// space and counts probes, which is how the experiment runner accounts
// for the paper's "number of latency probes performed" lower bound.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

#include "core/probe_counter.h"
#include "matrix/latency_matrix.h"
#include "util/pair_tracker.h"
#include "util/rng.h"
#include "util/types.h"

namespace np::core {

class LatencySpace {
 public:
  virtual ~LatencySpace() = default;

  /// Number of nodes; valid ids are [0, size).
  virtual NodeId size() const = 0;

  /// Round-trip latency in ms between two nodes; 0 for a == b.
  virtual LatencyMs Latency(NodeId a, NodeId b) const = 0;

  /// Batched probe of many nodes against one pivot, the second
  /// argument: out[i] = Latency(nodes[i], pivot). Every space returns
  /// exactly what that loop returns, with the same side effects in the
  /// same per-pair order; overrides only make it cheaper (a matrix reads
  /// one row, a stateful layer counts the whole batch before drawing
  /// it). `out` has nodes.size() slots.
  virtual void LatencyMany(std::span<const NodeId> nodes, NodeId pivot,
                           std::span<LatencyMs> out) const {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      out[i] = Latency(nodes[i], pivot);
    }
  }

  /// New distinct pairs this space and every layer below it can draw
  /// before a per-pair stream (util::PairTracker) starts a new
  /// generation; the maximum for a space with no such stream.
  /// ProbePolicy::ProbeMany batches only below this bound.
  virtual std::size_t PairHeadroom() const {
    return std::numeric_limits<std::size_t>::max();
  }
};

/// Nodes a batched layer handles per stack-buffered chunk: layers keep
/// no member scratch, so shareable ones stay safe across threads.
inline constexpr std::size_t kProbeChunk = 256;
/// How far ahead a batched count pass prefetches tracker slots.
inline constexpr std::size_t kPrefetchAhead = 16;

/// Non-owning view over a LatencyMatrix. The matrix must outlive the
/// space (the experiment runner owns both).
///
/// Latency(a, b) reads the SECOND argument's row: At(b, a). Every hot
/// loop here probes candidates against a fixed pivot passed second
/// (Latency(candidate, target) — see "Cache-friendly probe convention"
/// in docs/ARCHITECTURE.md), so reading row b walks one contiguous row
/// instead of striding n entries per probe. The value is the same:
/// LatencyMatrix is bitwise symmetric (Set() writes both mirrors and
/// IsValid() checks At(a, b) == At(b, a) exactly).
class MatrixSpace final : public LatencySpace {
 public:
  explicit MatrixSpace(const matrix::LatencyMatrix& m) : m_(&m) {}

  NodeId size() const override { return m_->size(); }
  LatencyMs Latency(NodeId a, NodeId b) const override { return m_->At(b, a); }
  void LatencyMany(std::span<const NodeId> nodes, NodeId pivot,
                   std::span<LatencyMs> out) const override {
    const LatencyMs* row = m_->RowPtr(pivot);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      out[i] = row[nodes[i]];
    }
  }

 private:
  const matrix::LatencyMatrix* m_;
};

/// Measurement-noise decorator: each probe returns the true latency
/// with fresh multiplicative Gaussian jitter. This models the paper's
/// premise that algorithms "cannot reliably use the differences between
/// these latencies" — without it, a noise-free matrix lets triangulation
/// schemes (e.g. Beaconing) distinguish equidistant peers by exact
/// arithmetic, which no real deployment can.
///
/// Jitter determinism: the k-th probe of the unordered pair {a, b}
/// draws from an Rng seeded Mix64(Mix64(seed ^ PairKey(a, b)) ^ k) —
/// a pure function of (seed, pair, per-pair probe count). So the
/// noise is order-robust (reordering probes across different pairs
/// cannot shift any measured value — an algorithm refactor that
/// reorders its probes leaves metrics bit-identical) and symmetric
/// per probe (the k-th probe of (a, b) equals the k-th probe of
/// (b, a)), while re-probing the same pair still sees fresh noise,
/// as a real deployment would. The previous implementation drew all
/// pairs from one sequential stream, which silently tied measured
/// values to probe order and broke within-query symmetry.
///
/// Caveat: the per-pair tracker (util::PairTracker) is bounded at
/// PairTracker::kMaxTrackedPairs distinct pairs; crossing it starts a
/// new generation (fresh stream seed), so order-robustness is
/// guaranteed *within a generation*. Query-scale instances probe a few
/// thousand pairs and never flush; only a long-lived maintenance
/// instance over a very large noisy build can, and there the
/// generation boundary — not the values inside one — is what probe
/// order can move.
///
/// LatencyMany() runs a count pass (every Next() of the batch in node
/// order, prefetching slots kPrefetchAhead nodes ahead so the table
/// misses overlap), then one inner LatencyMany(), then a draw pass that
/// touches no state. The tracker sees the same Next() sequence as under
/// the per-probe loop, so the values are the same bit for bit.
///
/// Not thread-safe: the per-pair counters mutate under Latency().
/// Every call site owns a private instance (one per query, or one for
/// the serial build/maintenance path — which may live across a whole
/// scenario run), which is also what keeps the parallel query loops
/// deterministic.
class NoisySpace final : public LatencySpace {
 public:
  /// jitter_frac scales with the RTT (path-length effects);
  /// floor_ms is the absolute component every real measurement carries
  /// (queueing, kernel scheduling) regardless of distance.
  NoisySpace(const LatencySpace& inner, double jitter_frac,
             std::uint64_t seed, double floor_ms = 0.0)
      : inner_(&inner),
        jitter_frac_(jitter_frac),
        floor_ms_(floor_ms),
        tracker_(seed) {}

  NodeId size() const override { return inner_->size(); }

  LatencyMs Latency(NodeId a, NodeId b) const override {
    const LatencyMs true_ms = inner_->Latency(a, b);
    if (a == b || !active()) {
      return true_ms;
    }
    return Draw(true_ms, tracker_.Next(a, b));
  }

  void LatencyMany(std::span<const NodeId> nodes, NodeId pivot,
                   std::span<LatencyMs> out) const override {
    if (!active()) {
      inner_->LatencyMany(nodes, pivot, out);
      return;
    }
    std::array<std::uint64_t, kProbeChunk> streams;
    for (std::size_t begin = 0; begin < nodes.size(); begin += kProbeChunk) {
      const std::size_t len = std::min(kProbeChunk, nodes.size() - begin);
      for (std::size_t j = 0; j < len; ++j) {
        const std::size_t i = begin + j;
        if (i + kPrefetchAhead < nodes.size()) {
          tracker_.Prefetch(nodes[i + kPrefetchAhead], pivot);
        }
        streams[j] = nodes[i] == pivot ? 0 : tracker_.Next(nodes[i], pivot);
      }
      inner_->LatencyMany(nodes.subspan(begin, len), pivot,
                          out.subspan(begin, len));
      for (std::size_t j = 0; j < len; ++j) {
        if (nodes[begin + j] != pivot) {
          out[begin + j] = Draw(out[begin + j], streams[j]);
        }
      }
    }
  }

  std::size_t PairHeadroom() const override {
    const std::size_t inner = inner_->PairHeadroom();
    return active() ? std::min(tracker_.headroom(), inner) : inner;
  }

 private:
  bool active() const { return jitter_frac_ > 0.0 || floor_ms_ > 0.0; }

  /// The noisy reading of `true_ms` for one probe's stream value.
  LatencyMs Draw(LatencyMs true_ms, std::uint64_t stream) const {
    util::Rng rng(stream);
    double noisy = true_ms;
    if (jitter_frac_ > 0.0) {
      noisy += true_ms * rng.Gaussian(0.0, jitter_frac_);
    }
    if (floor_ms_ > 0.0) {
      noisy += rng.Gaussian(0.0, floor_ms_);
    }
    return std::max(noisy, 0.001);
  }

  const LatencySpace* inner_;
  double jitter_frac_;
  double floor_ms_;
  /// Probes already issued per unordered pair in this generation.
  mutable util::PairTracker tracker_;
};

/// Probe-counting decorator. Algorithms receive a MeteredSpace so that
/// every latency measurement they perform is accounted; reads of the
/// same pair are counted each time (a real system pays for each probe).
///
/// The counter is a relaxed atomic so ParallelBuild paths may probe
/// through one shared meter from many threads: the total is exact
/// (additions commute) and therefore thread-count invariant, which is
/// what keeps build_messages deterministic for parallel builds.
///
/// An optional PerNodeLedger additionally attributes each probe to the
/// peer that answers it (the first Latency argument — the convention
/// every algorithm here follows: candidate first, target second). The
/// ledger's adds are atomic too, so sharing it across query threads is
/// safe.
class MeteredSpace final : public LatencySpace {
 public:
  explicit MeteredSpace(const LatencySpace& inner,
                        PerNodeLedger* ledger = nullptr)
      : inner_(&inner), ledger_(ledger) {}

  NodeId size() const override { return inner_->size(); }

  LatencyMs Latency(NodeId a, NodeId b) const override {
    probes_.fetch_add(1, std::memory_order_relaxed);
    if (ledger_ != nullptr) {
      ledger_->Record(a);
    }
    return inner_->Latency(a, b);
  }

  void LatencyMany(std::span<const NodeId> nodes, NodeId pivot,
                   std::span<LatencyMs> out) const override {
    probes_.fetch_add(nodes.size(), std::memory_order_relaxed);
    if (ledger_ != nullptr) {
      for (const NodeId node : nodes) {
        ledger_->Record(node);
      }
    }
    inner_->LatencyMany(nodes, pivot, out);
  }

  std::size_t PairHeadroom() const override { return inner_->PairHeadroom(); }

  std::uint64_t probes() const {
    return probes_.load(std::memory_order_relaxed);
  }
  void ResetProbes() const { probes_.store(0, std::memory_order_relaxed); }

 private:
  const LatencySpace* inner_;
  PerNodeLedger* ledger_;
  mutable std::atomic<std::uint64_t> probes_{0};
};

}  // namespace np::core

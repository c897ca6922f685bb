// Per-layer tracing from outside libnp.
//
// Two pieces, both implemented purely against public interfaces:
//
//  * TracedAlgorithm forwards every core::NearestPeerAlgorithm call to
//    the wrapped algorithm and records a span (wall time + backend
//    evaluations) around Build/ParallelBuild, AddMember, RemoveMember,
//    FindNearest and Clone. Clones come back wrapped, so the serving
//    engine's snapshot queries are traced too.
//  * CountingSpace sits under the engine's probe stack (it is the space
//    the engine is handed) and charges each backend evaluation to the
//    algorithm call active on the evaluating thread. Evaluations made
//    outside any algorithm call are the engine's own (truth and
//    staleness scoring): core.truth_evals.
//
// ParallelBuild fans out over fresh util::ParallelFor threads, which
// carry no span of their own. While a multi-threaded ParallelBuild is
// running, evaluations on threads outside any span are therefore
// charged to that build. This is exact as long as no other engine
// thread evaluates concurrently with a multi-threaded build; the
// tracer detects the overlap (an algorithm call starting on another
// thread during such a build) and reports it as a violation, which
// fails the benchmark's output check.
//
// Counting uses thread-local tallies (no shared atomics on the hot
// path). A thread's tally is folded into the tracer's totals when the
// thread exits; the collecting thread's own tally is read directly.
// Hence Collect() must run after every other thread that evaluated
// through a CountingSpace has been joined, which holds once the
// engine call returns.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/latency_space.h"
#include "core/nearest_algorithm.h"
#include "util/types.h"

namespace np::perfbench {

/// The algorithm calls a span can cover.
enum class Op { kBuild = 0, kJoin, kLeave, kFind, kClone };
inline constexpr std::size_t kNumOps = 5;

/// Everything recorded for one operation of one algorithm.
struct OpStats {
  std::uint64_t calls = 0;
  /// Backend evaluations made inside the calls (for kBuild, including
  /// those on ParallelBuild worker threads).
  std::uint64_t evals = 0;
  double total_s = 0.0;
  /// Wall time of each call, microseconds, in completion order.
  std::vector<double> durations_us;
  /// Start and end of each call, seconds on the steady clock.
  std::vector<std::pair<double, double>> intervals_s;
};

/// Span sink for one algorithm name (shared by the algorithm and all
/// of its snapshot clones).
class AlgoSink {
 public:
  explicit AlgoSink(std::string name) : name_(std::move(name)) {}
  AlgoSink(const AlgoSink&) = delete;
  AlgoSink& operator=(const AlgoSink&) = delete;

  const std::string& name() const { return name_; }

  void Record(Op op, double start_s, double end_s, std::uint64_t evals);
  /// Evaluations made on ParallelBuild worker threads; folded in when
  /// each worker exits.
  void AddWorkerEvals(std::uint64_t evals) {
    worker_evals_.fetch_add(evals, std::memory_order_relaxed);
  }

  /// Copy of the per-op stats with worker evaluations folded into
  /// kBuild. Call only once no traced call is in flight.
  std::array<OpStats, kNumOps> Snapshot() const;

 private:
  std::string name_;
  mutable std::mutex mu_;
  std::array<OpStats, kNumOps> ops_;  // guarded by mu_
  std::atomic<std::uint64_t> worker_evals_{0};
};

/// Whole-tracer evaluation accounting.
struct TraceTotals {
  /// Every evaluation the CountingSpace forwarded.
  std::uint64_t total_evals = 0;
  /// Evaluations outside any algorithm call (truth/staleness scoring).
  std::uint64_t truth_evals = 0;
  /// Algorithm calls that started while a multi-threaded ParallelBuild
  /// ran on another thread (must be 0 for exact attribution).
  std::uint64_t overlap_violations = 0;
};

/// Owns the sinks of one traced run. At most one Tracer exists at a
/// time (the thread-local tallies are process-wide); constructing it
/// zeroes them.
class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Sink for `name`, created on first use. Stable address.
  AlgoSink& SinkFor(const std::string& name);

  /// Sinks in name order.
  const std::map<std::string, std::unique_ptr<AlgoSink>>& sinks() const {
    return sinks_;
  }

  /// Totals so far; see the header comment for when this is exact.
  TraceTotals Collect() const;

  /// Wall time during which at least one algorithm call was in flight
  /// on some thread (the union of all span intervals). Unlike the sum
  /// of spans it cannot exceed the traced wall time when reader
  /// threads query while the writer churns.
  double BusySeconds() const;

 private:
  std::map<std::string, std::unique_ptr<AlgoSink>> sinks_;
};

/// Counting decorator over a backend space (see header comment).
class CountingSpace final : public core::LatencySpace {
 public:
  explicit CountingSpace(const core::LatencySpace& inner) : inner_(&inner) {}

  NodeId size() const override { return inner_->size(); }
  LatencyMs Latency(NodeId a, NodeId b) const override;

 private:
  const core::LatencySpace* inner_;
};

/// Forwarding decorator that records a span around each algorithm
/// call (see header comment).
class TracedAlgorithm final : public core::NearestPeerAlgorithm {
 public:
  TracedAlgorithm(std::unique_ptr<core::NearestPeerAlgorithm> inner,
                  AlgoSink& sink);

  bool SupportsChurn() const override { return inner_->SupportsChurn(); }
  void AddMember(NodeId node, util::Rng& rng) override;
  void RemoveMember(NodeId node) override;
  std::string name() const override { return inner_->name(); }
  bool ParallelQuerySafe() const override {
    return inner_->ParallelQuerySafe();
  }
  void Build(const core::LatencySpace& space, std::vector<NodeId> members,
             util::Rng& rng) override;
  bool SupportsParallelBuild() const override {
    return inner_->SupportsParallelBuild();
  }
  void ParallelBuild(const core::LatencySpace& space,
                     std::vector<NodeId> members, util::Rng& rng,
                     int num_threads) override;
  core::QueryResult FindNearest(NodeId target,
                                const core::MeteredSpace& metered,
                                util::Rng& rng) override;
  void AttachProbePolicy(const core::ProbePolicy* policy) override;
  const std::vector<NodeId>& members() const override {
    return inner_->members();
  }
  bool SupportsSnapshot() const override { return inner_->SupportsSnapshot(); }
  std::unique_ptr<core::NearestPeerAlgorithm> Clone() const override;

 private:
  std::unique_ptr<core::NearestPeerAlgorithm> inner_;
  AlgoSink* sink_;
};

}  // namespace np::perfbench

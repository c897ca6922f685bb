#include "tracer.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "util/error.h"

namespace np::perfbench {
namespace {

/// Per-thread evaluation counts; see the tracer.h header comment.
/// Trivially destructible, so the hot path reads it without a
/// thread-local init guard; ThreadRetirer folds it in at thread exit.
struct ThreadTally {
  std::uint64_t total = 0;
  /// Evaluations made inside a span on this thread; each span reads
  /// its own delta.
  std::uint64_t span_evals = 0;
  std::uint64_t truth = 0;
  /// Evaluations charged to a ParallelBuild running on another thread.
  std::uint64_t worker = 0;
  AlgoSink* worker_sink = nullptr;
  int depth = 0;
  bool retire_registered = false;

  void FlushWorker() {
    if (worker > 0) {
      worker_sink->AddWorkerEvals(worker);
      worker = 0;
    }
  }
};

std::atomic<std::uint64_t> g_retired_total{0};
std::atomic<std::uint64_t> g_retired_truth{0};
std::atomic<std::uint64_t> g_violations{0};
/// Sink of the multi-threaded ParallelBuild in flight, if any.
std::atomic<AlgoSink*> g_parallel_build{nullptr};
std::atomic<bool> g_tracer_alive{false};

thread_local ThreadTally tl_tally;

/// Folds the exiting thread's tally into the retired totals.
struct ThreadRetirer {
  ThreadRetirer() = default;
  ThreadRetirer(const ThreadRetirer&) = delete;
  ThreadRetirer& operator=(const ThreadRetirer&) = delete;
  ~ThreadRetirer() {
    ThreadTally& t = tl_tally;
    t.FlushWorker();
    g_retired_total.fetch_add(t.total, std::memory_order_relaxed);
    g_retired_truth.fetch_add(t.truth, std::memory_order_relaxed);
    t.total = 0;
    t.truth = 0;
  }
};

thread_local ThreadRetirer tl_retirer;

ThreadTally& Tally() {
  ThreadTally& t = tl_tally;
  if (!t.retire_registered) {
    (void)&tl_retirer;  // first odr-use constructs it for this thread
    t.retire_registered = true;
  }
  return t;
}

double Seconds(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

/// RAII span around one forwarded algorithm call.
class Span {
 public:
  Span(AlgoSink& sink, Op op, bool parallel_build = false)
      : sink_(sink), op_(op), parallel_build_(parallel_build) {
    ThreadTally& t = tl_tally;
    NP_ENSURE(t.depth == 0, "nested traced algorithm call");
    if (g_parallel_build.load(std::memory_order_acquire) != nullptr) {
      g_violations.fetch_add(1, std::memory_order_relaxed);
    }
    if (parallel_build_) {
      g_parallel_build.store(&sink_, std::memory_order_release);
    }
    ++t.depth;
    evals_at_start_ = t.span_evals;
    start_ = std::chrono::steady_clock::now();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() {
    const auto end = std::chrono::steady_clock::now();
    ThreadTally& t = tl_tally;
    --t.depth;
    if (parallel_build_) {
      g_parallel_build.store(nullptr, std::memory_order_release);
    }
    sink_.Record(op_, Seconds(start_), Seconds(end),
                 t.span_evals - evals_at_start_);
  }

 private:
  AlgoSink& sink_;
  Op op_;
  bool parallel_build_;
  std::uint64_t evals_at_start_ = 0;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

void AlgoSink::Record(Op op, double start_s, double end_s,
                      std::uint64_t evals) {
  std::lock_guard<std::mutex> lock(mu_);
  OpStats& s = ops_[static_cast<std::size_t>(op)];
  ++s.calls;
  s.evals += evals;
  s.total_s += end_s - start_s;
  s.durations_us.push_back((end_s - start_s) * 1e6);
  s.intervals_s.emplace_back(start_s, end_s);
}

std::array<OpStats, kNumOps> AlgoSink::Snapshot() const {
  std::array<OpStats, kNumOps> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = ops_;
  }
  out[static_cast<std::size_t>(Op::kBuild)].evals +=
      worker_evals_.load(std::memory_order_relaxed);
  return out;
}

Tracer::Tracer() {
  NP_ENSURE(!g_tracer_alive.exchange(true), "only one Tracer at a time");
  NP_ENSURE(tl_tally.depth == 0, "Tracer created inside a traced call");
  g_retired_total.store(0);
  g_retired_truth.store(0);
  g_violations.store(0);
  tl_tally.total = 0;
  tl_tally.span_evals = 0;
  tl_tally.truth = 0;
  tl_tally.worker = 0;
}

Tracer::~Tracer() { g_tracer_alive.store(false); }

AlgoSink& Tracer::SinkFor(const std::string& name) {
  std::unique_ptr<AlgoSink>& sink = sinks_[name];
  if (sink == nullptr) {
    sink = std::make_unique<AlgoSink>(name);
  }
  return *sink;
}

TraceTotals Tracer::Collect() const {
  TraceTotals totals;
  totals.total_evals =
      g_retired_total.load(std::memory_order_relaxed) + tl_tally.total;
  totals.truth_evals =
      g_retired_truth.load(std::memory_order_relaxed) + tl_tally.truth;
  totals.overlap_violations = g_violations.load(std::memory_order_relaxed);
  return totals;
}

double Tracer::BusySeconds() const {
  std::vector<std::pair<double, double>> intervals;
  for (const auto& [name, sink] : sinks_) {
    for (const OpStats& op : sink->Snapshot()) {
      intervals.insert(intervals.end(), op.intervals_s.begin(),
                       op.intervals_s.end());
    }
  }
  std::sort(intervals.begin(), intervals.end());
  double busy = 0.0;
  double covered_to = -std::numeric_limits<double>::infinity();
  for (const auto& [start, end] : intervals) {
    if (end > covered_to) {
      busy += end - std::max(start, covered_to);
      covered_to = end;
    }
  }
  return busy;
}

LatencyMs CountingSpace::Latency(NodeId a, NodeId b) const {
  ThreadTally& t = Tally();
  ++t.total;
  if (t.depth > 0) {
    ++t.span_evals;
  } else if (AlgoSink* build =
                 g_parallel_build.load(std::memory_order_acquire)) {
    if (t.worker_sink != build) {
      t.FlushWorker();
      t.worker_sink = build;
    }
    ++t.worker;
  } else {
    ++t.truth;
  }
  return inner_->Latency(a, b);
}

TracedAlgorithm::TracedAlgorithm(
    std::unique_ptr<core::NearestPeerAlgorithm> inner, AlgoSink& sink)
    : inner_(std::move(inner)), sink_(&sink) {
  NP_ENSURE(inner_ != nullptr, "TracedAlgorithm needs an algorithm");
}

void TracedAlgorithm::AddMember(NodeId node, util::Rng& rng) {
  const Span span(*sink_, Op::kJoin);
  inner_->AddMember(node, rng);
}

void TracedAlgorithm::RemoveMember(NodeId node) {
  const Span span(*sink_, Op::kLeave);
  inner_->RemoveMember(node);
}

void TracedAlgorithm::Build(const core::LatencySpace& space,
                            std::vector<NodeId> members, util::Rng& rng) {
  const Span span(*sink_, Op::kBuild);
  inner_->Build(space, std::move(members), rng);
}

void TracedAlgorithm::ParallelBuild(const core::LatencySpace& space,
                                    std::vector<NodeId> members,
                                    util::Rng& rng, int num_threads) {
  const Span span(*sink_, Op::kBuild, /*parallel_build=*/num_threads != 1);
  inner_->ParallelBuild(space, std::move(members), rng, num_threads);
}

core::QueryResult TracedAlgorithm::FindNearest(
    NodeId target, const core::MeteredSpace& metered, util::Rng& rng) {
  const Span span(*sink_, Op::kFind);
  return inner_->FindNearest(target, metered, rng);
}

void TracedAlgorithm::AttachProbePolicy(const core::ProbePolicy* policy) {
  NearestPeerAlgorithm::AttachProbePolicy(policy);
  inner_->AttachProbePolicy(policy);
}

std::unique_ptr<core::NearestPeerAlgorithm> TracedAlgorithm::Clone() const {
  std::unique_ptr<core::NearestPeerAlgorithm> copy;
  {
    const Span span(*sink_, Op::kClone);
    copy = inner_->Clone();
  }
  return std::make_unique<TracedAlgorithm>(std::move(copy), *sink_);
}

}  // namespace np::perfbench

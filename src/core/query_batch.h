// Per-query machinery shared by the deterministic scenario engine
// (core/scenario) and the concurrent serving engine (core/serving).
//
// Both engines must issue bit-identical queries — the serving mode's
// correctness oracle is "a snapshot pinned at epoch k answers exactly
// like serial replay at epoch k" — so the per-query RNG/noise/fault
// stream derivation, the target draw, the scoring and the serial
// reduction live here, in one place, instead of being duplicated.
//
// Determinism contract (the PR-1 `base ^ index` idiom): query q of an
// epoch derives every stream from per-epoch bases xor'ed with q, so
// outcomes are a pure function of (config seed, epoch, q) — invariant
// under thread count, execution order, and which engine ran them.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "core/latency_space.h"
#include "core/nearest_algorithm.h"
#include "core/probe_channel.h"
#include "core/probe_counter.h"
#include "core/scenario.h"
#include "core/truth_index.h"
#include "matrix/generators.h"
#include "matrix/partitioned_space.h"
#include "util/types.h"

namespace np::core {

/// Per-query record, reduced serially in query order (thread-count
/// invariance, as in the PR-1 experiment runners). `found`/`target`/
/// `truth` ride along for the serving engine's staleness scoring.
struct QueryOutcome {
  LatencyMs found_latency = 0.0;
  LatencyMs truth_latency = 0.0;
  std::uint64_t probes = 0;
  int hops = 0;
  bool exact = false;
  bool correct_cluster = false;
  bool same_net = false;
  /// Fault mode only: every probe path gave up, no peer returned.
  bool failed = false;
  /// Nearest *reachable* peer correctness: under an active partition
  /// window the truth is restricted to the target's component, and a
  /// target with no reachable member scores correct iff the query
  /// honestly failed. Equals `exact` when no window is active.
  bool exact_reachable = false;
  /// Component of the target under the active window (0 when whole).
  int target_component = 0;
  NodeId found = kInvalidNode;
  NodeId target = kInvalidNode;
  /// True closest member of the epoch (TruthIndex::Closest), the node
  /// `truth_latency` was measured to.
  NodeId truth = kInvalidNode;
};

/// Normalized CDF of Zipf weights 1/(r+1)^s over pool positions.
std::vector<double> ZipfCdf(std::size_t n, double s);
std::size_t ZipfIndex(const std::vector<double>& cdf, double u);

/// Immutable inputs of one epoch's query batch. Pointers are borrowed
/// views owned by the engine (for serving, by the pinned snapshot);
/// nullable ones are marked.
struct QueryBatch {
  const LatencySpace* space = nullptr;
  /// Nullable: enables the clustered accuracy metrics.
  const matrix::ClusterLayout* layout = nullptr;
  /// Ground truth: the index over the live membership the epoch
  /// answers against, built once per epoch and shared read-only by
  /// every query of the batch.
  const TruthIndex* truth = nullptr;
  /// Query-target pool.
  const std::vector<NodeId>* pool = nullptr;
  /// Nullable/empty: uniform target draw (the exact pre-fault path).
  const std::vector<double>* zipf_cdf = nullptr;
  LatencyMs tie_epsilon_ms = 0.0;
  /// When false, a query returning no peer is a hard error.
  bool fault_mode = false;
  /// Layers and per-epoch seeds of every query's probe channel. Query
  /// q xors its index into each seed and probes through a private
  /// channel (the noise, loss and grey-loss layers are stateful).
  ProbeChannelConfig channel;
  /// Nullable: the partition window active this epoch (drives the
  /// nearest-reachable scoring); nullptr when the population is whole.
  const matrix::PartitionWindow* active_window = nullptr;
  /// Per-epoch query stream base; query q xors its index in.
  std::uint64_t query_base = 0;
};

/// Per-run roots of the per-epoch query streams (see SetBatchEpoch).
struct QueryRoots {
  std::uint64_t query = 0;
  std::uint64_t noise = 0;
  std::uint64_t fault = 0;
  std::uint64_t partition = 0;
};

/// The probe-channel layers a scenario configures — noise, correlated
/// faults, i.i.d. loss — with no seeds, crashed set or ledger yet.
/// `schedule` is borrowed.
ProbeChannelConfig ScenarioChannelLayers(
    const ScenarioConfig& config, const matrix::PartitionSchedule& schedule);

/// The maintenance channel of a run: `layers` seeded from the run's
/// noise seed and fault root, composing the loss layer when a peer can
/// crash.
ProbeChannelConfig MaintenanceChannel(const ProbeChannelConfig& layers,
                                      std::uint64_t noise_seed,
                                      std::uint64_t fault_root,
                                      bool crashes_possible,
                                      PerNodeLedger* ledger);

/// Points `batch` at epoch `epoch`: the query stream base, the probe
/// channel (`layers` plus per-epoch seeds mixed from `roots`, the
/// borrowed `crashed` set and `ledger`) and the partition window that
/// scores it. Both engines derive their batches here, which keeps their
/// queries bit-identical.
void SetBatchEpoch(QueryBatch& batch, const ProbeChannelConfig& layers,
                   const QueryRoots& roots, int epoch,
                   const std::unordered_set<NodeId>& crashed,
                   PerNodeLedger* ledger);

/// Runs query `q` of the batch against `algo` (charging its attached
/// probe counter/policy) and returns the scored outcome. Thread-safe
/// for ParallelQuerySafe algorithms: every mutable stream (rng, noise,
/// fault, meter) is query-private.
QueryOutcome RunBatchQuery(const QueryBatch& batch, NearestPeerAlgorithm& algo,
                           std::size_t q);

/// Serially reduces a batch's outcomes — in query order — into the
/// query-section fields of `er` (accuracy, latency tail, messages per
/// query). Adds this epoch's failed-query count to `failed_queries`
/// when non-null.
void ReduceQueryOutcomes(const std::vector<QueryOutcome>& outcomes,
                         EpochReport& er, std::uint64_t* failed_queries);

/// Deterministic staleness of one epoch's answers, scored against the
/// membership live while the snapshot served (= the next epoch's
/// membership; the final epoch scores against itself).
struct StalenessReport {
  int epoch = 0;
  /// Answer is still the true closest among next-epoch members (same
  /// tie epsilon as p_exact_closest). Failed queries count as stale.
  double p_exact_live = 0.0;
  /// The returned peer is no longer a member one epoch later.
  double p_found_departed = 0.0;
};

/// Scores one epoch's outcomes (answered against `members`) against
/// `next_members`: an answer is exact-live iff it is still a member
/// and `found_latency <= Latency(TrueClosestMember(next_members,
/// target), target) + tie_epsilon_ms`. The verdict is that rule bit for
/// bit, derived incrementally instead of by a rescan per query:
///  - an answer inexact in its own epoch is beaten by the epoch's
///    truth: stale at no cost while the truth is still a member, else
///    the next membership is scanned;
///  - an answer exact in its own epoch is within the epsilon of every
///    survivor (rounding is monotone), so only the epoch's joiners are
///    scanned;
/// every scan stops at the first member that beats the answer. The
/// outcomes must carry the epoch's truth and `exact` scored with the
/// same `tie_epsilon_ms`. `epoch` is left zero for the caller.
StalenessReport ScoreStaleness(const LatencySpace& space,
                               const std::vector<QueryOutcome>& outcomes,
                               const std::vector<NodeId>& members,
                               const std::vector<NodeId>& next_members,
                               LatencyMs tie_epsilon_ms);

/// Per-component membership/query split for one partitioned epoch,
/// ordered by component id (deterministic). Load Gini is left zero for
/// the caller to fill under track_load.
std::vector<EpochReport::ComponentStats> SplitByComponent(
    const std::vector<QueryOutcome>& outcomes,
    const std::vector<NodeId>& members, const matrix::PartitionWindow& window);

}  // namespace np::core

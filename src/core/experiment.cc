#include "core/experiment.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "core/truth_index.h"
#include "util/contract.h"
#include "util/parallel.h"
#include "util/stats.h"

namespace np::core {

namespace {

/// Per-query record filled by the (possibly parallel) query loop and
/// reduced serially in query order, so aggregate metrics do not depend
/// on the thread count.
struct QueryOutcome {
  LatencyMs found_latency = 0.0;
  LatencyMs hub_latency = 0.0;
  std::uint64_t probes = 0;
  int hops = 0;
  bool exact = false;
  bool correct_cluster = false;
  bool same_net = false;
};

/// Thread count for the query loop: the config knob, clamped to 1 for
/// algorithms whose FindNearest mutates state.
int QueryThreads(const ExperimentConfig& config,
                 const NearestPeerAlgorithm& algo) {
  return algo.ParallelQuerySafe() ? util::ResolveThreadCount(
                                        config.num_threads)
                                  : 1;
}

/// The shared per-query scaffolding of both runners: query q draws its
/// RNG and its noise from seeds `base ^ q`, so a query's outcome is a
/// pure function of the runner seed and q — the loop parallelizes with
/// bit-identical results for any thread count, and callers reduce the
/// returned outcomes in query order. `score(out, target, truth,
/// result)` fills the runner-specific fields; probes/hops are filled
/// here.
template <typename Outcome, typename Score>
std::vector<Outcome> RunQueryLoop(const LatencySpace& space,
                                  NearestPeerAlgorithm& algo,
                                  const ExperimentConfig& config,
                                  const OverlaySplit& split, util::Rng& rng,
                                  const Score& score) {
  const std::uint64_t noise_base = rng();
  const std::uint64_t query_base = rng();
  const TruthIndex truth_index(space, split.members);
  std::vector<Outcome> outcomes(static_cast<std::size_t>(config.num_queries));
  util::ParallelFor(
      0, outcomes.size(), QueryThreads(config, algo), [&](std::size_t q) {
        util::Rng qrng(query_base ^ static_cast<std::uint64_t>(q));
        const NoisySpace noisy(space, config.measurement_noise_frac,
                               noise_base ^ static_cast<std::uint64_t>(q),
                               config.measurement_noise_floor_ms);
        const MeteredSpace metered(noisy);
        const NodeId target = split.targets[qrng.Index(split.targets.size())];
        const NodeId truth = truth_index.Closest(target);

        const QueryResult result = algo.Query(target, metered, qrng);
        NP_ENSURE(result.found != kInvalidNode, "algorithm returned no peer");

        Outcome& out = outcomes[q];
        out.probes = metered.probes();
        out.hops = result.hops;
        score(out, target, truth, result);
      });
  return outcomes;
}

/// Reduction shared by the static and churn-driven clustered runners.
ClusteredMetrics ReduceClusteredOutcomes(
    const std::vector<QueryOutcome>& outcomes,
    const ExperimentConfig& config) {
  ClusteredMetrics metrics;
  metrics.num_queries = config.num_queries;
  int exact = 0;
  int correct_cluster = 0;
  int same_net = 0;
  double total_latency = 0.0;
  double total_hops = 0.0;
  std::uint64_t total_probes = 0;
  std::vector<double> wrong_hub_latencies;
  wrong_hub_latencies.reserve(outcomes.size());
  for (const QueryOutcome& out : outcomes) {
    total_probes += out.probes;
    total_hops += out.hops;
    total_latency += out.found_latency;
    if (out.exact) {
      ++exact;
    } else {
      wrong_hub_latencies.push_back(out.hub_latency);
    }
    correct_cluster += out.correct_cluster ? 1 : 0;
    same_net += out.same_net ? 1 : 0;
  }
  const double n = static_cast<double>(config.num_queries);
  metrics.p_exact_closest = exact / n;
  metrics.p_correct_cluster = correct_cluster / n;
  metrics.p_same_net = same_net / n;
  metrics.mean_found_latency_ms = total_latency / n;
  metrics.mean_probes = static_cast<double>(total_probes) / n;
  metrics.mean_hops = total_hops / n;
  metrics.median_wrong_hub_latency_ms =
      wrong_hub_latencies.empty()
          ? 0.0
          : util::Percentile(std::move(wrong_hub_latencies), 50.0);
  return metrics;
}

struct GenericOutcome {
  LatencyMs found_latency = 0.0;
  LatencyMs truth_latency = 0.0;
  std::uint64_t probes = 0;
  int hops = 0;
  bool exact = false;
};

GenericMetrics ReduceGenericOutcomes(const std::vector<GenericOutcome>& outcomes,
                                     const ExperimentConfig& config) {
  GenericMetrics metrics;
  metrics.num_queries = config.num_queries;
  int exact = 0;
  double total_stretch = 0.0;
  double total_abs_error = 0.0;
  double total_hops = 0.0;
  std::uint64_t total_probes = 0;
  for (const GenericOutcome& out : outcomes) {
    total_probes += out.probes;
    total_hops += out.hops;
    if (out.exact) {
      ++exact;
    }
    total_abs_error += out.found_latency - out.truth_latency;
    // Stretch is undefined when the optimum is ~0; floor the
    // denominator at 1 us.
    total_stretch += out.found_latency / std::max(out.truth_latency, 1e-3);
  }
  const double n = static_cast<double>(config.num_queries);
  metrics.p_exact_closest = exact / n;
  metrics.mean_stretch = total_stretch / n;
  metrics.mean_abs_error_ms = total_abs_error / n;
  metrics.mean_probes = static_cast<double>(total_probes) / n;
  metrics.mean_hops = total_hops / n;
  return metrics;
}

/// The churn phase of the dynamic runners: drives the whole schedule
/// through the overlay (incremental maintenance when supported, one
/// final rebuild otherwise) and bills the measurement traffic.
struct ChurnPhaseResult {
  OverlaySplit live;
  std::int64_t events = 0;
  std::uint64_t maintenance = 0;
};

/// Copies the churn-phase bill into the metrics struct (shared by the
/// clustered and generic overloads).
template <typename Metrics>
void FillChurnMetrics(Metrics& metrics, const ChurnPhaseResult& churn) {
  metrics.churn_events = churn.events;
  metrics.maintenance_messages = churn.maintenance;
  metrics.maintenance_per_event =
      churn.events == 0 ? 0.0
                        : static_cast<double>(churn.maintenance) /
                              static_cast<double>(churn.events);
  metrics.final_members = static_cast<NodeId>(churn.live.members.size());
}

ChurnPhaseResult DriveSchedule(const MeteredSpace& maint,
                               NearestPeerAlgorithm& algo,
                               const ChurnSchedule& schedule,
                               OverlaySplit split, util::Rng& rng) {
  const std::uint64_t build_probes = maint.probes();
  const bool incremental = algo.SupportsChurn();
  ChurnDriver driver(incremental ? &algo : nullptr,
                     std::move(split.members), std::move(split.targets),
                     rng());
  const ChurnStats stats = driver.ApplyAll(schedule);
  if (!incremental && stats.joins + stats.leaves > 0) {
    algo.Build(maint, driver.members(), rng);
  }
  ChurnPhaseResult result;
  result.live.members = driver.members();
  result.live.targets = driver.pool();
  result.events = stats.joins + stats.leaves;
  result.maintenance = maint.probes() - build_probes;
  return result;
}

}  // namespace

OverlaySplit SplitOverlay(NodeId space_size, NodeId overlay_size,
                          util::Rng& rng) {
  NP_ENSURE(overlay_size >= 1, "overlay must be non-empty");
  NP_ENSURE(overlay_size < space_size,
            "need at least one node left over as a target");
  std::vector<NodeId> all(static_cast<std::size_t>(space_size));
  for (NodeId i = 0; i < space_size; ++i) {
    all[static_cast<std::size_t>(i)] = i;
  }
  rng.Shuffle(all);
  OverlaySplit split;
  split.members.assign(all.begin(), all.begin() + overlay_size);
  split.targets.assign(all.begin() + overlay_size, all.end());
  return split;
}

ClusteredMetrics RunClusteredExperiment(const LatencySpace& space,
                                        const matrix::ClusterLayout& layout,
                                        NearestPeerAlgorithm& algo,
                                        const ExperimentConfig& config,
                                        util::Rng& rng) {
  NP_REPORT_AFFECTING();
  NP_ENSURE(config.num_queries >= 1, "num_queries must be >= 1");
  OverlaySplit split = SplitOverlay(space.size(), config.overlay_size, rng);
  // Build-time measurements carry the same noise as query probes: no
  // real overlay gets to memorize exact latencies (this matters for
  // triangulation schemes like Beaconing). The space must outlive the
  // algorithm, which may hold a pointer through its lifetime.
  const NoisySpace build_noisy(space, config.measurement_noise_frac, rng(),
                               config.measurement_noise_floor_ms);
  algo.Build(build_noisy, split.members, rng);

  const auto outcomes = RunQueryLoop<QueryOutcome>(
      space, algo, config, split, rng,
      [&](QueryOutcome& out, NodeId target, NodeId truth,
          const QueryResult& result) {
        // Score with the true (noise-free) latency of the returned peer.
        const LatencyMs truth_latency = space.Latency(truth, target);
        out.found_latency = space.Latency(result.found, target);
        out.exact = out.found_latency <= truth_latency + config.tie_epsilon_ms;
        if (!out.exact) {
          out.hub_latency = layout.HubLatencyOfPeer(result.found);
        }
        out.correct_cluster = layout.SameCluster(result.found, target);
        out.same_net = layout.SameNet(result.found, target);
      });

  return ReduceClusteredOutcomes(outcomes, config);
}

ClusteredMetrics RunClusteredExperiment(const matrix::ClusteredWorld& world,
                                        NearestPeerAlgorithm& algo,
                                        const ExperimentConfig& config,
                                        util::Rng& rng) {
  const MatrixSpace space(world.matrix);
  return RunClusteredExperiment(space, world.layout, algo, config, rng);
}

ClusteredMetrics RunClusteredExperiment(const LatencySpace& space,
                                        const matrix::ClusterLayout& layout,
                                        NearestPeerAlgorithm& algo,
                                        const ExperimentConfig& config,
                                        const ChurnSchedule& schedule,
                                        util::Rng& rng) {
  NP_REPORT_AFFECTING();
  NP_ENSURE(config.num_queries >= 1, "num_queries must be >= 1");
  OverlaySplit split = SplitOverlay(space.size(), config.overlay_size, rng);
  // Maintenance traffic (build, churn handling, rebuilds) is metered
  // so the runner can bill it; noise applies to every build-time and
  // churn-time measurement just like the static runner's build.
  const NoisySpace build_noisy(space, config.measurement_noise_frac, rng(),
                               config.measurement_noise_floor_ms);
  const MeteredSpace maint(build_noisy);
  algo.Build(maint, split.members, rng);

  const ChurnPhaseResult churn =
      DriveSchedule(maint, algo, schedule, std::move(split), rng);

  const auto outcomes = RunQueryLoop<QueryOutcome>(
      space, algo, config, churn.live, rng,
      [&](QueryOutcome& out, NodeId target, NodeId truth,
          const QueryResult& result) {
        const LatencyMs truth_latency = space.Latency(truth, target);
        out.found_latency = space.Latency(result.found, target);
        out.exact = out.found_latency <= truth_latency + config.tie_epsilon_ms;
        if (!out.exact) {
          out.hub_latency = layout.HubLatencyOfPeer(result.found);
        }
        out.correct_cluster = layout.SameCluster(result.found, target);
        out.same_net = layout.SameNet(result.found, target);
      });

  ClusteredMetrics metrics = ReduceClusteredOutcomes(outcomes, config);
  FillChurnMetrics(metrics, churn);
  return metrics;
}

ClusteredMetrics RunClusteredExperiment(const matrix::ClusteredWorld& world,
                                        NearestPeerAlgorithm& algo,
                                        const ExperimentConfig& config,
                                        const ChurnSchedule& schedule,
                                        util::Rng& rng) {
  const MatrixSpace space(world.matrix);
  return RunClusteredExperiment(space, world.layout, algo, config, schedule,
                                rng);
}

GenericMetrics RunGenericExperiment(const LatencySpace& space,
                                    NearestPeerAlgorithm& algo,
                                    const ExperimentConfig& config,
                                    util::Rng& rng) {
  NP_REPORT_AFFECTING();
  NP_ENSURE(config.num_queries >= 1, "num_queries must be >= 1");
  OverlaySplit split = SplitOverlay(space.size(), config.overlay_size, rng);
  const NoisySpace build_noisy(space, config.measurement_noise_frac, rng(),
                               config.measurement_noise_floor_ms);
  algo.Build(build_noisy, split.members, rng);

  const auto outcomes = RunQueryLoop<GenericOutcome>(
      space, algo, config, split, rng,
      [&](GenericOutcome& out, NodeId target, NodeId truth,
          const QueryResult& result) {
        out.truth_latency = space.Latency(truth, target);
        out.found_latency = space.Latency(result.found, target);
        out.exact =
            out.found_latency <= out.truth_latency + config.tie_epsilon_ms;
      });

  return ReduceGenericOutcomes(outcomes, config);
}

GenericMetrics RunGenericExperiment(const LatencySpace& space,
                                    NearestPeerAlgorithm& algo,
                                    const ExperimentConfig& config,
                                    const ChurnSchedule& schedule,
                                    util::Rng& rng) {
  NP_REPORT_AFFECTING();
  NP_ENSURE(config.num_queries >= 1, "num_queries must be >= 1");
  OverlaySplit split = SplitOverlay(space.size(), config.overlay_size, rng);
  const NoisySpace build_noisy(space, config.measurement_noise_frac, rng(),
                               config.measurement_noise_floor_ms);
  const MeteredSpace maint(build_noisy);
  algo.Build(maint, split.members, rng);

  const ChurnPhaseResult churn =
      DriveSchedule(maint, algo, schedule, std::move(split), rng);

  const auto outcomes = RunQueryLoop<GenericOutcome>(
      space, algo, config, churn.live, rng,
      [&](GenericOutcome& out, NodeId target, NodeId truth,
          const QueryResult& result) {
        out.truth_latency = space.Latency(truth, target);
        out.found_latency = space.Latency(result.found, target);
        out.exact =
            out.found_latency <= out.truth_latency + config.tie_epsilon_ms;
      });

  GenericMetrics metrics = ReduceGenericOutcomes(outcomes, config);
  FillChurnMetrics(metrics, churn);
  return metrics;
}

namespace {

/// P(exact closest) of `algo` over `queries` random targets drawn from
/// the non-member pool.
double MeasureExactRate(const LatencySpace& space,
                        NearestPeerAlgorithm& algo,
                        const std::vector<NodeId>& members,
                        const std::vector<NodeId>& pool, int queries,
                        LatencyMs tie_epsilon_ms, util::Rng& rng) {
  NP_ENSURE(!pool.empty(), "no targets left outside the overlay");
  const MeteredSpace metered(space);
  const TruthIndex truth_index(space, members);
  int exact = 0;
  for (int q = 0; q < queries; ++q) {
    const NodeId target = pool[rng.Index(pool.size())];
    const NodeId truth = truth_index.Closest(target);
    const QueryResult result = algo.Query(target, metered, rng);
    NP_ENSURE(result.found != kInvalidNode, "algorithm returned no peer");
    if (space.Latency(result.found, target) <=
        space.Latency(truth, target) + tie_epsilon_ms) {
      ++exact;
    }
  }
  return static_cast<double>(exact) / queries;
}

}  // namespace

ChurnMetrics RunChurnExperiment(const LatencySpace& space,
                                NearestPeerAlgorithm& algo,
                                NearestPeerAlgorithm& fresh,
                                const ChurnConfig& config, util::Rng& rng) {
  NP_ENSURE(algo.SupportsChurn(), "algorithm does not support churn");
  NP_ENSURE(config.waves >= 1 && config.events >= config.waves,
            "invalid wave schedule");
  NP_ENSURE(config.join_fraction >= 0.0 && config.join_fraction <= 1.0,
            "join fraction must be a probability");

  OverlaySplit split =
      SplitOverlay(space.size(), config.initial_overlay, rng);
  algo.Build(space, split.members, rng);
  std::vector<NodeId> members = split.members;
  std::vector<NodeId> pool = split.targets;  // joinable + targets

  ChurnMetrics metrics;
  const int per_wave = config.events / config.waves;
  for (int wave = 0; wave < config.waves; ++wave) {
    for (int e = 0; e < per_wave; ++e) {
      const bool join = rng.Bernoulli(config.join_fraction);
      if (join && pool.size() > 1) {
        const std::size_t pick = rng.Index(pool.size());
        const NodeId node = pool[pick];
        pool[pick] = pool.back();
        pool.pop_back();
        algo.AddMember(node, rng);
        members.push_back(node);
      } else if (!join && members.size() > 2) {
        const std::size_t pick = rng.Index(members.size());
        const NodeId node = members[pick];
        members[pick] = members.back();
        members.pop_back();
        algo.RemoveMember(node);
        pool.push_back(node);
      }
    }
    util::Rng wave_rng = rng.Fork(static_cast<std::uint64_t>(wave));
    metrics.p_exact_per_wave.push_back(
        MeasureExactRate(space, algo, members, pool,
                         config.queries_per_wave, config.tie_epsilon_ms,
                         wave_rng));
  }

  // Rebuild comparison on the final membership, same query seed stream.
  fresh.Build(space, members, rng);
  util::Rng rebuild_rng = rng.Fork(0xFE5);
  metrics.p_exact_rebuilt = MeasureExactRate(
      space, fresh, members, pool, config.queries_per_wave,
      config.tie_epsilon_ms, rebuild_rng);
  metrics.final_members = static_cast<NodeId>(members.size());
  return metrics;
}

}  // namespace np::core

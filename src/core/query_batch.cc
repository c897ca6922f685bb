#include "core/query_batch.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "util/error.h"
#include "util/stats.h"

namespace np::core {

std::vector<double> ZipfCdf(std::size_t n, double s) {
  std::vector<double> cdf(n);
  double cum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    cum += std::pow(static_cast<double>(i + 1), -s);
    cdf[i] = cum;
  }
  for (double& c : cdf) {
    c /= cum;
  }
  return cdf;
}

std::size_t ZipfIndex(const std::vector<double>& cdf, double u) {
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  const auto idx = static_cast<std::size_t>(it - cdf.begin());
  return std::min(idx, cdf.size() - 1);
}

ProbeChannelConfig ScenarioChannelLayers(
    const ScenarioConfig& config, const matrix::PartitionSchedule& schedule) {
  ProbeChannelConfig layers;
  layers.noise_frac = config.measurement_noise_frac;
  layers.noise_floor_ms = config.measurement_noise_floor_ms;
  layers.partition = &schedule;
  layers.loss_rate = config.fault.loss_rate;
  return layers;
}

ProbeChannelConfig MaintenanceChannel(const ProbeChannelConfig& layers,
                                      std::uint64_t noise_seed,
                                      std::uint64_t fault_root,
                                      bool crashes_possible,
                                      PerNodeLedger* ledger) {
  ProbeChannelConfig config = layers;
  config.noise_seed = noise_seed;
  config.partition_seed = util::Mix64(fault_root ^ 0x6);
  config.fault_seed = util::Mix64(fault_root ^ 0x1);
  config.crashes_possible = crashes_possible;
  config.ledger = ledger;
  return config;
}

void SetBatchEpoch(QueryBatch& batch, const ProbeChannelConfig& layers,
                   const QueryRoots& roots, int epoch,
                   const std::unordered_set<NodeId>& crashed,
                   PerNodeLedger* ledger) {
  const auto e = static_cast<std::uint64_t>(epoch);
  batch.query_base = util::Mix64(roots.query ^ e);
  batch.channel = layers;
  batch.channel.noise_seed = util::Mix64(roots.noise ^ e);
  batch.channel.partition_seed = util::Mix64(roots.partition ^ e);
  batch.channel.fault_seed = util::Mix64(roots.fault ^ e);
  batch.channel.epoch = epoch;
  batch.channel.crashed = &crashed;
  batch.channel.crashes_possible = !crashed.empty();
  batch.channel.ledger = ledger;
  batch.active_window =
      layers.partition != nullptr ? layers.partition->WindowFor(epoch)
                                  : nullptr;
}

QueryOutcome RunBatchQuery(const QueryBatch& batch, NearestPeerAlgorithm& algo,
                           std::size_t q) {
  const std::vector<NodeId>& pool = *batch.pool;
  const auto qi = static_cast<std::uint64_t>(q);
  util::Rng qrng(batch.query_base ^ qi);
  ProbeChannelConfig channel_config = batch.channel;
  channel_config.noise_seed ^= qi;
  channel_config.partition_seed ^= qi;
  channel_config.fault_seed ^= qi;
  const ProbeChannel channel(*batch.space, channel_config);
  const MeteredSpace& metered = channel.space();
  // The uniform path must keep the exact pre-fault draw (Index, not
  // NextDouble) for byte-identity at zipf 0.
  const bool uniform = batch.zipf_cdf == nullptr || batch.zipf_cdf->empty();
  const NodeId target =
      uniform ? pool[qrng.Index(pool.size())]
              : pool[ZipfIndex(*batch.zipf_cdf, qrng.NextDouble())];
  const NodeId truth = batch.truth->Closest(target);

  const QueryResult result = algo.Query(target, metered, qrng);
  if (!batch.fault_mode) {
    NP_ENSURE(result.found != kInvalidNode, "algorithm returned no peer");
  }

  QueryOutcome out;
  out.target = target;
  out.found = result.found;
  out.failed = result.found == kInvalidNode;
  out.probes = metered.probes();
  out.truth = truth;
  out.truth_latency = batch.space->Latency(truth, target);
  if (!out.failed) {
    out.hops = result.hops;
    out.found_latency = batch.space->Latency(result.found, target);
    out.exact = out.found_latency <= out.truth_latency + batch.tie_epsilon_ms;
    if (batch.layout != nullptr) {
      out.correct_cluster = batch.layout->SameCluster(result.found, target);
      out.same_net = batch.layout->SameNet(result.found, target);
    }
  }
  // Nearest-reachable scoring: identical to `exact` in whole epochs,
  // restricted to the target's component under a partition window.
  out.exact_reachable = out.exact;
  if (batch.active_window != nullptr) {
    const matrix::PartitionWindow& window = *batch.active_window;
    out.target_component = matrix::ComponentOf(window, target);
    const NodeId rtruth = batch.truth->ClosestReachable(target, truth, window);
    if (rtruth == kInvalidNode) {
      // No member shares the target's component: the only correct
      // answer is an honest failure.
      out.exact_reachable = out.failed;
    } else if (out.failed ||
               matrix::ComponentOf(window, result.found) !=
                   out.target_component) {
      out.exact_reachable = false;
    } else {
      const LatencyMs rtruth_latency = batch.space->Latency(rtruth, target);
      out.exact_reachable =
          out.found_latency <= rtruth_latency + batch.tie_epsilon_ms;
    }
  }
  return out;
}

void ReduceQueryOutcomes(const std::vector<QueryOutcome>& outcomes,
                         EpochReport& er, std::uint64_t* failed_queries) {
  std::int64_t exact = 0;
  std::int64_t exact_reachable = 0;
  std::int64_t correct_cluster = 0;
  std::int64_t same_net = 0;
  std::int64_t answered = 0;
  double total_latency = 0.0;
  double total_hops = 0.0;
  std::uint64_t total_probes = 0;
  std::vector<double> excess;
  excess.reserve(outcomes.size());
  for (const QueryOutcome& out : outcomes) {
    total_probes += out.probes;
    // Counted before the failed-query skip: an honest failure on an
    // unreachable target is the *correct* reachable outcome.
    exact_reachable += out.exact_reachable ? 1 : 0;
    if (out.failed) {
      // Failed queries count against p_exact and messages/query but
      // contribute no latency/hops samples (there is no answer to
      // measure).
      continue;
    }
    ++answered;
    exact += out.exact ? 1 : 0;
    correct_cluster += out.correct_cluster ? 1 : 0;
    same_net += out.same_net ? 1 : 0;
    total_latency += out.found_latency;
    total_hops += out.hops;
    // >= 0: the true closest is the minimum over members, and found
    // is a member. Exact answers contribute 0.
    excess.push_back(out.found_latency - out.truth_latency);
  }
  const std::int64_t queries = static_cast<std::int64_t>(outcomes.size());
  const double n = static_cast<double>(queries);
  er.p_exact_closest = static_cast<double>(exact) / n;
  er.p_exact_reachable = static_cast<double>(exact_reachable) / n;
  er.p_correct_cluster = static_cast<double>(correct_cluster) / n;
  er.p_same_net = static_cast<double>(same_net) / n;
  er.p_query_failed = static_cast<double>(queries - answered) / n;
  if (failed_queries != nullptr) {
    *failed_queries += static_cast<std::uint64_t>(queries - answered);
  }
  // Divisor: with no faults answered == n, so these stay bit-equal
  // to the historical divide-by-n.
  const double na = answered > 0 ? static_cast<double>(answered) : 1.0;
  er.mean_found_latency_ms = total_latency / na;
  er.mean_hops = total_hops / na;
  er.messages_per_query = static_cast<double>(total_probes) / n;
  if (!excess.empty()) {
    std::sort(excess.begin(), excess.end());
    er.excess_latency_p50_ms = util::PercentileSorted(excess, 50.0);
    er.excess_latency_p95_ms = util::PercentileSorted(excess, 95.0);
    er.excess_latency_p99_ms = util::PercentileSorted(excess, 99.0);
  }
}

StalenessReport ScoreStaleness(const LatencySpace& space,
                               const std::vector<QueryOutcome>& outcomes,
                               const std::vector<NodeId>& members,
                               const std::vector<NodeId>& next_members,
                               LatencyMs tie_epsilon_ms) {
  // Membership marks: every test is a lookup.
  constexpr std::uint8_t kMember = 1;
  constexpr std::uint8_t kNextMember = 2;
  std::vector<std::uint8_t> mark(static_cast<std::size_t>(space.size()), 0);
  for (const NodeId m : members) {
    mark[static_cast<std::size_t>(m)] |= kMember;
  }
  for (const NodeId m : next_members) {
    mark[static_cast<std::size_t>(m)] |= kNextMember;
  }
  const auto live = [&](NodeId m) {
    return (mark[static_cast<std::size_t>(m)] & kNextMember) != 0;
  };
  std::vector<NodeId> joined;
  for (const NodeId m : next_members) {
    if ((mark[static_cast<std::size_t>(m)] & kMember) == 0) {
      joined.push_back(m);
    }
  }
  // Some candidate other than the target beats the answer by more than
  // the tie epsilon. `<` skips a NaN latency exactly as
  // TrueClosestMember's minimum does, and min(l) + eps rounds to
  // min(l + eps), so for a clean (never NaN) answer latency this is the
  // negation of the brute-force verdict.
  const auto beaten = [&](const std::vector<NodeId>& candidates,
                          const QueryOutcome& out) {
    for (const NodeId m : candidates) {
      if (m != out.target &&
          space.Latency(m, out.target) + tie_epsilon_ms < out.found_latency) {
        return true;
      }
    }
    return false;
  };

  std::int64_t exact_live = 0;
  std::int64_t departed = 0;
  for (const QueryOutcome& out : outcomes) {
    if (out.failed) {
      continue;  // counts as not exact-live, not as departed
    }
    if (!live(out.found)) {
      ++departed;
      continue;
    }
    // An inexact answer is beaten by the epoch's truth, which settles it
    // if the truth is still a member. An exact one is within the
    // epsilon of every survivor, so only a joiner can beat it.
    const bool stale = out.exact
                           ? beaten(joined, out)
                           : live(out.truth) || beaten(next_members, out);
    exact_live += stale ? 0 : 1;
  }
  StalenessReport st;
  const double n = static_cast<double>(outcomes.size());
  st.p_exact_live = static_cast<double>(exact_live) / n;
  st.p_found_departed = static_cast<double>(departed) / n;
  return st;
}

std::vector<EpochReport::ComponentStats> SplitByComponent(
    const std::vector<QueryOutcome>& outcomes,
    const std::vector<NodeId>& members,
    const matrix::PartitionWindow& window) {
  // Ordered map: the report lists components by id, not hash order.
  std::map<int, EpochReport::ComponentStats> split;
  for (const NodeId m : members) {
    EpochReport::ComponentStats& c = split[matrix::ComponentOf(window, m)];
    ++c.members;
  }
  for (const QueryOutcome& out : outcomes) {
    EpochReport::ComponentStats& c = split[out.target_component];
    ++c.queries;
    if (out.failed) {
      ++c.failed_queries;
    }
  }
  std::vector<EpochReport::ComponentStats> out;
  out.reserve(split.size());
  for (auto& [component, stats] : split) {
    stats.component = component;
    out.push_back(stats);
  }
  return out;
}

}  // namespace np::core

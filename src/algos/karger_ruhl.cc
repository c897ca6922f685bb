#include "algos/karger_ruhl.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_set>
#include <utility>

#include "util/error.h"
#include "util/parallel.h"

namespace np::algos {

KargerRuhlNearest::KargerRuhlNearest(KargerRuhlConfig config)
    : config_(config) {
  NP_ENSURE(config_.alpha_ms > 0.0, "alpha must be positive");
  NP_ENSURE(config_.growth > 1.0, "growth must exceed 1");
  NP_ENSURE(config_.num_scales >= 1 && config_.num_scales <= 255,
            "scales must be in [1, 255]");
  NP_ENSURE(config_.samples_per_scale >= 1, "need samples per scale");
  NP_ENSURE(config_.scale_window >= 0, "scale window must be >= 0");
  NP_ENSURE(config_.max_hops >= 1, "positive hop cap required");
}

int KargerRuhlNearest::ScaleFor(LatencyMs distance_ms) const {
  if (distance_ms <= config_.alpha_ms) {
    return 0;
  }
  const int scale = 1 + static_cast<int>(std::floor(
                            std::log(distance_ms / config_.alpha_ms) /
                            std::log(config_.growth)));
  return std::min(scale, config_.num_scales - 1);
}

void KargerRuhlNearest::Build(const core::LatencySpace& space,
                              std::vector<NodeId> members, util::Rng& rng) {
  BuildImpl(space, std::move(members), rng, 1);
}

void KargerRuhlNearest::ParallelBuild(const core::LatencySpace& space,
                                      std::vector<NodeId> members,
                                      util::Rng& rng, int num_threads) {
  BuildImpl(space, std::move(members), rng, num_threads);
}

void KargerRuhlNearest::BuildImpl(const core::LatencySpace& space,
                                  std::vector<NodeId> members,
                                  util::Rng& rng, int num_threads) {
  NP_ENSURE(!members.empty(), "requires at least one member");
  space_ = &space;
  members_.Reset(std::move(members));
  const std::size_t n = members_.size();
  const std::vector<NodeId>& ids = members_.members();

  samples_.assign(n, {});
  occ_.assign(n, {});
  occ_floor_.assign(n, kOccCompactMin / 2);
  // One base draw, then a private stream per member keyed by its node
  // id: iteration i touches only samples_[i], so any thread count
  // produces the serial result bit for bit.
  const std::uint64_t base = rng();
  const core::ProbePolicy& policy = probe_policy();
  util::ParallelFor(0, n, num_threads, [&](std::size_t i) {
    const NodeId self = ids[i];
    util::Rng mrng(util::Mix64(base ^ static_cast<std::uint64_t>(self)));
    // Bucket the other members, probed as one batch, by the smallest
    // ball containing them; ball `s` then contains all buckets <= s.
    // `self` rides in the second argument so row-caching backends reuse
    // its row.
    std::vector<std::vector<NodeId>> balls(
        static_cast<std::size_t>(config_.num_scales));
    std::vector<NodeId> others(ids.begin(), ids.end());
    others.erase(others.begin() + static_cast<std::ptrdiff_t>(i));
    std::vector<std::optional<LatencyMs>> measured(others.size());
    policy.ProbeMany(space, others, self, measured);
    for (std::size_t j = 0; j < others.size(); ++j) {
      if (!measured[j]) {
        continue;  // unreachable at build time: simply not bucketed
      }
      const int scale = ScaleFor(*measured[j]);
      balls[static_cast<std::size_t>(scale)].push_back(others[j]);
    }
    samples_[i].resize(static_cast<std::size_t>(config_.num_scales));
    std::vector<NodeId> cumulative;
    for (int s = 0; s < config_.num_scales; ++s) {
      cumulative.insert(cumulative.end(),
                        balls[static_cast<std::size_t>(s)].begin(),
                        balls[static_cast<std::size_t>(s)].end());
      auto& chosen = samples_[i][static_cast<std::size_t>(s)];
      const std::size_t k = std::min<std::size_t>(
          static_cast<std::size_t>(config_.samples_per_scale),
          cumulative.size());
      if (k == cumulative.size()) {
        chosen = cumulative;
      } else {
        for (std::size_t pick : mrng.Sample(cumulative.size(), k)) {
          chosen.push_back(cumulative[pick]);
        }
      }
    }
  });

  // Occurrence pass (serial: a sampled member's list is appended from
  // every owner, so fan-out here would race).
  for (std::size_t i = 0; i < n; ++i) {
    for (int s = 0; s < config_.num_scales; ++s) {
      for (const NodeId sampled :
           samples_[i][static_cast<std::size_t>(s)]) {
        occ_[members_.PositionOf(sampled)].push_back(
            PackOccurrence(ids[i], s));
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    occ_floor_[i] = std::max(occ_[i].size(), kOccCompactMin / 2);
  }
}

void KargerRuhlNearest::AddMember(NodeId node, util::Rng& rng) {
  NP_ENSURE(space_ != nullptr, "Build must run before AddMember");
  const std::size_t existing = members_.size();
  const std::size_t position = members_.Add(node);
  samples_.emplace_back(static_cast<std::size_t>(config_.num_scales));
  occ_.emplace_back();
  occ_floor_.push_back(kOccCompactMin / 2);
  const std::vector<NodeId>& ids = members_.members();
  const core::ProbePolicy& policy = probe_policy();

  // The joiner probes a bounded random subset of the overlay — enough
  // to fill every scale in expectation, far less than a full scan —
  // probed as one batch.
  const std::size_t budget = std::min<std::size_t>(
      existing, static_cast<std::size_t>(config_.samples_per_scale) *
                    static_cast<std::size_t>(config_.num_scales));
  std::vector<std::pair<int, NodeId>> probed;  // (scale, member)
  probed.reserve(budget);
  const std::vector<std::size_t> picks = rng.Sample(existing, budget);
  std::vector<NodeId> sampled(picks.size());
  for (std::size_t j = 0; j < picks.size(); ++j) {
    sampled[j] = ids[picks[j]];
  }
  std::vector<std::optional<LatencyMs>> measured(sampled.size());
  policy.ProbeMany(*space_, sampled, node, measured);
  for (std::size_t j = 0; j < picks.size(); ++j) {
    const std::size_t pick = picks[j];
    const NodeId other = sampled[j];
    if (!measured[j]) {
      continue;  // no handshake, no exchange in either direction
    }
    const LatencyMs d = *measured[j];
    const int scale = ScaleFor(d);
    probed.push_back({scale, other});

    // The probed member learns about the joiner from the same
    // handshake: keep it when the scale has room, otherwise replace a
    // random entry (membership refresh keeps samples live under
    // churn).
    auto& theirs = samples_[pick][static_cast<std::size_t>(scale)];
    if (theirs.size() <
        static_cast<std::size_t>(config_.samples_per_scale)) {
      theirs.push_back(node);
    } else {
      theirs[rng.Index(theirs.size())] = node;
    }
    occ_[position].push_back(PackOccurrence(other, scale));
    MaybeCompactOcc(position);
  }

  // Cumulative-ball semantics (as in Build): a member whose smallest
  // containing ball is s is eligible for every scale >= s.
  std::sort(probed.begin(), probed.end());
  std::vector<NodeId> cumulative;
  cumulative.reserve(probed.size());
  std::size_t consumed = 0;
  for (int s = 0; s < config_.num_scales; ++s) {
    while (consumed < probed.size() && probed[consumed].first <= s) {
      cumulative.push_back(probed[consumed].second);
      ++consumed;
    }
    auto& chosen = samples_[position][static_cast<std::size_t>(s)];
    const std::size_t k = std::min<std::size_t>(
        static_cast<std::size_t>(config_.samples_per_scale),
        cumulative.size());
    if (k == cumulative.size()) {
      chosen = cumulative;
    } else {
      chosen.clear();
      for (std::size_t pick : rng.Sample(cumulative.size(), k)) {
        chosen.push_back(cumulative[pick]);
      }
    }
    for (const NodeId sampled : chosen) {
      const std::size_t sampled_pos = members_.PositionOf(sampled);
      occ_[sampled_pos].push_back(PackOccurrence(node, s));
      MaybeCompactOcc(sampled_pos);
    }
  }
}

void KargerRuhlNearest::MaybeCompactOcc(std::size_t position) {
  auto& list = occ_[position];
  if (list.size() < kOccCompactMin ||
      list.size() < 2 * occ_floor_[position]) {
    return;
  }
  // Verify-scan: keep an entry only if the named sample list still
  // holds this member. Sort + unique first — one live entry per
  // (owner, scale) is enough, because the RemoveMember purge erases
  // every copy of a node from a list at once, and nothing else reads
  // occurrence multiplicity. Order of occ_ entries is semantically
  // irrelevant, so the sort cannot change any result.
  const NodeId self = members_.at(position);
  std::sort(list.begin(), list.end());
  list.erase(std::unique(list.begin(), list.end()), list.end());
  std::size_t kept = 0;
  for (const std::uint64_t packed : list) {
    const NodeId owner = static_cast<NodeId>(packed >> 8);
    const auto scale = static_cast<std::size_t>(packed & 0xFF);
    const std::size_t owner_pos = members_.PositionOf(owner);
    if (owner_pos == core::MemberIndex::kNoPosition ||
        owner_pos == position) {
      continue;
    }
    const auto& samples = samples_[owner_pos][scale];
    if (std::find(samples.begin(), samples.end(), self) == samples.end()) {
      continue;
    }
    list[kept++] = packed;
  }
  list.resize(kept);
  list.shrink_to_fit();
  // Next compaction only once the list doubles again: amortized O(1)
  // per append, and length stays <= 2 * live + O(1).
  occ_floor_[position] = std::max(kept, kOccCompactMin / 2);
}

std::size_t KargerRuhlNearest::OccurrenceEntries(NodeId member) const {
  const std::size_t position = members_.PositionOf(member);
  NP_ENSURE(position != core::MemberIndex::kNoPosition, "not a member");
  return occ_[position].size();
}

void KargerRuhlNearest::RemoveMember(NodeId node) {
  const std::size_t position = members_.PositionOf(node);
  NP_ENSURE(position != core::MemberIndex::kNoPosition, "not a member");
  NP_ENSURE(members_.size() > 1, "cannot remove the last member");

  // Purge the leaver from every sample list its occurrence entries
  // name (failure detection). Stale entries — the list replaced the
  // leaver earlier, or the owner itself left — erase nothing and are
  // skipped; erasing the leaver is always correct where it *is* found.
  // Cost: O(entries naming the leaver), independent of overlay size.
  for (const std::uint64_t packed : occ_[position]) {
    const NodeId owner = static_cast<NodeId>(packed >> 8);
    const int scale = static_cast<int>(packed & 0xFF);
    const std::size_t owner_pos = members_.PositionOf(owner);
    if (owner_pos == core::MemberIndex::kNoPosition ||
        owner_pos == position) {
      continue;
    }
    auto& list = samples_[owner_pos][static_cast<std::size_t>(scale)];
    list.erase(std::remove(list.begin(), list.end(), node), list.end());
  }

  const auto removed = members_.Remove(node);
  if (removed.swapped) {
    samples_[removed.position] = std::move(samples_.back());
    occ_[removed.position] = std::move(occ_.back());
    occ_floor_[removed.position] = occ_floor_.back();
  }
  samples_.pop_back();
  occ_.pop_back();
  occ_floor_.pop_back();
}

const std::vector<NodeId>& KargerRuhlNearest::SamplesOf(NodeId member,
                                                        int scale) const {
  const std::size_t position = members_.PositionOf(member);
  NP_ENSURE(position != core::MemberIndex::kNoPosition, "not a member");
  NP_ENSURE(scale >= 0 && scale < config_.num_scales, "scale out of range");
  return samples_[position][static_cast<std::size_t>(scale)];
}

core::QueryResult KargerRuhlNearest::FindNearest(
    NodeId target, const core::MeteredSpace& metered, util::Rng& rng) {
  NP_ENSURE(!members_.empty(), "Build must run before FindNearest");
  core::QueryResult result;
  const core::ProbePolicy& policy = probe_policy();
  std::unordered_set<NodeId> probed;
  const auto probe = [&](NodeId node) {
    const auto d = policy.Probe(metered, node, target);
    if (probed.insert(node).second) {
      ++result.probes;
    }
    return d;
  };

  // Under faults the start peer may be unreachable; redraw a few times
  // before giving the query up. At zero loss the first draw always
  // answers, keeping rng consumption identical to the fault-free path.
  NodeId current = members_.at(rng.Index(members_.size()));
  auto start = probe(current);
  for (int redraw = 0; !start && redraw < core::kStartRedraws; ++redraw) {
    current = members_.at(rng.Index(members_.size()));
    start = probe(current);
  }
  if (!start) {
    return result;  // found stays kInvalidNode: give-up
  }
  LatencyMs current_distance = *start;
  result.found = current;
  result.found_latency_ms = current_distance;

  for (int hop = 0; hop < config_.max_hops; ++hop) {
    const std::size_t pos = members_.PositionOf(current);
    const int scale = ScaleFor(current_distance);
    NodeId best = kInvalidNode;
    LatencyMs best_distance = current_distance;
    for (int s = std::max(0, scale - config_.scale_window);
         s <= std::min(config_.num_scales - 1,
                       scale + config_.scale_window);
         ++s) {
      for (const NodeId candidate :
           samples_[pos][static_cast<std::size_t>(s)]) {
        if (probed.count(candidate) > 0 && candidate != current) {
          continue;
        }
        const auto measured = probe(candidate);
        if (!measured) {
          continue;  // stale/dead sample: skip, keep zooming
        }
        const LatencyMs d = *measured;
        if (d < result.found_latency_ms ||
            (d == result.found_latency_ms && candidate < result.found)) {
          result.found_latency_ms = d;
          result.found = candidate;
        }
        if (d < best_distance) {
          best_distance = d;
          best = candidate;
        }
      }
    }
    if (best == kInvalidNode) {
      break;  // no strictly closer sample: the zoom-in is stuck
    }
    current = best;
    current_distance = best_distance;
    ++result.hops;
  }
  return result;
}

}  // namespace np::algos

#include "core/probe_policy.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/contract.h"
#include "util/error.h"

namespace np::core {

SuspicionLedger::SuspicionLedger(SuspicionConfig config) : config_(config) {
  NP_ENSURE(config.strikes >= 0, "SuspicionConfig strikes must be >= 0");
  NP_ENSURE(config.probation_epochs >= 1,
            "SuspicionConfig probation_epochs must be >= 1");
  NP_ENSURE(config.probation_backoff >= 1.0,
            "SuspicionConfig probation_backoff must be >= 1");
}

void SuspicionLedger::RecordProbe(NodeId peer, bool ok) {
  // recording_ is re-checked here (not just at the Probe call site) so
  // a stray feed outside a serial maintenance window is inert rather
  // than a data race on the strike counts.
  if (!recording_ || !config_.Enabled() || quarantine_.count(peer) != 0) {
    return;
  }
  if (ok) {
    strikes_.erase(peer);
    return;
  }
  const int count = ++strikes_[peer];
  if (count >= config_.strikes) {
    strikes_.erase(peer);
    quarantine_.emplace(
        peer, Quarantine{0, epoch_ + config_.probation_epochs});
  }
}

std::vector<NodeId> SuspicionLedger::ProbationDue(int epoch) const {
  std::vector<NodeId> due;
  NP_ORDER_INSENSITIVE("collected then sorted before return");
  for (const auto& [peer, q] : quarantine_) {
    if (q.next_epoch <= epoch) {
      due.push_back(peer);
    }
  }
  std::sort(due.begin(), due.end());
  return due;
}

bool SuspicionLedger::ResolveProbation(NodeId peer, int epoch, bool ok) {
  auto it = quarantine_.find(peer);
  NP_ENSURE(it != quarantine_.end(),
            "ResolveProbation on a peer that is not quarantined");
  if (ok) {
    quarantine_.erase(it);
    return true;
  }
  it->second.level += 1;
  // Backed-off re-probe interval: probation_epochs grown by
  // probation_backoff per failed probation, in whole epochs (pure
  // function of the level, so replay-identical).
  const double interval =
      static_cast<double>(config_.probation_epochs) *
      std::pow(config_.probation_backoff, it->second.level);
  it->second.next_epoch =
      epoch + std::max(1, static_cast<int>(std::lround(interval)));
  return false;
}

void SuspicionLedger::PruneTo(const std::unordered_set<NodeId>& members) {
  for (auto it = strikes_.begin(); it != strikes_.end();) {
    it = members.count(it->first) == 0 ? strikes_.erase(it) : std::next(it);
  }
  for (auto it = quarantine_.begin(); it != quarantine_.end();) {
    it = members.count(it->first) == 0 ? quarantine_.erase(it)
                                       : std::next(it);
  }
}

ProbePolicy::ProbePolicy(ProbePolicyConfig config, ProbeCounter* counter,
                         SuspicionLedger* suspicion)
    : config_(config), counter_(counter), suspicion_(suspicion) {
  NP_ENSURE(config.max_attempts >= 1,
            "ProbePolicy needs at least one attempt");
  NP_ENSURE(config.timeout_ms >= 0.0 && config.backoff_factor >= 1.0,
            "ProbePolicy timeout/backoff must be non-negative/>= 1");
}

std::optional<LatencyMs> ProbePolicy::Attempt(const LatencySpace& space,
                                              NodeId node,
                                              NodeId target) const {
  for (int attempt = 0; attempt < config_.max_attempts; ++attempt) {
    const LatencyMs measured = space.Latency(node, target);
    if (!matrix::ProbeLost(measured)) {
      return measured;
    }
    if (counter_ != nullptr) {
      counter_->AddFailedProbes(1);
      if (attempt + 1 < config_.max_attempts) {
        counter_->AddRetries(1);
      }
    }
  }
  return std::nullopt;
}

std::optional<LatencyMs> ProbePolicy::Probe(const LatencySpace& space,
                                            NodeId node,
                                            NodeId target) const {
  if (suspicion_ != nullptr && suspicion_->Quarantined(node)) {
    // Quarantined peers are not probed at all: no wire traffic, no
    // retry burn — the graceful-degradation payoff of the detector.
    if (counter_ != nullptr) {
      counter_->AddSuspicionSkips(1);
    }
    return std::nullopt;
  }
  const std::optional<LatencyMs> result = Attempt(space, node, target);
  if (suspicion_ != nullptr && suspicion_->recording()) {
    suspicion_->RecordProbe(node, result.has_value());
  }
  return result;
}

namespace {

[[maybe_unused]] bool AllDistinct(std::span<const NodeId> nodes) {
  std::vector<NodeId> sorted(nodes.begin(), nodes.end());
  std::sort(sorted.begin(), sorted.end());
  return std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end();
}

}  // namespace

void ProbePolicy::ProbeMany(const LatencySpace& space,
                            std::span<const NodeId> nodes, NodeId target,
                            std::span<std::optional<LatencyMs>> out) const {
  NP_DCHECK(out.size() == nodes.size(), "ProbeMany needs one slot per node");
  NP_DCHECK(AllDistinct(nodes), "ProbeMany nodes must be distinct");
  if (nodes.size() >= space.PairHeadroom()) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      out[i] = Probe(space, nodes[i], target);
    }
    return;
  }
  std::uint64_t skips = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;
  std::array<NodeId, kProbeChunk> pending;
  std::array<std::size_t, kProbeChunk> slot;
  std::array<LatencyMs, kProbeChunk> measured;
  for (std::size_t begin = 0; begin < nodes.size(); begin += kProbeChunk) {
    const std::size_t end = std::min(begin + kProbeChunk, nodes.size());
    std::size_t open = 0;
    for (std::size_t i = begin; i < end; ++i) {
      out[i] = std::nullopt;
      if (suspicion_ != nullptr && suspicion_->Quarantined(nodes[i])) {
        ++skips;
        continue;
      }
      pending[open] = nodes[i];
      slot[open++] = i;
    }
    for (int attempt = 0; attempt < config_.max_attempts && open > 0;
         ++attempt) {
      space.LatencyMany(std::span(pending.data(), open), target,
                        std::span(measured.data(), open));
      std::size_t still = 0;
      for (std::size_t m = 0; m < open; ++m) {
        if (!matrix::ProbeLost(measured[m])) {
          out[slot[m]] = measured[m];
          continue;
        }
        ++failed;
        if (attempt + 1 < config_.max_attempts) {
          ++retries;
        }
        pending[still] = pending[m];
        slot[still++] = slot[m];
      }
      open = still;
    }
    // Skipped nodes are quarantined, which RecordProbe ignores.
    if (suspicion_ != nullptr && suspicion_->recording()) {
      for (std::size_t i = begin; i < end; ++i) {
        suspicion_->RecordProbe(nodes[i], out[i].has_value());
      }
    }
  }
  if (counter_ != nullptr) {
    counter_->AddSuspicionSkips(skips);
    counter_->AddFailedProbes(failed);
    counter_->AddRetries(retries);
  }
}

std::optional<LatencyMs> ProbePolicy::ProbationProbe(const LatencySpace& space,
                                                     NodeId node,
                                                     NodeId target) const {
  if (counter_ != nullptr) {
    counter_->AddProbationProbes(1);
  }
  return Attempt(space, node, target);
}

double ProbePolicy::AttemptTimeoutMs(int attempt) const {
  NP_ENSURE(attempt >= 0 && attempt < config_.max_attempts,
            "attempt out of range");
  double timeout = config_.timeout_ms;
  for (int i = 0; i < attempt; ++i) {
    timeout *= config_.backoff_factor;
  }
  return timeout;
}

double ProbePolicy::GiveUpCostMs() const {
  double total = 0.0;
  for (int i = 0; i < config_.max_attempts; ++i) {
    total += AttemptTimeoutMs(i);
  }
  return total;
}

const ProbePolicy& ProbePolicy::Default() {
  static const ProbePolicy kDefault;
  return kDefault;
}

}  // namespace np::core
